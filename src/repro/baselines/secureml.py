"""SecureML baseline — the MPC/data-outsourcing comparator of Table 5.

SecureML (Mohassel & Zhang, S&P'17) secret-shares *features and weights*
onto two non-colluding servers over Z_2^64 and runs every matrix product
through Beaver triples.  Two consequences the paper's Table 5 measures:

* **densification** — outsourced features must not reveal which entries
  are zero, so sparse datasets become fully dense (the ``outsource`` step
  here enforces that, with a memory guard that reproduces the paper's
  "OOM" cells);
* **per-iteration triple cost** — the crypto offline phase is
  Theta(n*m*k) homomorphic work per batch; the client-aided variant gets
  triples for free from a third party.

Only the matrix-multiplication path is modelled, mirroring the paper:
"we only record the time cost of matrix multiplication for a fair
comparison".
"""

from __future__ import annotations

import numpy as np

from repro.crypto.beaver import (
    ClientAidedDealer,
    PaillierTripleGenerator,
    beaver_matmul,
    decode_ring,
    encode_ring,
    reconstruct_ring,
    share_ring,
)
from repro.tensor.sparse import CSRMatrix

__all__ = ["SecureMLMatMul", "outsource"]

DEFAULT_DENSE_LIMIT_BYTES = 512 * 1024 * 1024

# Key size of the servers' Paillier triple generation ("crypto" triples).
_TRIPLE_KEY_BITS = 192


def outsource(
    x: np.ndarray | CSRMatrix,
    rng: np.random.Generator,
    dense_limit_bytes: int = DEFAULT_DENSE_LIMIT_BYTES,  # repro: api-ok Table 5's OOM threshold
) -> tuple[np.ndarray, np.ndarray]:
    """Share features onto the two servers — densifying sparse data.

    Raises ``MemoryError`` when the densified table would exceed the
    limit, reproducing Table 5's OOM entries for avazu-app/industry.
    """
    if isinstance(x, CSRMatrix):
        dense_bytes = x.shape[0] * x.shape[1] * 8 * 2  # two uint64 shares
        if dense_bytes > dense_limit_bytes:
            raise MemoryError(
                f"outsourcing would densify {x.shape} to {dense_bytes / 2**20:.0f}"
                f" MiB of shares (limit {dense_limit_bytes / 2**20:.0f} MiB)"
            )
        x = x.to_dense()
    return share_ring(encode_ring(np.asarray(x, dtype=np.float64)), rng)


class SecureMLMatMul:
    """The secure matmul kernel: forward ``X @ W`` and backward ``X^T @ g``.

    ``triple_source`` is "client" (free triples from a dealer) or "crypto"
    (the servers generate triples with Paillier — slow by design).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        triple_source: str = "client",
        seed: int = 0,
    ):
        if triple_source not in ("client", "crypto"):
            raise ValueError("triple_source must be 'client' or 'crypto'")
        self.rng = rng
        self.triple_source = triple_source
        if triple_source == "client":
            self._dealer = ClientAidedDealer(rng)
        else:
            from repro.crypto.paillier import generate_paillier_keypair

            pk0, sk0 = generate_paillier_keypair(_TRIPLE_KEY_BITS, seed=seed * 2 + 1)
            pk1, sk1 = generate_paillier_keypair(_TRIPLE_KEY_BITS, seed=seed * 2 + 2)
            self._dealer = PaillierTripleGenerator(rng, pk0, sk0, pk1, sk1)

    def matmul(
        self,
        x_shares: tuple[np.ndarray, np.ndarray],
        w_shares: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """One secure product: a triple from the dealer (the offline phase),
        then Beaver's online phase."""
        n, m = x_shares[0].shape
        k = w_shares[0].shape[1]
        return beaver_matmul(x_shares, w_shares, self._dealer.deal(n, m, k))

    def training_iteration(
        self,
        x_shares: tuple[np.ndarray, np.ndarray],
        w_shares: tuple[np.ndarray, np.ndarray],
        grad_scale: float = 0.01,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward + backward matmuls of one LR/MLP-layer iteration.

        The non-linearity is out of scope (as in Table 5); the backward
        uses a synthetic grad of the forward output's shape, secret-shared
        like the real one would be.
        """
        z_shares = self.matmul(x_shares, w_shares)
        grad = decode_ring(reconstruct_ring(*z_shares)) * grad_scale
        grad_shares = share_ring(encode_ring(grad), self.rng)
        xt_shares = (x_shares[0].T.copy(), x_shares[1].T.copy())
        return self.matmul(xt_shares, grad_shares)

