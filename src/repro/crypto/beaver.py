"""Fixed-point ring secret sharing and Beaver triples (SecureML substrate).

SecureML [Mohassel & Zhang 2017] — the MPC baseline of Table 5 — shares all
features and weights additively over the ring Z_2^64 with a fixed-point
fractional part, and multiplies shares with one-time Beaver triples.  Two
offline phases exist:

* **crypto**: the servers generate triples themselves with Paillier (the
  expensive path; this is why SecureML's per-batch cost explodes on
  high-dimensional data);
* **client-aided**: a non-colluding third party deals triples for free.

Both are implemented here, plus the share encoding/decoding and the local
truncation trick SecureML uses after every fixed-point product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.modexp import multi_pow
from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey

__all__ = [
    "FRAC_BITS",
    "encode_ring",
    "decode_ring",
    "share_ring",
    "reconstruct_ring",
    "BeaverTriple",
    "ClientAidedDealer",
    "PaillierTripleGenerator",
    "beaver_matmul",
]

RING_BITS = 64
FRAC_BITS = 20
_SCALE = float(1 << FRAC_BITS)


def encode_ring(values: np.ndarray) -> np.ndarray:
    """Encode floats as fixed-point elements of Z_2^64."""
    scaled = np.round(np.asarray(values, dtype=np.float64) * _SCALE)
    if np.any(np.abs(scaled) >= 2.0**62):
        raise OverflowError("value too large for 64-bit fixed-point encoding")
    return scaled.astype(np.int64).view(np.uint64)


def decode_ring(values: np.ndarray) -> np.ndarray:
    """Decode ring elements back to floats (centred interpretation)."""
    return np.asarray(values, dtype=np.uint64).view(np.int64).astype(np.float64) / _SCALE


def share_ring(
    values: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split ring elements into two uniformly random additive shares."""
    values = np.asarray(values, dtype=np.uint64)
    piece0 = rng.integers(0, 2**64, size=values.shape, dtype=np.uint64)
    piece1 = values - piece0  # uint64 arithmetic wraps mod 2^64
    return piece0, piece1


def reconstruct_ring(piece0: np.ndarray, piece1: np.ndarray) -> np.ndarray:
    return np.asarray(piece0, dtype=np.uint64) + np.asarray(piece1, dtype=np.uint64)


def _truncate_share(share: np.ndarray, server: int) -> np.ndarray:
    """SecureML's local truncation after a fixed-point product.

    Server 0 arithmetically shifts its share; server 1 shifts the negation
    and negates back.  The reconstructed value equals the truth up to one
    unit in the last place with overwhelming probability.
    """
    signed = np.asarray(share, dtype=np.uint64).view(np.int64)
    if server == 0:
        return (signed >> FRAC_BITS).view(np.uint64)
    if server == 1:
        return (-((-signed) >> FRAC_BITS)).view(np.uint64)
    raise ValueError("server must be 0 or 1")


@dataclass
class BeaverTriple:
    """Shares of random A (n x m), B (m x k) and C = A @ B."""

    a: tuple[np.ndarray, np.ndarray]
    b: tuple[np.ndarray, np.ndarray]
    c: tuple[np.ndarray, np.ndarray]

    @property
    def shape(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.a[0].shape, self.b[0].shape


class ClientAidedDealer:
    """A trusted third party that deals Beaver triples for free.

    This is SecureML's "client-aided" variant: no cryptography during
    training at all, which is why it dominates the low-dimensional rows of
    Table 5 — and why it still loses on avazu/industry, where the *dense*
    plain-arithmetic itself is the bottleneck.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def deal(self, n: int, m: int, k: int) -> BeaverTriple:
        a = self._rng.integers(0, 2**64, size=(n, m), dtype=np.uint64)
        b = self._rng.integers(0, 2**64, size=(m, k), dtype=np.uint64)
        c = _ring_matmul(a, b)
        return BeaverTriple(
            a=share_ring(a, self._rng),
            b=share_ring(b, self._rng),
            c=share_ring(c, self._rng),
        )


class PaillierTripleGenerator:
    """Two-server Beaver-triple generation via Paillier (SecureML offline).

    Server 0 encrypts its ``A0`` under its own key; server 1 computes
    ``[[A0]] @ B1 + R`` homomorphically and returns it, giving the servers
    additive shares of the cross term ``A0 @ B1`` (and symmetrically
    ``A1 @ B0``).  Statistical masking uses 40 extra bits.

    The cost is Theta(n*m) encryptions + Theta(n*m*k) homomorphic ops *per
    triple*, i.e. per training iteration — the quantity Table 5's SecureML
    column measures.  ``unit_cost_ops`` exposes the op count so benchmarks
    can extrapolate instead of running multi-hour cells (mirroring the
    paper's ">1800 s" / "OOM" entries).
    """

    _MASK_BITS = RING_BITS + 40

    def __init__(
        self,
        rng: np.random.Generator,
        pk0: PaillierPublicKey,
        sk0: PaillierPrivateKey,
        pk1: PaillierPublicKey,
        sk1: PaillierPrivateKey,
    ):
        self._rng = rng
        self._keys = ((pk0, sk0), (pk1, sk1))
        min_bits = self._MASK_BITS + RING_BITS + 8
        if pk0.n.bit_length() < min_bits or pk1.n.bit_length() < min_bits:
            raise ValueError(
                f"Paillier modulus too small for 64-bit triples; need >= {min_bits} bits"
            )

    def deal(self, n: int, m: int, k: int) -> BeaverTriple:
        a0 = self._rng.integers(0, 2**64, size=(n, m), dtype=np.uint64)
        a1 = self._rng.integers(0, 2**64, size=(n, m), dtype=np.uint64)
        b0 = self._rng.integers(0, 2**64, size=(m, k), dtype=np.uint64)
        b1 = self._rng.integers(0, 2**64, size=(m, k), dtype=np.uint64)
        # Cross terms via HE: each is shared between the two servers.
        cross01 = self._cross_term(a0, b1, owner=0)  # shares of A0 @ B1
        cross10 = self._cross_term(a1, b0, owner=1)  # shares of A1 @ B0
        c0 = _ring_matmul(a0, b0) + cross01[0] + cross10[1]
        c1 = _ring_matmul(a1, b1) + cross01[1] + cross10[0]
        return BeaverTriple(a=(a0, a1), b=(b0, b1), c=(c0, c1))

    def _cross_term(
        self, a: np.ndarray, b: np.ndarray, owner: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return additive ring shares of ``a @ b`` (a at ``owner``)."""
        pk, sk = self._keys[owner]
        n_rows, m = a.shape
        k = b.shape[1]
        # Owner encrypts its matrix entry-wise (the n*m encryptions).
        enc_a = [pk.raw_encrypt(int(a[i, j])) for i in range(n_rows) for j in range(m)]
        helper_share = np.empty((n_rows, k), dtype=np.uint64)
        owner_share = np.empty((n_rows, k), dtype=np.uint64)
        nsq = pk.nsquare
        # Helper side: the n*m*k homomorphic ops are one cipher @ plain
        # product through the exponentiation engine (the same one BlindFL's
        # kernels use, so Table 5 compares like with like) ...
        columns = b.T.tolist()
        products = multi_pow(
            pk,
            enc_a,
            [
                [(i * m + t, e) for t, e in enumerate(col)]
                for i in range(n_rows)
                for col in columns
            ],
        )
        # ... then every entry is masked, collecting the masked ciphertexts
        # in row-major order ...
        masked_cts: list[int] = []
        for pos, acc in enumerate(products):
            mask = int(self._rng.integers(0, 2**63)) << 40  # ~103-bit mask
            helper_share[pos // k, pos % k] = np.uint64((-mask) % (2**64))
            masked_cts.append((acc * pk.raw_encrypt(mask)) % nsq)
        # ... then the owner decrypts the whole batch in one ring batch
        # instead of n*k Python-level raw_decrypts.
        for pos, raw in enumerate(sk.raw_decrypt_many(masked_cts)):
            owner_share[pos // k, pos % k] = np.uint64(raw % (2**64))
        if owner == 0:
            return owner_share, helper_share
        return helper_share, owner_share

    @staticmethod
    def unit_cost_ops(n: int, m: int, k: int) -> int:
        """Paillier operation count for one (n, m, k) triple (both cross terms)."""
        encryptions = 2 * n * m + 2 * n * k  # matrix encs + mask encs
        homomorphic = 2 * n * m * k
        decryptions = 2 * n * k
        return encryptions + homomorphic + decryptions


def beaver_matmul(
    x_shares: tuple[np.ndarray, np.ndarray],
    w_shares: tuple[np.ndarray, np.ndarray],
    triple: BeaverTriple,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiply secret-shared matrices with a Beaver triple.

    Both servers open ``D = X - A`` and ``E = W - B`` (uniformly random, so
    nothing leaks), then assemble shares of ``X @ W`` locally, and restore
    the fixed-point scale by local share truncation.
    """
    x0, x1 = x_shares
    w0, w1 = w_shares
    a0, a1 = triple.a
    b0, b1 = triple.b
    c0, c1 = triple.c
    if x0.shape != a0.shape or w0.shape != b0.shape:
        raise ValueError("triple shape does not match operand shapes")
    d = reconstruct_ring(x0 - a0, x1 - a1)  # opened masked X
    e = reconstruct_ring(w0 - b0, w1 - b1)  # opened masked W
    z0 = _ring_matmul(d, e) + _ring_matmul(d, b0) + _ring_matmul(a0, e) + c0
    z1 = _ring_matmul(d, b1) + _ring_matmul(a1, e) + c1
    return _truncate_share(z0, server=0), _truncate_share(z1, server=1)


def _ring_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product in Z_2^64 (numpy integer matmul wraps as required)."""
    with np.errstate(over="ignore"):
        return a.astype(np.uint64) @ b.astype(np.uint64)
