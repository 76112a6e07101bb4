"""The MatMul federated source layer — Figure 6 of the paper.

Computes ``Z = X_A @ W_A + X_B @ W_B`` where neither party ever sees either
weight matrix, any unaggregated activation (``X_A W_A`` / ``X_B W_B``), or
any model gradient, satisfying every restriction of Table 2:

* weights are secretly shared at initialisation: ``W_x = U_x + V_x`` with
  ``U_x`` at the owner and ``V_x`` at the peer, and each party caches the
  *encrypted* peer piece ``[[V_own]]`` under the peer's key;
* the forward pass turns ``X [[V]]`` into shares via HE2SS (Alg. 1) so the
  obfuscation terms cancel exactly — the layer is lossless;
* the backward pass ships ``[[grad_Z]]`` to Party A, produces the secretly
  shared gradient ``<phi, grad_W_A - phi>``, and updates both pieces in the
  complementary way ``(U - lr*phi) + (V - lr*(grad_W - phi))``, so
  ``grad_W_A`` is never reconstructed anywhere.

Two refresh modes keep Party A's cached ``[[V_A]]`` consistent after Party
B updates its plaintext ``V_A`` (see ``VFLConfig.share_refresh``):
``"reencrypt"`` resends the full tensor (faithful to Figure 6);
``"delta"`` exploits sparsity — only coordinates touched by the batch are
masked, shared and refreshed, making per-iteration crypto cost O(nnz)
(the Table 5 scaling; the tradeoff is that the column support becomes
visible to Party B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import VFLContext
from repro.crypto.crypto_tensor import (
    CryptoTensor,
    matmul_plain_cipher,  # noqa: F401  (an alias the frozen e2e shim test reads)
)
from repro.crypto.packing import PackedCryptoTensor
from repro.crypto.parallel import ParallelContext
from repro.crypto.secret_sharing import he2ss_receive
from repro.core.federated import FederatedParameter, SourceLayer
from repro.obs import tracer as _obs
from repro.tensor.sparse import CSRMatrix

__all__ = ["MatMulSource", "matmul_any"]


def _batch_rows(x: object) -> int:
    """Row count of a dense or CSR batch (tolerates plain sequences)."""
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0])
    return int(np.asarray(x).shape[0])


def matmul_any(x: np.ndarray | CSRMatrix, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for dense or CSR ``x`` (plaintext, local to one party)."""
    if isinstance(x, CSRMatrix):
        return x.matmul_dense(w)
    return np.asarray(x, dtype=np.float64) @ w


def t_matmul_any(x: np.ndarray | CSRMatrix, g: np.ndarray) -> np.ndarray:
    """``x.T @ g`` for dense or CSR ``x``."""
    if isinstance(x, CSRMatrix):
        return x.t_matmul_dense(g)
    return np.asarray(x, dtype=np.float64).T @ g


def _matmul_cipher(
    x: np.ndarray | CSRMatrix,
    ct: CryptoTensor | PackedCryptoTensor,
    parallel: ParallelContext | None = None,
) -> CryptoTensor | PackedCryptoTensor:
    """``x @ [[v]]`` for dense or CSR ``x`` (homomorphic).

    A packed ``[[v]]`` (lanes along the output dimension) yields a packed
    product: each plaintext entry scales a whole row segment with one
    exponentiation, the slot-count saving of the packing subsystem.
    """
    return ct.rmatmul(x, parallel=parallel)


def _t_matmul_cipher(
    x: np.ndarray | CSRMatrix,
    ct: CryptoTensor | PackedCryptoTensor,
    columns: np.ndarray | None = None,
    parallel: ParallelContext | None = None,
) -> CryptoTensor | PackedCryptoTensor:
    """``x.T @ [[g]]`` for dense or CSR ``x`` (homomorphic; packed in, packed out)."""
    return ct.t_rmatmul(x, columns=columns, parallel=parallel)


@dataclass
class _PieceState:
    """One party's piece holdings for this layer."""

    u: np.ndarray  # own piece of own weights
    v_peer: np.ndarray  # plaintext piece of the *peer's* weights
    enc_v_own: CryptoTensor | PackedCryptoTensor  # [[V_own]] under the peer's key
    # Velocity buffers are derived from the pieces in __post_init__; they
    # are never constructor arguments and never None after construction.
    vel_u: np.ndarray = field(init=False)
    vel_v_peer: np.ndarray = field(init=False)
    x_cache: object = None
    pending: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vel_u = np.zeros_like(self.u)
        self.vel_v_peer = np.zeros_like(self.v_peer)


class MatMulSource(SourceLayer):
    """Federated ``Z = X_A W_A + X_B W_B`` for numerical features."""

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int,
        in_b: int,
        out_dim: int,
        init_scale: float = 0.05,
        name: str = "matmul",
        parallel: ParallelContext | None = None,
    ):
        if min(in_a, in_b, out_dim) <= 0:
            raise ValueError("dimensions must be positive")
        self.ctx = ctx
        self.name = name
        # Multicore execution engine for this layer's kernels; None falls
        # back to the process default (see repro.crypto.parallel).
        self.parallel = parallel
        self.in_a, self.in_b, self.out_dim = in_a, in_b, out_dim
        self._step = 0
        self._cfg = ctx.config
        a, b, ch = ctx.A, ctx.B, ctx.channel
        piece_std = init_scale / np.sqrt(2.0)
        # Figure 6 lines 1-4: A draws U_A and V_B; B draws U_B and V_A; each
        # encrypts the V piece it drew under its *own* key and ships it.
        # With packing on, the V pieces travel (and are later consumed by
        # the forward matmul) with ``slots`` lanes per ciphertext.
        u_a = a.rng.normal(0.0, piece_std, size=(in_a, out_dim))
        v_b = a.rng.normal(0.0, piece_std, size=(in_b, out_dim))
        u_b = b.rng.normal(0.0, piece_std, size=(in_b, out_dim))
        v_a = b.rng.normal(0.0, piece_std, size=(in_a, out_dim))
        ch.send(
            a.name, b.name, f"{name}.init.encV_B",
            self._encrypt_piece(a.public_key, v_b),
            MessageKind.CIPHERTEXT,
        )
        ch.send(
            b.name, a.name, f"{name}.init.encV_A",
            self._encrypt_piece(b.public_key, v_a),
            MessageKind.CIPHERTEXT,
        )
        enc_v_a = ch.recv(a.name, f"{name}.init.encV_A")
        enc_v_b = ch.recv(b.name, f"{name}.init.encV_B")
        self._a = _PieceState(u=u_a, v_peer=v_b, enc_v_own=enc_v_a)
        self._b = _PieceState(u=u_b, v_peer=v_a, enc_v_own=enc_v_b)

    # ------------------------------------------------------------------ packing

    def _packing_contraction(self) -> int:
        return max(self.in_a, self.in_b, 2)

    # ------------------------------------------------------------------ forward

    def forward(
        self,
        x_a: np.ndarray | CSRMatrix,
        x_b: np.ndarray | CSRMatrix,
        train: bool = True,
    ) -> np.ndarray:
        """Figure 6 lines 5-8; returns Z at Party B."""
        a, b, ch = self.ctx.A, self.ctx.B, self.ctx.channel
        tag = self._next_tag()
        with _obs.span("fw_transfer", tag=tag):
            z_a, z_b = self._forward_shares(tag, x_a, x_b, train)
            # Line 8: A releases its share of Z (Party B is entitled to Z).
            ch.send(a.name, b.name, f"{tag}.fwd.Z_A", z_a, MessageKind.OUTPUT_SHARE)
            return ch.recv(b.name, f"{tag}.fwd.Z_A") + z_b

    def forward_shares(
        self, x_a: np.ndarray | CSRMatrix, x_b: np.ndarray | CSRMatrix, train: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Appendix B variant: keep <Z'_A, Z'_B> secret-shared (no release).

        Used when a *federated* top model follows the source layer, so not
        even Party B sees Z.
        """
        tag = self._next_tag()
        with _obs.span("fw_transfer", tag=tag):
            return self._forward_shares(tag, x_a, x_b, train)

    def _next_tag(self) -> str:
        self._step += 1
        return f"{self.name}.{self._step}"

    def _forward_shares(
        self, tag: str, x_a: object, x_b: object, train: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Figure 6 lines 5-7: the per-party output shares of one step."""
        ctx, cfg = self.ctx, self._cfg
        a, b, ch = ctx.A, ctx.B, ctx.channel
        # The backward transfer contracts over the batch dimension; a
        # batch deeper than the packed layouts budgeted for must fail
        # loudly now.  Inference passes never run that contraction, so
        # they are exempt.
        if train:
            self._check_packing_depth(_batch_rows(x_a))
            self._a.x_cache = x_a
            self._b.x_cache = x_b
        # Line 5-6 at A: [[X_A V_A]] -> <eps_A, X_A V_A - eps_A>.
        ct_a = _matmul_cipher(x_a, self._a.enc_v_own, parallel=self.parallel)
        eps_a = self._he2ss(ct_a, a, "B", f"{tag}.fwd.XV_A", cfg.mask_scale)
        # Symmetric at B.
        ct_b = _matmul_cipher(x_b, self._b.enc_v_own, parallel=self.parallel)
        eps_b = self._he2ss(ct_b, b, "A", f"{tag}.fwd.XV_B", cfg.mask_scale)
        xv_b_share = he2ss_receive(a, ch, f"{tag}.fwd.XV_B")  # X_B V_B - eps_B
        xv_a_share = he2ss_receive(b, ch, f"{tag}.fwd.XV_A")  # X_A V_A - eps_A
        # Line 7: per-party output shares.
        z_a = matmul_any(x_a, self._a.u) + eps_a + xv_b_share
        z_b = matmul_any(x_b, self._b.u) + eps_b + xv_a_share
        return z_a, z_b

    # ----------------------------------------------------------------- backward

    def backward(self, grad_z: np.ndarray) -> None:
        """Figure 6 lines 9-10: secretly share grad_W_A; compute grad_W_B."""
        if self._a.x_cache is None:
            raise RuntimeError("backward before forward (or inference-only forward)")
        if self._a.pending or self._b.pending:
            raise RuntimeError("pending updates not applied; call apply_updates")
        tag = f"{self.name}.{self._step}"
        with _obs.span("bw_transfer", tag=tag):
            ctx, cfg = self.ctx, self._cfg
            a, b, ch = ctx.A, ctx.B, ctx.channel
            grad_z = np.asarray(grad_z, dtype=np.float64).reshape(-1, self.out_dim)
            # Line 9: B encrypts the derivatives (label protection, Req 3), in
            # lanes where A's X_A.T @ [[gZ]] can ship its packed product as is.
            with _obs.span("encrypt", party=b.name, tag=f"{tag}.bwd.gZ"):
                enc_gz = self._encrypt_as(
                    b.public_key, grad_z, self._lane_layout(b.public_key)
                )
            ch.send(b.name, a.name, f"{tag}.bwd.gZ", enc_gz, MessageKind.CIPHERTEXT)
            enc_gz_at_a = ch.recv(a.name, f"{tag}.bwd.gZ")
            x_a = self._a.x_cache
            use_delta = cfg.share_refresh == "delta" and isinstance(x_a, CSRMatrix)
            if use_delta:
                # Sparse-aware: only the column support of this batch carries
                # gradient; restrict the crypto to those coordinates.
                support = x_a.column_support()
                ch.send(
                    a.name, b.name, f"{tag}.bwd.support", support, MessageKind.PUBLIC
                )
                enc_gw = _t_matmul_cipher(
                    x_a, enc_gz_at_a, columns=support, parallel=self.parallel
                )
            else:
                support = None
                enc_gw = _t_matmul_cipher(x_a, enc_gz_at_a, parallel=self.parallel)
            # Line 10: <phi, grad_W_A - phi>.
            phi = self._he2ss(enc_gw, a, "B", f"{tag}.bwd.gW_A", cfg.grad_mask_scale)
            support_at_b = ch.recv(b.name, f"{tag}.bwd.support") if use_delta else None
            gw_minus_phi = he2ss_receive(b, ch, f"{tag}.bwd.gW_A")
            self._a.pending = {"phi": phi, "support": support}
            self._b.pending = {
                "gw_a_share": gw_minus_phi,
                "support": support_at_b,
                "gw_b": t_matmul_any(self._b.x_cache, grad_z),  # line 11, local at B
            }

    # --------------------------------------------------------------------- step

    def apply_updates(self, lr: float, momentum: float) -> None:
        """Figure 6 lines 11-12 plus the [[V_A]] refresh."""
        if not self._a.pending:
            return
        tag = f"{self.name}.{self._step}"
        a, b, ch = self.ctx.A, self.ctx.B, self.ctx.channel
        support = self._a.pending["support"]
        # Party A: U_A update with its gradient piece phi.
        _momentum_update(
            self._a.u, self._a.vel_u, self._a.pending["phi"], lr, momentum, support
        )
        # Party B: V_A update with the complementary piece.
        v_a_before = self._b.v_peer.copy() if support is not None else None
        _momentum_update(
            self._b.v_peer,
            self._b.vel_v_peer,
            self._b.pending["gw_a_share"],
            lr,
            momentum,
            self._b.pending["support"],
        )
        # Party B: its own weights take the full (plaintext) gradient.
        _momentum_update(
            self._b.u, self._b.vel_u, self._b.pending["gw_b"], lr, momentum, None
        )
        # Refresh A's cached [[V_A]]_B.
        if support is None:
            # Full re-encrypt: the faithful Figure 6 refresh.
            fresh = self._encrypt_piece(b.public_key, self._b.v_peer)
            ch.send(b.name, a.name, f"{tag}.upd.encV_A", fresh, MessageKind.CIPHERTEXT)
            self._a.enc_v_own = ch.recv(a.name, f"{tag}.upd.encV_A")
        else:
            # Delta mode refreshes the touched rows only.  Packed lanes
            # cannot be patched additively without spending guard bits every
            # step, so B re-encrypts those rows (same wire cost as an
            # encrypted delta) and A swaps them in; a per-element copy takes
            # the encrypted delta, added at A.
            support_at_b = self._b.pending["support"]
            packed = self._piece_layout(b.public_key) is not None
            rows = self._b.v_peer[support_at_b]
            if not packed:
                rows = rows - v_a_before[support_at_b]
            ch.send(
                b.name, a.name, f"{tag}.upd.dV_A",
                self._encrypt_piece(b.public_key, rows), MessageKind.CIPHERTEXT,
            )
            fresh_rows = ch.recv(a.name, f"{tag}.upd.dV_A")
            if not packed:
                fresh_rows = self._a.enc_v_own.take_rows(support) + fresh_rows
            self._a.enc_v_own.set_rows(support, fresh_rows)
        self.zero_pending()

    def zero_pending(self) -> None:
        self._a.pending = {}
        self._b.pending = {}

    # --------------------------------------------------------------- checkpoint

    def checkpoint_state(self) -> tuple:
        """Codec-serialisable snapshot of this layer at a batch boundary.

        Pieces, velocities and the cached encrypted peer pieces (live
        ciphertext payloads — the codec carries those natively) plus the
        step counter the protocol tags derive from.  Batch-transient state
        (``x_cache``, ``pending``) is provably stale between batches and
        is *not* captured; :meth:`load_checkpoint_state` resets it.
        """

        def side(st: _PieceState) -> tuple:
            return (st.u, st.v_peer, st.vel_u, st.vel_v_peer, st.enc_v_own)

        return ("matmul", self._step, side(self._a), side(self._b))

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, a, b = state
        if kind != "matmul":
            raise ValueError(
                f"layer {self.name!r} is a MatMul source but the checkpoint "
                f"holds a {kind!r} layer"
            )
        self._step = int(step)
        for st, vals in ((self._a, a), (self._b, b)):
            u, v_peer, vel_u, vel_v_peer, enc_v_own = vals
            u = np.asarray(u, dtype=np.float64)
            if u.shape != st.u.shape:
                raise ValueError(
                    f"layer {self.name!r}: checkpoint piece shape {u.shape} "
                    f"does not match the model's {st.u.shape}"
                )
            self._check_restored_form("[[V]]", enc_v_own, st.enc_v_own)
            st.u = u
            st.v_peer = np.asarray(v_peer, dtype=np.float64)
            st.vel_u = np.asarray(vel_u, dtype=np.float64)
            st.vel_v_peer = np.asarray(vel_v_peer, dtype=np.float64)
            st.enc_v_own = enc_v_own
            st.x_cache = None
            st.pending = {}

    # -------------------------------------------------------------- introspection

    def federated_parameters(self) -> list[FederatedParameter]:
        return [
            FederatedParameter(
                name=f"{self.name}.W_A",
                owner="A",
                shape=(self.in_a, self.out_dim),
                holders={"U": "A", "V": "B"},
            ),
            FederatedParameter(
                name=f"{self.name}.W_B",
                owner="B",
                shape=(self.in_b, self.out_dim),
                holders={"U": "B", "V": "A"},
            ),
        ]

    def reveal_weights(self) -> dict[str, np.ndarray]:
        """TEST/DEBUG ONLY: reconstruct W_A, W_B as a global observer.

        This deliberately violates the trust model (no real party can do
        it); the test-suite uses it to verify losslessness against the
        plaintext reference implementation.
        """
        return {
            "W_A": self._a.u + self._b.v_peer,
            "W_B": self._b.u + self._a.v_peer,
        }

    def piece_views(self) -> dict[str, np.ndarray]:
        """The pieces each party can see (for the Figure 11 analysis)."""
        return {
            "A.U_A": self._a.u,
            "A.V_B": self._a.v_peer,
            "B.U_B": self._b.u,
            "B.V_A": self._b.v_peer,
        }


def _momentum_update(
    weights: np.ndarray,
    velocity: np.ndarray,
    grad: np.ndarray,
    lr: float,
    momentum: float,
    support: np.ndarray | None,
) -> None:
    """Classical momentum on a piece; ``support`` enables lazy sparse mode."""
    if support is None:
        if momentum:
            velocity *= momentum
            velocity += grad
            weights -= lr * velocity
        else:
            weights -= lr * grad
        return
    if momentum:
        velocity[support] *= momentum
        velocity[support] += grad
        weights[support] -= lr * velocity[support]
    else:
        weights[support] -= lr * grad
