"""Multi-party MatMul source layer — Algorithm 3 (Appendix C).

Generalises Figure 6 to ``M`` Party A's plus Party B: each ``A(i)`` shares
its weights with B exactly as in the two-party layer, while B's weights are
broken into ``M + 1`` pieces, ``W_B = U_B + sum_i V_B(i)``, with ``V_B(i)``
managed by ``A(i)``.  The forward pass runs the pairwise MatMul routine
once per ``A(i)`` (B contributing ``U_B / M`` each time, per the paper's
equation) and sums the results; the backward pass shares each
``grad_W_A(i)`` pairwise and lets B update ``U_B`` with the full local
gradient.

Non-mirrored execution
----------------------
Every statement below belongs to exactly one actor (some ``A(i)`` or B),
and is guarded by ``ctx.is_local(actor)``.  In the single-process
simulation all parties are local and the guards are all true; on a fabric
endpoint (see :mod:`repro.comm.fabric`) only the local party's statements
execute: remote state objects are never constructed, remote RNG streams
are never drawn from, and every cross-party value arrives through the
channel.  Per-party *draw order* is preserved exactly, which is the only
thing bit-identity of losses and weights depends on — obfuscation blinders
never survive decryption, and HE2SS masks cancel exactly in the
weight-piece sums.

Program order: send early, receive late
---------------------------------------
The protocol is a star around B, and written spoke by spoke (finish A1's
round, then start A2's) one ``train_step`` is a chain of ``4M + 1``
dependent messages although its data dependencies need 5 at any ``M``:
``XVB_i -> Z_i -> gZ_i -> gW_i -> upd.encV_i``.  So every phase here obeys
one contract: **every actor issues all sends computable from local state
before its first blocking receive of the phase, and sums are taken in**
``a_names`` **order**.  The forward is three passes over ``a_names`` (every
actor's product and HE2SS split; every share receive, ``A(i)`` releasing
``Z_i`` right after its own; B's ``Z_i`` receives and the sum), the
backward sends ``gZ`` to every spoke before the first ``gW`` receive, and
init sends every ``[[V]]`` before the first receive.  Only the interleaving
of different directed pairs moves: each party's draw order, every frame's
tag and bytes and each directed pair's FIFO sequence are those of the
spoke-by-spoke order (pinned by ``tests/data/multiparty_program_order.json``),
so losses are float-exact against it.  The depth is a counted tier-1 gate
(:func:`repro.obs.collect.critical_path`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import VFLContext
from repro.core.federated import FederatedParameter, SourceLayer
from repro.core.matmul_layer import (
    _matmul_cipher,
    _momentum_update,
    _t_matmul_cipher,
    matmul_any,
    t_matmul_any,
)
from repro.crypto.crypto_tensor import CryptoTensor
from repro.crypto.secret_sharing import he2ss_receive, he2ss_split
from repro.tensor.sparse import CSRMatrix

__all__ = ["MultiPartyMatMulSource", "MultiPartyLR"]


@dataclass
class _AState:
    u: np.ndarray  # U_A(i) at A(i)
    v_b: np.ndarray  # V_B(i) at A(i)
    enc_v_own: CryptoTensor | None  # [[V_A(i)]]_B at A(i); set by init's recv
    vel_u: np.ndarray = None  # type: ignore[assignment]
    x_cache: object = None

    def __post_init__(self) -> None:
        self.vel_u = np.zeros_like(self.u)


@dataclass
class _BState:
    u: np.ndarray  # U_B
    v_a: dict[str, np.ndarray]  # V_A(i) per A party
    enc_v_b: dict[str, CryptoTensor]  # [[V_B(i)]]_{A(i)} per A party
    vel_u: np.ndarray = None  # type: ignore[assignment]
    vel_v_a: dict[str, np.ndarray] = field(default_factory=dict)
    x_cache: object = None

    def __post_init__(self) -> None:
        self.vel_u = np.zeros_like(self.u)
        self.vel_v_a = {k: np.zeros_like(v) for k, v in self.v_a.items()}


class MultiPartyMatMulSource(SourceLayer):
    """``Z = sum_i X_A(i) W_A(i) + X_B W_B`` with M Party A's."""

    def __init__(
        self,
        ctx: VFLContext,
        in_dims: dict[str, int],
        in_b: int,
        out_dim: int,
        init_scale: float = 0.05,
        name: str = "mp-matmul",
    ):
        if len(ctx.a_names) < 2:
            raise ValueError("use MatMulSource for the two-party setting")
        if set(in_dims) != set(ctx.a_names):
            raise ValueError(f"in_dims must cover parties {ctx.a_names}")
        self.ctx = ctx
        self.name = name
        self.in_dims = dict(in_dims)
        self.in_b, self.out_dim = in_b, out_dim
        self._cfg = ctx.config
        self._step = 0
        self.zero_pending()
        b, ch = ctx.B, ctx.channel
        local = ctx.is_local
        m = len(ctx.a_names)
        piece = init_scale / np.sqrt(2.0)
        # Algorithm 3, MultiPartyMatMulInit.  B's state exists only where
        # B is local — an A(i) endpoint must never hold B's plaintext
        # pieces, nor advance B's RNG stream.
        self._b = (
            _BState(
                u=b.rng.normal(0.0, piece, size=(in_b, out_dim)),
                v_a={},
                enc_v_b={},
            )
            if local("B")
            else None
        )
        # Every init.encV_* / init.encVB_* send is computable from local
        # state, so all of them go out before the first blocking receive.
        self._a: dict[str, _AState] = {}
        for a_name in ctx.a_names:
            a = ctx.parties[a_name]
            in_a = in_dims[a_name]
            if local("B"):
                v_a = b.rng.normal(0.0, piece, size=(in_a, out_dim))
                self._b.v_a[a_name] = v_a
                ch.send(
                    b.name, a_name, f"{name}.init.encV_{a_name}",
                    CryptoTensor.encrypt(b.public_key, v_a, obfuscate=True),
                    MessageKind.CIPHERTEXT,
                )
            if local(a_name):
                u_a = a.rng.normal(0.0, piece, size=(in_a, out_dim))
                v_b = a.rng.normal(
                    0.0, piece / np.sqrt(m), size=(in_b, out_dim)
                )
                ch.send(
                    a_name, b.name, f"{name}.init.encVB_{a_name}",
                    CryptoTensor.encrypt(a.public_key, v_b, obfuscate=True),
                    MessageKind.CIPHERTEXT,
                )
                self._a[a_name] = _AState(u=u_a, v_b=v_b, enc_v_own=None)
        for a_name in ctx.a_names:
            if local(a_name):
                self._a[a_name].enc_v_own = ch.recv(
                    a_name, f"{name}.init.encV_{a_name}"
                )
            if local("B"):
                self._b.enc_v_b[a_name] = ch.recv(
                    b.name, f"{name}.init.encVB_{a_name}"
                )
        if local("B"):
            self._b.__post_init__()

    # ------------------------------------------------------------------ forward

    def forward(
        self, x_by_party: dict[str, np.ndarray | CSRMatrix], train: bool = True
    ) -> np.ndarray | None:
        """Algorithm 3, MultiPartyMatMulFw: sum of pairwise MatMul rounds.

        Returns the summed output shares at Party B; ``None`` on endpoints
        where B is remote (the logits only ever materialise at B).
        ``x_by_party`` need only cover this endpoint's local parties.
        """
        self._step += 1
        tag = f"{self.name}.{self._step}"
        cfg, ch = self._cfg, self.ctx.channel
        b = self.ctx.B
        local = self.ctx.is_local
        if local("B"):
            x_b = x_by_party["B"]
            if train:
                self._b.x_cache = x_b
        a_names, parties = self.ctx.a_names, self.ctx.parties
        # Pass 1 — everything computable from local state: each actor's
        # pairwise Figure 6 product and its HE2SS split (a send).
        eps_a: dict[str, np.ndarray] = {}
        eps_b: dict[str, np.ndarray] = {}
        for a_name in a_names:
            if local(a_name):
                state = self._a[a_name]
                x_a = x_by_party[a_name]
                if train:
                    state.x_cache = x_a
                eps_a[a_name] = he2ss_split(
                    _matmul_cipher(x_a, state.enc_v_own), parties[a_name],
                    "B", ch, f"{tag}.fwd.XV_{a_name}", cfg.mask_scale,
                )
            if local("B"):
                eps_b[a_name] = he2ss_split(
                    _matmul_cipher(x_b, self._b.enc_v_b[a_name]), b, a_name,
                    ch, f"{tag}.fwd.XVB_{a_name}", cfg.mask_scale,
                )
        # Pass 2 — the share receives; A(i) releases Z_i right after its own.
        xva_share: dict[str, np.ndarray] = {}
        for a_name in a_names:
            if local(a_name):
                z_a = (
                    matmul_any(x_by_party[a_name], self._a[a_name].u)
                    + eps_a[a_name]
                    + he2ss_receive(
                        parties[a_name], ch, f"{tag}.fwd.XVB_{a_name}"
                    )
                )
                ch.send(
                    a_name, b.name, f"{tag}.fwd.Z_{a_name}", z_a,
                    MessageKind.OUTPUT_SHARE,
                )
            if local("B"):
                xva_share[a_name] = he2ss_receive(
                    b, ch, f"{tag}.fwd.XV_{a_name}"
                )
        if not local("B"):
            return None
        # Pass 3 — B collects every Z_i (B contributing U_B / M each time)
        # and sums in a_names order, whatever order the spokes answered in.
        m = len(a_names)
        z_total = None
        for a_name in a_names:
            z_i = (
                ch.recv(b.name, f"{tag}.fwd.Z_{a_name}")
                + matmul_any(x_b, self._b.u / m)
                + eps_b[a_name]
                + xva_share[a_name]
            )
            z_total = z_i if z_total is None else z_total + z_i
        return z_total

    # ----------------------------------------------------------------- backward

    def backward(self, grad_z: np.ndarray | None) -> None:
        """Algorithm 3, MultiPartyMatMulBw (gradient sharing per A party).

        ``grad_z`` is only meaningful where B is local (the loss gradient
        exists at B); pass ``None`` on A-only endpoints.
        """
        local = self.ctx.is_local
        if local("B"):
            if self._b.x_cache is None:
                raise RuntimeError("backward before forward")
        elif any(s.x_cache is None for s in self._a.values()):
            raise RuntimeError("backward before forward")
        if self._pending_a or self._pending_b:
            raise RuntimeError("pending updates not applied; call apply_updates")
        tag = f"{self.name}.{self._step}"
        cfg, ch = self._cfg, self.ctx.channel
        b = self.ctx.B
        if local("B"):
            grad_z = np.asarray(grad_z, dtype=np.float64).reshape(
                -1, self.out_dim
            )
            enc_gz = CryptoTensor.encrypt(b.public_key, grad_z, obfuscate=True)
            self._pending_b = {
                "gw_b": t_matmul_any(self._b.x_cache, grad_z),
                "shares": {},
            }
            # Every spoke gets gZ before B blocks on the first gW.
            for a_name in self.ctx.a_names:
                ch.send(
                    b.name, a_name, f"{tag}.bwd.gZ_{a_name}", enc_gz,
                    MessageKind.CIPHERTEXT,
                )
        for a_name in self.ctx.a_names:
            a = self.ctx.parties[a_name]
            if local(a_name):
                state = self._a[a_name]
                enc_gz_at_a = ch.recv(a_name, f"{tag}.bwd.gZ_{a_name}")
                enc_gw = _t_matmul_cipher(state.x_cache, enc_gz_at_a)
                phi = he2ss_split(
                    enc_gw, a, "B", ch, f"{tag}.bwd.gW_{a_name}",
                    cfg.grad_mask_scale,
                )
                self._pending_a[a_name] = phi
            if local("B"):
                self._pending_b["shares"][a_name] = he2ss_receive(
                    b, ch, f"{tag}.bwd.gW_{a_name}"
                )

    def apply_updates(self, lr: float, momentum: float) -> None:
        if not (self._pending_a or self._pending_b):
            return
        tag = f"{self.name}.{self._step}"
        b, ch = self.ctx.B, self.ctx.channel
        local = self.ctx.is_local
        for a_name in self.ctx.a_names:
            if local(a_name):
                state = self._a[a_name]
                _momentum_update(
                    state.u, state.vel_u, self._pending_a[a_name], lr,
                    momentum, None,
                )
            if local("B"):
                _momentum_update(
                    self._b.v_a[a_name],
                    self._b.vel_v_a[a_name],
                    self._pending_b["shares"][a_name],
                    lr,
                    momentum,
                    None,
                )
                fresh = CryptoTensor.encrypt(
                    b.public_key, self._b.v_a[a_name], obfuscate=True
                )
                ch.send(
                    b.name, a_name, f"{tag}.upd.encV_{a_name}", fresh,
                    MessageKind.CIPHERTEXT,
                )
            if local(a_name):
                state = self._a[a_name]
                state.enc_v_own = ch.recv(a_name, f"{tag}.upd.encV_{a_name}")
        if local("B"):
            _momentum_update(
                self._b.u, self._b.vel_u, self._pending_b["gw_b"], lr,
                momentum, None,
            )
        self.zero_pending()

    def zero_pending(self) -> None:
        self._pending_a: dict[str, np.ndarray] = {}  # phi per local A(i)
        self._pending_b: dict = {}  # B's local gradient + received shares

    # ------------------------------------------------------------- checkpointing

    def checkpoint_state(self) -> tuple:
        """Codec-serialisable snapshot of this endpoint's slice of the layer.

        Only *local* actors' state is captured — an A(i) endpoint snapshots
        its own pieces plus the cached ``[[V_A(i)]]_B`` ciphertext, the key
        owner snapshots ``U_B`` and every ``V_A(i)``/``[[V_B(i)]]_{A(i)}``
        — together with the step counter the protocol tags derive from.
        Batch-transient state (``x_cache``, pendings) is provably stale at
        the batch boundaries checkpoints are written on and is reset by
        :meth:`load_checkpoint_state`.
        """
        a_section = [
            (name, st.u, st.v_b, st.vel_u, st.enc_v_own)
            for name, st in sorted(self._a.items())
        ]
        b_section = (
            None
            if self._b is None
            else (
                self._b.u,
                self._b.vel_u,
                sorted(self._b.v_a.items()),
                sorted(self._b.vel_v_a.items()),
                sorted(self._b.enc_v_b.items()),
            )
        )
        return ("mp-matmul", self._step, a_section, b_section)

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, a_section, b_section = state
        if kind != "mp-matmul":
            raise ValueError(
                f"layer {self.name!r} is a multi-party MatMul source but "
                f"the checkpoint holds a {kind!r} layer"
            )
        saved_a = {str(name): rest for name, *rest in a_section}
        if set(saved_a) != set(self._a):
            raise ValueError(
                f"layer {self.name!r}: checkpoint covers A parties "
                f"{sorted(saved_a)} but this endpoint hosts "
                f"{sorted(self._a)}"
            )
        if (self._b is None) != (b_section is None):
            raise ValueError(
                f"layer {self.name!r}: checkpoint and endpoint disagree on "
                f"hosting Party B"
            )
        self._step = int(step)
        for name, st in self._a.items():
            u, v_b, vel_u, enc_v_own = saved_a[name]
            u = np.asarray(u, dtype=np.float64)
            if u.shape != st.u.shape:
                raise ValueError(
                    f"layer {self.name!r}: checkpoint piece shape {u.shape} "
                    f"does not match the model's {st.u.shape}"
                )
            st.u = u
            st.v_b = np.asarray(v_b, dtype=np.float64)
            st.vel_u = np.asarray(vel_u, dtype=np.float64)
            st.enc_v_own = enc_v_own
            st.x_cache = None
        if self._b is not None:
            u, vel_u, v_a, vel_v_a, enc_v_b = b_section
            u = np.asarray(u, dtype=np.float64)
            if u.shape != self._b.u.shape:
                raise ValueError(
                    f"layer {self.name!r}: checkpoint U_B shape {u.shape} "
                    f"does not match the model's {self._b.u.shape}"
                )
            saved_v_a = {str(k): v for k, v in v_a}
            if set(saved_v_a) != set(self._b.v_a):
                raise ValueError(
                    f"layer {self.name!r}: checkpoint V_A pieces cover "
                    f"{sorted(saved_v_a)} but the model manages "
                    f"{sorted(self._b.v_a)}"
                )
            self._b.u = u
            self._b.vel_u = np.asarray(vel_u, dtype=np.float64)
            self._b.v_a = {
                k: np.asarray(v, dtype=np.float64) for k, v in saved_v_a.items()
            }
            self._b.vel_v_a = {
                str(k): np.asarray(v, dtype=np.float64) for k, v in vel_v_a
            }
            self._b.enc_v_b = {str(k): v for k, v in enc_v_b}
            self._b.x_cache = None
        self.zero_pending()

    # -------------------------------------------------------------- introspection

    def federated_parameters(self) -> list[FederatedParameter]:
        params = [
            FederatedParameter(
                f"{self.name}.W_{a}", a, (self.in_dims[a], self.out_dim),
                {"U": a, "V": "B"},
            )
            for a in self.ctx.a_names
        ]
        holders = {"U": "B"}
        for a in self.ctx.a_names:
            holders[f"V({a})"] = a
        params.append(
            FederatedParameter(
                f"{self.name}.W_B", "B", (self.in_b, self.out_dim), holders
            )
        )
        return params

    def local_weight_pieces(self) -> dict[str, np.ndarray]:
        """This endpoint's plaintext weight pieces, keyed for reassembly.

        ``A(i)`` contributes ``U_{A(i)}`` and ``VB_{A(i)}``; B contributes
        ``U_B`` and every ``V_{A(i)}``.  A *test-side* global observer can
        reassemble ``W_{A(i)} = U_{A(i)} + V_{A(i)}`` and ``W_B = U_B +
        sum_i VB_{A(i)}`` by pooling the pieces of all endpoints — no
        single endpoint ever holds both pieces of a weight.
        """
        out: dict[str, np.ndarray] = {}
        for a_name, state in self._a.items():
            out[f"U_{a_name}"] = np.array(state.u)
            out[f"VB_{a_name}"] = np.array(state.v_b)
        if self._b is not None:
            out["U_B"] = np.array(self._b.u)
            for a_name, v_a in self._b.v_a.items():
                out[f"V_{a_name}"] = np.array(v_a)
        return out

    def reveal_weights(self) -> dict[str, np.ndarray]:
        """TEST/DEBUG ONLY — global-observer reconstruction (all-local)."""
        if self._b is None or len(self._a) != len(self.ctx.a_names):
            raise RuntimeError(
                "reveal_weights needs every party local; on a fabric "
                "endpoint pool local_weight_pieces() across endpoints"
            )
        out = {
            f"W_{a}": self._a[a].u + self._b.v_a[a] for a in self.ctx.a_names
        }
        out["W_B"] = self._b.u + sum(self._a[a].v_b for a in self.ctx.a_names)
        return out


class MultiPartyLR:
    """Logistic regression over M Party A's + Party B (Appendix C).

    A thin model wrapper around :class:`MultiPartyMatMulSource` with a bias
    term at Party B, exposing the same forward/backward/step cadence as the
    two-party models (see ``examples/multiparty_lr.py`` for the loop).
    Loss, labels and bias live at Party B only: on endpoints where B is
    remote, :meth:`forward` and :meth:`train_step` return ``None``.
    """

    def __init__(self, ctx: VFLContext, in_dims: dict[str, int], in_b: int):
        self.ctx = ctx
        self.source = MultiPartyMatMulSource(ctx, in_dims, in_b, 1, name="mp-lr")
        self.bias = 0.0
        self._vel_bias = 0.0

    def checkpoint_state(self) -> tuple:
        """Bias term (Party B state, but a float travels harmlessly) plus
        the source layer's per-endpoint snapshot."""
        return (
            float(self.bias),
            float(self._vel_bias),
            self.source.checkpoint_state(),
        )

    def load_checkpoint_state(self, state: tuple) -> None:
        bias, vel_bias, source_state = state
        self.source.load_checkpoint_state(source_state)
        self.bias = float(bias)
        self._vel_bias = float(vel_bias)

    def forward(
        self, x_by_party: dict[str, object], train: bool = True
    ) -> np.ndarray | None:
        """Logits at Party B for an aligned multi-party batch."""
        z = self.source.forward(x_by_party, train=train)
        if z is None:  # non-B endpoint: logits only materialise at B
            return None
        return z + self.bias

    def train_step(
        self,
        x_by_party: dict[str, object],
        labels: np.ndarray | None,
        lr: float,
        momentum: float = 0.9,
    ) -> float | None:
        """One BCE step; returns the training loss (``None`` off Party B)."""
        logits = self.forward(x_by_party, train=True)
        loss = None
        grad_z = None
        if logits is not None:
            y = np.asarray(labels, dtype=np.float64).reshape(logits.shape)
            probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
            loss = float(
                np.mean(
                    np.maximum(logits, 0)
                    - logits * y
                    + np.log1p(np.exp(-np.abs(logits)))
                )
            )
            grad_z = (probs - y) / y.shape[0]
        self.source.backward(grad_z)
        self.source.apply_updates(lr, momentum)
        if grad_z is not None:
            self._vel_bias = momentum * self._vel_bias + float(grad_z.sum())
            self.bias -= lr * self._vel_bias
        return loss
