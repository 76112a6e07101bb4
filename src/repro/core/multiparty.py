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
The protocol itself is not written here: it is the spoke and hub *actor
programs* of :mod:`repro.core.matmul_layer`, the lines the two-party layer
runs (``M = 1`` is Figure 6 draw for draw), so packing, the delta refresh,
and the transfer spans apply to both layers.  A
phase method of an actor touches that actor's own state, its own ``Party``
(RNG, keys) and the channel — local compute, ``send``, ``recv`` — and
nothing else; the driver builds the actors of the parties this process
hosts and calls their phases.  All-local that is every actor; on a fabric
endpoint (:mod:`repro.comm.fabric`) a remote actor's state is never
constructed and its RNG stream never drawn from, because nobody's method
asks for them.  Per-party *draw order* is what bit-identity of losses and
weights depends on — blinders never survive decryption, and HE2SS masks
cancel exactly in the weight-piece sums.

Program order: send early, receive late
---------------------------------------
Written spoke by spoke, one ``train_step`` of the star around B is a chain
of ``4M + 1`` dependent messages although its data dependencies need 5 at
any ``M``: ``XVB_i -> Z_i -> gZ_i -> gW_i -> upd.encV_i``.  So every phase
of the driver obeys one contract: **every actor issues all sends computable
from local state before its first blocking receive of the phase, and sums
are taken in** ``a_names`` **order**.  Init sends every ``[[V]]`` before
the first receive (spoke before hub within a round, as Figure 6 writes it);
the forward is three passes over ``a_names`` (every product and HE2SS
split; every share receive, ``A(i)`` releasing ``Z_i`` right after its
own; B's ``Z_i`` receives and the sum); the backward sends ``gZ`` to every
spoke before the first ``gW`` receive.  Only the interleaving of different
directed pairs ever moved: each party's draw order, every frame's tag and
bytes and each directed pair's FIFO sequence are those of the
spoke-by-spoke order (``tests/data/program_order.json``), so
losses are float-exact against it.  The depth is a counted tier-1 gate
(:func:`repro.obs.collect.critical_path`).
"""

from __future__ import annotations

import numpy as np

from repro.comm.party import VFLContext
from repro.core.federated import FederatedParameter
from repro.core.matmul_layer import _StarMatMul
from repro.tensor.sparse import CSRMatrix

__all__ = ["MultiPartyMatMulSource", "MultiPartyLR"]


class MultiPartyMatMulSource(_StarMatMul):
    """``Z = sum_i X_A(i) W_A(i) + X_B W_B`` with M Party A's."""

    _KIND = "mp-matmul"  # checkpoint section kind
    _Z_HEADS_SUM = True  # each round adds B's terms onto the released Z_i

    def __init__(
        self,
        ctx: VFLContext,
        in_dims: dict[str, int],
        in_b: int,
        out_dim: int,
        init_scale: float = 0.05,
        name: str = "mp-matmul",
    ):
        if set(in_dims) != set(ctx.a_names):
            raise ValueError(f"in_dims must cover parties {ctx.a_names}")
        # Algorithm 3, MultiPartyMatMulInit: the spokes in a_names order.
        super().__init__(
            ctx, {a: in_dims[a] for a in ctx.a_names}, in_b, out_dim, init_scale, name
        )
        self._a = self._spokes

    @staticmethod
    def _tag(prefix: str, stem: str, spoke: str) -> str:
        """Algorithm 3 names the spoke in every tag, on both sides."""
        return f"{prefix}.{stem}_{spoke}"

    # ------------------------------------------------------------------ forward

    def forward(
        self, x_by_party: dict[str, np.ndarray | CSRMatrix], train: bool = True
    ) -> np.ndarray | None:
        """Algorithm 3, MultiPartyMatMulFw: sum of pairwise MatMul rounds.

        Returns the summed output shares at Party B; ``None`` on endpoints
        where B is remote (the logits only ever materialise at B).
        ``x_by_party`` need only cover this endpoint's local parties.
        """
        return self._forward(x_by_party, train)

    def backward(self, grad_z: np.ndarray | None) -> None:
        """Algorithm 3, MultiPartyMatMulBw (gradient sharing per A party).

        ``grad_z`` is only meaningful where B is local (the loss gradient
        exists at B); pass ``None`` on A-only endpoints.
        """
        self._run_backward(grad_z)

    def apply_updates(self, lr: float, momentum: float) -> None:
        """Every piece's momentum step at its holder, then the ``[[V_A(i)]]`` refreshes."""
        self._run_updates(lr, momentum)

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
        return (self._KIND, self._step, a_section, b_section)

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, a_section, b_section = state
        spokes = {
            str(name): (u, v_b, vel_u, np.zeros_like(v_b), enc_v_own)
            for name, u, v_b, vel_u, enc_v_own in a_section
        }
        hub = None
        if b_section is not None:
            u, vel_u, *per_spoke = b_section
            hub = (u, vel_u, *({str(k): v for k, v in items} for items in per_spoke))
        self._restore(kind, step, spokes, hub)

    # -------------------------------------------------------------- introspection

    def federated_parameters(self) -> list[FederatedParameter]:
        params = [
            FederatedParameter(
                f"{self.name}.W_{a}", a, (self.in_dims[a], self.out_dim),
                {"U": a, "V": "B"},
            )
            for a in self.in_dims
        ]
        holders = {"U": "B"}
        for a in self.in_dims:
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
        if self._b is None or len(self._a) != len(self.in_dims):
            raise RuntimeError(
                "reveal_weights needs every party local; on a fabric "
                "endpoint pool local_weight_pieces() across endpoints"
            )
        out = {f"W_{a}": self._a[a].u + self._b.v_a[a] for a in self.in_dims}
        out["W_B"] = self._b.u + sum(self._a[a].v_b for a in self.in_dims)
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
