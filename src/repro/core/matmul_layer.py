"""The MatMul federated source layer — Figure 6 of the paper, written per actor.

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

Actor programs
--------------
Appendix C's Algorithm 3 is this figure run once per ``A(i)`` (B
contributing ``U_B / M``), so the protocol is written once, as a *spoke*
program (:class:`_Spoke`, one ``A(i)``) and a *hub* program (:class:`_Hub`,
Party B) under the contract of :mod:`repro.core.multiparty`;
:class:`MatMulSource` is the one-spoke case of their driver and
:class:`~repro.core.multiparty.MultiPartyMatMulSource` the M-spoke case,
differing in public surface only (signatures, tag spelling, checkpoint
section shape).
"""

from __future__ import annotations

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import Party, VFLContext
from repro.crypto.crypto_tensor import (
    CryptoTensor,
    matmul_plain_cipher,  # noqa: F401  (an alias the frozen e2e shim test reads)
)
from repro.crypto.packing import PackedCryptoTensor
from repro.crypto.secret_sharing import he2ss_receive
from repro.core.federated import PIECE_STD, FederatedParameter, SourceLayer, momentum_update
from repro.obs import tracer as _obs
from repro.tensor.sparse import CSRMatrix, matmul_any, t_matmul_any

__all__ = ["MatMulSource"]

HUB = "B"  # the key owner every spoke talks to


def _load_piece(layer: SourceLayer, saved: object, resident: np.ndarray) -> np.ndarray:
    """A checkpointed plaintext piece, refused if the model shapes it otherwise."""
    saved = np.asarray(saved, dtype=np.float64)
    if saved.shape != resident.shape:
        raise ValueError(
            f"layer {layer.name!r}: checkpoint piece shape {saved.shape} "
            f"does not match the model's {resident.shape}"
        )
    return saved


class _Actor:
    """What a spoke and the hub share: one party's handles and batch state.

    ``layer`` supplies the packing policy (``_encrypt_piece``, ``_he2ss``),
    the config and the tag spelling — never another party.
    """

    def __init__(self, layer: _StarMatMul, party: Party):
        self.layer, self.party, self.ch = layer, party, layer.ctx.channel
        self.name = party.name
        self.x_cache: object = None  # the training batch backward contracts with
        self.pending: dict = {}

    def _split(self, enc_v, x: object, train: bool, key_owner: str, tag: str) -> np.ndarray:
        """Lines 5-6: ``[[X V]] -> <eps, X V - eps>``; returns ``eps``.

        Only a training batch is kept for the backward; an inference pass
        clears the cache, so a ``backward`` after it is refused instead of
        contracting with the previous batch.
        """
        self.x_cache = x if train else None
        product = enc_v.rmatmul(x)
        scale = self.layer._cfg.mask_scale
        return self.layer._he2ss(product, self.party, key_owner, tag, scale)


class _Spoke(_Actor):
    """One ``A(i)``: ``U_A(i)``, its ``V_B(i)`` and the cached ``[[V_A(i)]]_B``
    (``vel_v_b`` only moves under the Appendix B backward,
    :mod:`repro.core.federated_top`)."""

    def __init__(self, layer: _StarMatMul, party: Party, in_a: int, in_b: int,
                 n_spokes: int):
        super().__init__(layer, party)
        # Figure 6 lines 1-2 at A: draw U_A, then the piece of W_B it manages
        # (one of M, so Algorithm 3 scales it by 1 / sqrt(M)).
        self.u = party.rng.normal(0.0, PIECE_STD, size=(in_a, layer.out_dim))
        self.v_b = party.rng.normal(
            0.0, PIECE_STD / np.sqrt(n_spokes), size=(in_b, layer.out_dim)
        )
        self.vel_u, self.vel_v_b = np.zeros_like(self.u), np.zeros_like(self.v_b)
        self.enc_v_own: CryptoTensor | PackedCryptoTensor | None = None

    def _tag(self, prefix: str, stem: str) -> str:
        return self.layer._tag(prefix, stem, self.name)

    def init_send(self) -> None:
        """Lines 3-4: ``V_B(i)`` leaves under A(i)'s *own* key (in lanes when
        packing pays: that is how the forward matmul consumes it)."""
        fresh = self.layer._encrypt_piece(self.party.public_key, self.v_b)
        self.ch.send(self.name, HUB, self._tag(self.layer.name, "init.encVB"),
                     fresh, MessageKind.CIPHERTEXT)

    def init_recv(self) -> None:
        self.enc_v_own = self.ch.recv(self.name, self._tag(self.layer.name, "init.encV"))

    def fwd_split(self, prefix: str, x: object, train: bool) -> None:
        self._eps = self._split(self.enc_v_own, x, train, HUB, self._tag(prefix, "fwd.XV"))

    def fwd_share(self, prefix: str, x: object, release: bool) -> np.ndarray:
        """Line 7: A's output share; line 8 releases it (B is entitled to Z)."""
        share = he2ss_receive(self.party, self.ch, self._tag(prefix, "fwd.XVB"))
        z_a = matmul_any(x, self.u) + self._eps + share
        if release:
            self.ch.send(self.name, HUB, self._tag(prefix, "fwd.Z"), z_a,
                         MessageKind.OUTPUT_SHARE)
        return z_a

    def bwd(self, prefix: str) -> None:
        """Line 10: ``X_A^T [[gZ]] -> <phi, grad_W_A - phi>``."""
        enc_gz = self.ch.recv(self.name, self._tag(prefix, "bwd.gZ"))
        x, support = self.x_cache, None
        if self.layer._cfg.share_refresh == "delta":
            # Sparse-aware: only the column support of a CSR batch carries
            # gradient; restrict the crypto to those coordinates.  B awaits
            # the support every step — None for a dense batch, which B can
            # already tell from gW's shape.
            if isinstance(x, CSRMatrix):
                support = x.column_support()
            self.ch.send(self.name, HUB, self._tag(prefix, "bwd.support"), support,
                         MessageKind.PUBLIC)
        enc_gw = enc_gz.t_rmatmul(x, columns=support)
        tag, scale = self._tag(prefix, "bwd.gW"), self.layer._cfg.grad_mask_scale
        phi = self.layer._he2ss(enc_gw, self.party, HUB, tag, scale)
        self.pending = {"phi": phi, "support": support}

    def update(self, prefix: str, lr: float, momentum: float) -> None:
        """Line 12 at A: ``U_A`` takes ``phi``; then the ``[[V_A]]`` refresh lands."""
        support = self.pending["support"]
        momentum_update(self.u, self.vel_u, self.pending["phi"], lr, momentum, support)
        if support is None:
            self.enc_v_own = self.ch.recv(self.name, self._tag(prefix, "upd.encV"))
        else:
            fresh_rows = self.ch.recv(self.name, self._tag(prefix, "upd.dV"))
            if self.layer._piece_layout(self.party.peer_key(HUB)) is None:
                fresh_rows = self.enc_v_own.take_rows(support) + fresh_rows
            self.enc_v_own.set_rows(support, fresh_rows)
        self.pending = {}

    def state(self) -> tuple:
        return (self.u, self.v_b, self.vel_u, self.vel_v_b, self.enc_v_own)

    def load(self, u, v_b, vel_u, vel_v_b, enc_v_own) -> None:
        u = _load_piece(self.layer, u, self.u)
        self.layer._check_restored_form("[[V]]", enc_v_own, self.enc_v_own)
        self.u, self.v_b = u, np.asarray(v_b, dtype=np.float64)
        self.vel_u = np.asarray(vel_u, dtype=np.float64)
        self.vel_v_b = np.asarray(vel_v_b, dtype=np.float64)
        self.enc_v_own, self.x_cache, self.pending = enc_v_own, None, {}


class _Hub(_Actor):
    """Party B: ``U_B`` and, per spoke, ``V_A(i)`` and the cached ``[[V_B(i)]]``."""

    def __init__(self, layer: _StarMatMul, party: Party, in_b: int):
        super().__init__(layer, party)
        self._tag = layer._tag
        self.u = party.rng.normal(0.0, PIECE_STD, size=(in_b, layer.out_dim))
        self.vel_u = np.zeros_like(self.u)
        self.v_a: dict[str, np.ndarray] = {}
        self.vel_v_a: dict[str, np.ndarray] = {}
        self.enc_v_b: dict[str, CryptoTensor | PackedCryptoTensor] = {}
        self._eps: dict[str, np.ndarray] = {}
        self._xva: dict[str, np.ndarray] = {}

    def init_send(self, spoke: str, in_a: int) -> None:
        """Lines 1-4 at B: draw ``V_A(i)``, ship it under B's own key."""
        v_a = self.party.rng.normal(0.0, PIECE_STD, size=(in_a, self.layer.out_dim))
        self.v_a[spoke], self.vel_v_a[spoke] = v_a, np.zeros_like(v_a)
        fresh = self.layer._encrypt_piece(self.party.public_key, v_a)
        self.ch.send(HUB, spoke, self._tag(self.layer.name, "init.encV", spoke),
                     fresh, MessageKind.CIPHERTEXT)

    def init_recv(self, spoke: str) -> None:
        tag = self._tag(self.layer.name, "init.encVB", spoke)
        self.enc_v_b[spoke] = self.ch.recv(HUB, tag)

    def fwd_split(self, prefix: str, spoke: str, x_b: object, train: bool) -> None:
        tag = self._tag(prefix, "fwd.XVB", spoke)
        self._eps[spoke] = self._split(self.enc_v_b[spoke], x_b, train, spoke, tag)

    def fwd_recv(self, prefix: str, spoke: str) -> None:
        tag = self._tag(prefix, "fwd.XV", spoke)
        self._xva[spoke] = he2ss_receive(self.party, self.ch, tag)

    def share(self, spoke: str, x_b: object, head: np.ndarray | None = None) -> np.ndarray:
        """Line 7 at B for round ``i``: ``X_B U_B / M + eps_B + (X_A V_A - eps_A)``,
        summed left to right (onto ``head`` when one is given)."""
        total = matmul_any(x_b, self.u / len(self.v_a))
        if head is not None:
            total = head + total
        return total + self._eps[spoke] + self._xva[spoke]

    def collect(self, prefix: str, spoke: str, x_b: object) -> np.ndarray:
        """Line 8 at B: the released ``Z_i`` plus B's share of round ``i``.

        Algorithm 3 adds B's terms onto ``Z_i`` one by one, Figure 6 forms
        B's share first; float addition does not associate, so the layer
        says which (``_Z_HEADS_SUM``) and both stay float-exact.
        """
        z_i = self.ch.recv(HUB, self._tag(prefix, "fwd.Z", spoke))
        if self.layer._Z_HEADS_SUM:
            return self.share(spoke, x_b, head=z_i)
        return z_i + self.share(spoke, x_b)

    def bwd_send(self, prefix: str, grad_z: np.ndarray) -> None:
        """Line 9: B encrypts the derivatives once (label protection, Req 3),
        in lanes where a spoke's ``X^T [[gZ]]`` can ship its packed product as
        is, and every spoke gets them before B blocks on the first ``gW``."""
        grad_z = np.asarray(grad_z, dtype=np.float64).reshape(-1, self.layer.out_dim)
        pk = self.party.public_key
        tags = {a: self._tag(prefix, "bwd.gZ", a) for a in self.v_a}
        with _obs.span("encrypt", party=HUB, tag=next(iter(tags.values()))):
            enc_gz = self.layer._encrypt_as(pk, grad_z, self.layer._lane_layout(pk))
        for spoke, tag in tags.items():
            self.ch.send(HUB, spoke, tag, enc_gz, MessageKind.CIPHERTEXT)
        self.pending = {
            "gw_b": t_matmul_any(self.x_cache, grad_z),  # line 11, local at B
            "shares": {},
            "support": {},
        }

    def bwd_recv(self, prefix: str, spoke: str) -> None:
        """Line 10 at B: ``grad_W_A(i) - phi`` (and the support it covers)."""
        if self.layer._cfg.share_refresh == "delta":
            tag = self._tag(prefix, "bwd.support", spoke)
            self.pending["support"][spoke] = self.ch.recv(HUB, tag)
        tag = self._tag(prefix, "bwd.gW", spoke)
        self.pending["shares"][spoke] = he2ss_receive(self.party, self.ch, tag)

    def update(self, prefix: str, spoke: str, lr: float, momentum: float) -> None:
        """Line 12 at B: ``V_A(i)`` takes the complementary piece, then A(i)'s
        cached ``[[V_A(i)]]_B`` is refreshed."""
        v_a, pk = self.v_a[spoke], self.party.public_key
        support = self.pending["support"].get(spoke)
        # Delta mode refreshes the touched rows only.  Packed lanes cannot be
        # patched additively without spending guard bits every step, so B
        # re-encrypts those rows (same wire cost as an encrypted delta) and A
        # swaps them in; a per-element copy takes the encrypted delta, added
        # at A.
        additive = support is not None and self.layer._piece_layout(pk) is None
        before = v_a[support] if additive else None
        momentum_update(v_a, self.vel_v_a[spoke], self.pending["shares"][spoke],
                        lr, momentum, support)
        # Without a support this is the faithful Figure 6 refresh.
        stem, rows = ("upd.encV", v_a) if support is None else ("upd.dV", v_a[support])
        if additive:
            rows = rows - before
        self.ch.send(HUB, spoke, self._tag(prefix, stem, spoke),
                     self.layer._encrypt_piece(pk, rows), MessageKind.CIPHERTEXT)

    def update_own(self, lr: float, momentum: float) -> None:
        """Line 11: B's own weights take the full (plaintext) gradient."""
        momentum_update(self.u, self.vel_u, self.pending["gw_b"], lr, momentum, None)
        self.pending = {}

    def load(self, u, vel_u, v_a: dict, vel_v_a: dict, enc_v_b: dict) -> None:
        u = _load_piece(self.layer, u, self.u)
        if set(v_a) != set(self.v_a):
            raise ValueError(
                f"layer {self.layer.name!r}: checkpoint V_A pieces cover "
                f"{sorted(v_a)} but the model manages {sorted(self.v_a)}"
            )
        for spoke, saved in enc_v_b.items():
            self.layer._check_restored_form("[[V]]", saved, self.enc_v_b[spoke])
        self.u, self.vel_u = u, np.asarray(vel_u, dtype=np.float64)
        self.v_a = {k: np.asarray(v, dtype=np.float64) for k, v in v_a.items()}
        self.vel_v_a = {k: np.asarray(v, dtype=np.float64) for k, v in vel_v_a.items()}
        self.enc_v_b = dict(enc_v_b)
        self.x_cache, self.pending = None, {}


class _StarMatMul(SourceLayer):
    """Driver of the one MatMul protocol: this process's actors, pass by pass.

    Subclasses are the public layers; they supply ``_tag(prefix, stem,
    spoke)`` (the tag spelling) and lay the actors' state out in their own
    checkpoint shape.
    """

    def __init__(self, ctx: VFLContext, in_dims: dict[str, int], in_b: int,
                 out_dim: int, name: str):
        if min(*in_dims.values(), in_b, out_dim) <= 0:
            raise ValueError("dimensions must be positive")
        self.ctx, self.name, self._cfg = ctx, name, ctx.config
        self.in_dims, self.in_b, self.out_dim = dict(in_dims), in_b, out_dim
        self._step = 0
        hosted = [p for p in (*in_dims, HUB) if ctx.is_local(p)]
        # Actors exist only where their party is local — an A(i) endpoint
        # never holds B's plaintext pieces nor advances B's RNG stream.
        self._b = _Hub(self, ctx.parties[HUB], in_b) if HUB in hosted else None
        self._spokes = {
            a: _Spoke(self, ctx.parties[a], in_a, in_b, len(in_dims))
            for a, in_a in in_dims.items() if a in hosted
        }
        self._actors = [*self._spokes.values(), *([] if self._b is None else [self._b])]
        # Per spoke in a_names order: its name and the local actors of its
        # round with B (None for one this process does not host).
        self._rounds = [(a, self._spokes.get(a), self._b) for a in in_dims]
        # Init: every [[V]] send is computable from local state, so all of
        # them go out before the first blocking receive.
        for a, spoke, hub in self._rounds:
            if spoke:
                spoke.init_send()
            if hub:
                hub.init_send(a, in_dims[a])
        for a, spoke, hub in self._rounds:
            if spoke:
                spoke.init_recv()
            if hub:
                hub.init_recv(a)

    def _packing_contraction(self) -> int:
        return max(*self.in_dims.values(), self.in_b, 2)

    def _next_tag(self) -> str:
        self._step += 1
        return f"{self.name}.{self._step}"

    def _forward_shares(self, tag: str, x_by_party: dict[str, object], train: bool,
                        release: bool) -> dict[str, np.ndarray]:
        """Figure 6 lines 5-8 up to B's collect; returns the local spokes' shares.

        ``x_by_party`` need only cover this process's parties.
        """
        # The backward transfer contracts over the batch dimension; a batch
        # deeper than the packed layouts budgeted for must fail loudly now.
        # Inference passes never run that contraction, so they are exempt.
        if train:
            local = self._actors[0].name
            self._check_packing_depth(np.shape(x_by_party[local])[0])
        # Pass 1 — everything computable from local state: each actor's
        # product and its HE2SS split (a send).
        for a, spoke, hub in self._rounds:
            if spoke:
                spoke.fwd_split(tag, x_by_party[a], train)
            if hub:
                hub.fwd_split(tag, a, x_by_party[HUB], train)
        # Pass 2 — the share receives; A(i) releases Z_i right after its own.
        z_a = {}
        for a, spoke, hub in self._rounds:
            if spoke:
                z_a[a] = spoke.fwd_share(tag, x_by_party[a], release)
            if hub:
                hub.fwd_recv(tag, a)
        return z_a

    def _forward(self, x_by_party: dict[str, object], train: bool) -> np.ndarray | None:
        """Figure 6 lines 5-8; Z at Party B, ``None`` where B is remote."""
        tag = self._next_tag()
        with _obs.span("fw_transfer", tag=tag):
            self._forward_shares(tag, x_by_party, train, release=True)
            if self._b is None:
                return None
            # Pass 3 — B collects every Z_i and sums in a_names order,
            # whatever order the spokes answered in.
            z_total = None
            for a in self.in_dims:
                z_i = self._b.collect(tag, a, x_by_party[HUB])
                z_total = z_i if z_total is None else z_total + z_i
            return z_total

    def _run_backward(self, grad_z: np.ndarray | None) -> None:
        """Figure 6 lines 9-11: ``gZ`` to every spoke before the first ``gW``."""
        if any(actor.x_cache is None for actor in self._actors):
            raise RuntimeError("backward before forward (or inference-only forward)")
        if any(actor.pending for actor in self._actors):
            raise RuntimeError("pending updates not applied; call apply_updates")
        tag = f"{self.name}.{self._step}"
        with _obs.span("bw_transfer", tag=tag):
            if self._b is not None:
                self._b.bwd_send(tag, grad_z)
            for a, spoke, hub in self._rounds:
                if spoke:
                    spoke.bwd(tag)
                if hub:
                    hub.bwd_recv(tag, a)

    def _run_updates(self, lr: float, momentum: float) -> None:
        """Figure 6 lines 11-12 plus the ``[[V_A]]`` refresh."""
        if not any(actor.pending for actor in self._actors):
            return
        tag = f"{self.name}.{self._step}"
        for a, spoke, hub in self._rounds:
            if hub:
                hub.update(tag, a, lr, momentum)
            if spoke:
                spoke.update(tag, lr, momentum)
        if self._b is not None:
            self._b.update_own(lr, momentum)

    def zero_pending(self) -> None:
        for actor in self._actors:
            actor.pending = {}

    def _restore(self, kind: str, step: int, spokes: dict[str, tuple], hub: tuple | None) -> None:
        """Load actor states (``_Spoke.load`` / ``_Hub.load`` argument tuples)
        once the public class has read them out of its checkpoint shape."""
        if kind != self._KIND:
            raise ValueError(
                f"layer {self.name!r} is a {self._KIND!r} source but the "
                f"checkpoint holds a {kind!r} layer"
            )
        saved = sorted(spokes) + ([] if hub is None else [HUB])
        hosted = sorted(actor.name for actor in self._actors)
        if saved != hosted:
            raise ValueError(
                f"layer {self.name!r}: checkpoint covers parties {saved} but "
                f"this endpoint hosts {hosted}"
            )
        self._step = int(step)
        for a, state in spokes.items():
            self._spokes[a].load(*state)
        if hub is not None:
            self._b.load(*hub)


class MatMulSource(_StarMatMul):
    """Federated ``Z = X_A W_A + X_B W_B`` for numerical features."""

    _KIND = "matmul"  # checkpoint section kind
    _Z_HEADS_SUM = False  # Z = Z_A + (B's share), as Figure 6 line 8 writes it
    # Figure 6 names one Party A and spells B's side without a spoke suffix.
    _B_SIDE = {"init.encVB": "init.encV_B", "fwd.XVB": "fwd.XV_B",
               "bwd.gZ": "bwd.gZ", "bwd.support": "bwd.support"}

    def __init__(
        self,
        ctx: VFLContext,
        in_a: int,
        in_b: int,
        out_dim: int,
        name: str = "matmul",
    ):
        self.in_a = in_a
        self._a_name = ctx.a_names[0]
        super().__init__(ctx, {self._a_name: in_a}, in_b, out_dim, name)

    @classmethod
    def _tag(cls, prefix: str, stem: str, spoke: str) -> str:
        return f"{prefix}.{cls._B_SIDE.get(stem) or stem + '_A'}"

    @property
    def _a(self) -> _Spoke | None:
        return self._spokes.get(self._a_name)

    # ------------------------------------------------------------------ forward

    def forward(
        self,
        x_a: np.ndarray | CSRMatrix | None,
        x_b: np.ndarray | CSRMatrix | None,
        train: bool = True,
    ) -> np.ndarray | None:
        """Figure 6 lines 5-8; returns Z at Party B.

        On an endpoint that hosts one party only, the other party's batch is
        never read (pass ``None``) and Z is ``None`` where B is remote.
        """
        return self._forward({self._a_name: x_a, HUB: x_b}, train)

    def forward_shares(
        self, x_a: np.ndarray | CSRMatrix, x_b: np.ndarray | CSRMatrix, train: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Appendix B variant: keep <Z'_A, Z'_B> secret-shared (no release).

        Used when a *federated* top model follows the source layer, so not
        even Party B sees Z.  All-local only, like the Appendix B backward.
        """
        tag = self._next_tag()
        with _obs.span("fw_transfer", tag=tag):
            z_a = self._forward_shares(
                tag, {self._a_name: x_a, HUB: x_b}, train, release=False
            )
            return z_a[self._a_name], self._b.share(self._a_name, x_b)

    def backward(self, grad_z: np.ndarray | None) -> None:
        """Figure 6 lines 9-10: secretly share grad_W_A; compute grad_W_B."""
        self._run_backward(grad_z)

    def apply_updates(self, lr: float, momentum: float) -> None:
        """Figure 6 lines 11-12 plus the [[V_A]] refresh."""
        self._run_updates(lr, momentum)

    # --------------------------------------------------------------- checkpoint

    def checkpoint_state(self) -> tuple:
        """Codec-serialisable snapshot of this layer at a batch boundary.

        Pieces, velocities and the cached encrypted peer pieces (live
        ciphertext payloads — the codec carries those natively) plus the
        step counter the protocol tags derive from; ``None`` for a party
        this process does not host.  Batch-transient state (``x_cache``,
        ``pending``) is provably stale between batches and is *not*
        captured; :meth:`load_checkpoint_state` resets it.
        """
        a, hub = self._a_name, self._b
        side_a = None if self._a is None else self._a.state()
        side_b = None if hub is None else (
            hub.u, hub.v_a[a], hub.vel_u, hub.vel_v_a[a], hub.enc_v_b[a]
        )
        return (self._KIND, self._step, side_a, side_b)

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, side_a, side_b = state
        a, hub = self._a_name, None
        if side_b is not None:
            u, v_a, vel_u, vel_v_a, enc_v_b = side_b
            hub = (u, vel_u, {a: v_a}, {a: vel_v_a}, {a: enc_v_b})
        self._restore(kind, step, {} if side_a is None else {a: side_a}, hub)

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
            "W_A": self._a.u + self._b.v_a[self._a_name],
            "W_B": self._b.u + self._a.v_b,
        }

    def piece_views(self) -> dict[str, np.ndarray]:
        """The pieces each party can see (for the Figure 11 analysis)."""
        return {
            "A.U_A": self._a.u,
            "A.V_B": self._a.v_b,
            "B.U_B": self._b.u,
            "B.V_A": self._b.v_a[self._a_name],
        }
