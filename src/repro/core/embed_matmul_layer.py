"""The Embed-MatMul federated source layer — Figure 7 of the paper, written per end.

Computes ``Z = E_A @ W_A + E_B @ W_B`` where ``E_x = lkup(Q_x, X_x)`` is an
embedding lookup over categorical fields, satisfying every restriction of
Table 3.  Beyond the MatMul layer's sharing of the weights, the embedding
tables themselves are secretly shared — ``Q_x = S_x + T_x`` with ``S_x`` at
the owner and ``T_x`` at the peer — so *neither party can even perform its
own lookup in the clear*:

* the forward lookup runs against the local plaintext piece ``S`` and the
  *encrypted* peer piece ``[[T]]`` (categorical indices stay local, which is
  exactly why data outsourcing cannot do this, §3), then HE2SS splits the
  result so the embedding entries exist only as shares ``<psi, E - psi>``;
* the backward pass computes ``[[grad_E]]`` homomorphically, performs the
  scatter-add ``lkup_bw`` *inside the ciphertext*, and shares the table
  gradient ``<rho, grad_Q - rho>``, updating ``S``/``T`` complementarily.

Each party owns a bank of categorical fields; per-field vocabularies are
packed into one offset-indexed table per party, matching how WDL/DLRM
implementations lay out embedding storage.

**One crossing per direction per phase.**  With ``E_x = psi_x + e_x``
(``psi_x`` at the owner, ``e_x = E_x - psi_x`` at the peer) and ``W_x = U_x +
V_x``, the output ``Z = (psi_A + e_A)(U_A + V_A) + (psi_B + e_B)(U_B + V_B)``
has exactly one cross term per direction.  Each end therefore keeps one
plaintext *cross operand* ``P = [psi_own | e_peer]`` and one resident
ciphertext operand ``[[V_own ; U_peer]]`` under the peer's key, which the peer
stacks from the two plaintext pieces it holds and encrypts (and refreshes) as
one piece:

* **forward, Figure 7 lines 8 + 9** (``Z'_1`` from the ``psi`` pieces, ``Z'_2``
  from the ``E - psi`` pieces): ``P @ [[V_own ; U_peer]]`` is one product, one
  mask at ``mask_scale``, one HE2SS and one decrypt at the peer; the holder
  keeps ``P @ [U_own ; V_peer] + eps``;
* **backward, lines 13-16** (``<phi, grad_W_A - phi>`` and ``<xi, grad_W_B -
  xi>``): ``P_A^T @ [[gZ]]`` is one stacked product over ``[[gZ]]``'s one set
  of power tables and one HE2SS whose mask rows are ``phi`` and ``xi``; B
  splits the decrypted rows into its ``grad_W_A`` and ``grad_W_B`` shares.
  The stacked rows are *not* summed — they feed different gradients — so
  this saves frames, tables and per-call work, not ciphertexts.

*Why this is Figure 7's security.*  The key owner used to see ``v_1 -
eps_1`` and ``v_2 - eps_2`` and only ever added them; it now sees ``v_1 + v_2
- eps``, a deterministic function of that old view, so any simulator for
Figure 7 yields one for this protocol.  The mask is uniform at the same
``mask_scale`` / ``grad_mask_scale``, and the statistical distance ``|v_1 +
v_2| / scale`` is within the old protocol's union bound over its two
transfers.  Every outgoing ciphertext still gets a fresh blinder and a packed
payload's ``value_bits`` is still canonicalised before the wire
(:func:`repro.crypto.secret_sharing.he2ss_split`).

*Forms* are public shape rules (:meth:`EmbedMatMulSource._cross_keys`).
B computes ``gZ V_A^T`` in the clear, so A never transposes ``[[V_A]]``: A's
operand always stacks, as a ``[[U]]`` piece, and A holds no ``[[V^T]]``.  B
transposes ``[[V_B]]`` (line 21), so its operand stacks only where both
halves have one form: per element, or in lanes beside a packed ``[[V_B^T]]``
(:meth:`EmbedMatMulSource._v_in_lanes`).  Where ``[[U_A]]`` packs and
``[[V_B]]`` cannot, they stay two resident pieces and the per-element product
is lifted into the packed product's row lanes and added: still one transfer.

End programs
------------
Figure 7 is symmetric, so like every source layer (the contract of
:mod:`repro.core.matmul_layer`) the protocol is one *end* program
(:class:`_End`) run at A and at B, touching its own state, ``Party`` and the
channel; :class:`EmbedMatMulSource` drives the ends this process hosts.
Only B holds ``gZ``, so its line-12 encryptions and each role's ``grad_E``
rows are role-specific.  Every pass sends what local state allows before its
first receive, so a step is as deep as its data dependencies, 6 messages
(``lkT_A -> cross_B -> Z_A -> gZ -> crossT -> upd.VU_A``); the passes fix
only the interleaving across directed pairs — each pair's frames and each
party's RNG draws follow Figure 7's order.
"""

from __future__ import annotations

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import Party, VFLContext
from repro.crypto.crypto_tensor import (
    PLAIN_EXPONENT,
    TENSOR_EXPONENT,
    CryptoTensor,
    matmul_cipher_plain,
    matmul_plain_cipher,
)
from repro.crypto.secret_sharing import he2ss_receive
from repro.core.federated import FederatedParameter, SourceLayer, momentum_update
from repro.obs import tracer as _obs

__all__ = ["EmbedMatMulSource"]

HUB = "B"  # the key owner: it alone holds gZ and is entitled to Z

# Checkpoint order of an end's plaintext and encrypted slots, the latter with
# the names a refused restore gives them.
_PLAIN_SLOTS = (
    "s", "t_peer", "u", "v_peer", "vel_s", "vel_t_peer", "vel_u", "vel_v_peer"
)
_ENC_SLOTS = {
    "enc_t_own": "[[T]]", "enc_cross": "[[V ; U]]", "enc_v_own": "[[V]]",
    "enc_vt_own": "[[V^T]]",
}
# Which slot an encrypted piece lands in, by the kind its tag names.
_RESIDENT = {
    "T": "enc_t_own", "VU": "enc_cross", "U": "enc_cross", "V": "enc_v_own",
    "Vt": "enc_vt_own",
}


class _End:
    """One party's end of Figure 7, the same program at A and at B.

    Holds ``s``, ``t_peer``, ``u``, ``v_peer`` and their velocities; under the
    peer's key ``enc_t_own = [[T_own]]``, ``enc_cross = [[V_own ; U_peer]]``
    (``[[U_peer]]`` alone, ``enc_v_own`` beside it, where B's halves differ in
    form) and at B, where lanes pay, ``enc_vt_own = [[V_own^T]]``; per batch
    ``flat_idx``, ``cross = P = [psi_own | e_peer]`` and ``pending``.
    """

    def __init__(self, layer: EmbedMatMulSource, party: Party, peer: str,
                 vocab: list[int], peer_vocab: list[int]):
        self.layer, self.party, self.ch = layer, party, layer.ctx.channel
        self.name, self.peer, self.peer_key = party.name, peer, party.peer_key(peer)
        self.vocab = np.asarray(vocab, dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.vocab)[:-1]))
        # Figure 7 lines 1-4: S_own, T_peer, U_own, V_peer, in this order.
        emb, out, std = layer.emb_dim, layer.out_dim, layer._piece_std
        self.s, self.t_peer, self.u, self.v_peer = (
            party.rng.normal(0.0, std, size=shape) for shape in (
                (int(self.vocab.sum()), emb), (int(sum(peer_vocab)), emb),
                (len(vocab) * emb, out), (len(peer_vocab) * emb, out),
            )
        )
        self.vel_s, self.vel_t_peer, self.vel_u, self.vel_v_peer = (
            np.zeros_like(p) for p in (self.s, self.t_peer, self.u, self.v_peer)
        )
        self.enc_t_own = self.enc_cross = self.enc_v_own = self.enc_vt_own = None
        self.flat_idx = self.cross = None
        self.pending: dict = {}

    def _peer_pieces(self) -> dict:
        """The peer's cross operand ``[V_peer ; U_own]`` as the plaintext
        pieces this end encrypts for it, by tag key."""
        pieces = {}
        for key in self.layer._cross_keys(self.peer, self.name, self.party.public_key):
            kind = key.split("_")[0]
            pieces[key] = (
                np.vstack([self.v_peer, self.u]) if kind == "VU"
                else self.u if kind == "U" else self.v_peer
            )
        return pieces

    def _send_pieces(self, prefix: str, pieces: dict) -> None:
        """Encrypt every piece under this party's key and send it to the peer."""
        for key, arr in pieces.items():
            fresh = self.layer._encrypt(self.party.public_key, key, arr)
            self.ch.send(self.name, self.peer, f"{prefix}.{key}", fresh, MessageKind.CIPHERTEXT)

    def _recv_pieces(self, prefix: str, keys) -> None:
        """Install the received pieces in the slots they land in."""
        for key in keys:
            setattr(self, _RESIDENT[key.split("_")[0]], self.ch.recv(self.name, f"{prefix}.{key}"))

    def _own_keys(self) -> tuple[str, ...]:
        return self.layer._cross_keys(self.name, self.peer, self.peer_key)

    def init_send(self, prefix: str) -> None:
        """Lines 3-4: ``[[T_peer]]`` and the peer's cross operand leave under
        this party's key."""
        self._send_pieces(prefix, {f"T_{self.peer}": self.t_peer, **self._peer_pieces()})

    def init_recv(self, prefix: str) -> None:
        self._recv_pieces(prefix, (f"T_{self.name}", *self._own_keys()))

    def flat_indices(self, x_cat: np.ndarray) -> np.ndarray:
        """Rows of this party's offset-indexed table, ids range-checked per field."""
        x_cat = np.asarray(x_cat, dtype=np.int64)
        if x_cat.ndim != 2 or x_cat.shape[1] != self.vocab.shape[0]:
            raise ValueError(
                f"{self.layer.name}: expected (batch, {self.vocab.shape[0]}) categorical"
            )
        bad = np.argwhere((x_cat < 0) | (x_cat >= self.vocab[None, :]))
        if bad.size:
            row, fld = bad[0]
            raise IndexError(
                f"{self.layer.name}: party {self.name} field {fld} holds id "
                f"{x_cat[row, fld]}, outside its vocabulary of {self.vocab[fld]}"
            )
        return (x_cat + self.offsets[None, :]).ravel()

    def fwd_lookup(self, tag: str, flat: np.ndarray, train: bool) -> None:
        """Lines 5-7 here: ``[[T_own]]`` rows -> ``<eps, lkup(T) - eps>``, and
        ``psi = eps + lkup(S)`` (the peer gets ``E - psi``)."""
        batch = flat.shape[0] // self.vocab.shape[0]
        lk_enc = self.enc_t_own.take_rows(flat).reshape(batch, -1)
        eps = self.layer._he2ss(
            lk_enc, self.party, self.peer, f"{tag}.fwd.lkT_{self.name}",
            self.layer._cfg.mask_scale,
        )
        self._psi = eps + self.s[flat].reshape(batch, -1)
        self.flat_idx = flat if train else None

    def fwd_cross(self, tag: str, train: bool) -> None:
        """Lines 8 + 9 as the one cross term a direction has: this end holds
        ``P = [psi_own | e_peer]``, keeps ``P @ [U_own ; V_peer] + eps`` and the
        peer decrypts ``P @ [V_own ; U_peer] - eps``."""
        e_peer = he2ss_receive(self.party, self.ch, f"{tag}.fwd.lkT_{self.peer}")
        cross = np.hstack([self._psi, e_peer])
        tag = f"{tag}.fwd.cross_{self.name}"
        eps = self.layer._he2ss(
            self._cross_product(cross, tag), self.party, self.peer, tag,
            self.layer._cfg.mask_scale,
        )
        self._kept = cross @ np.vstack([self.u, self.v_peer]) + eps
        self.cross = cross if train else None

    def _cross_product(self, cross: np.ndarray, tag: str):
        """``P @ [[V_own ; U_peer]]`` — one product against the stacked operand."""
        if self.enc_v_own is None:
            return self.enc_cross.rmatmul(cross)
        # The two halves differ in form (B's end, [[U]] in lanes and [[V]] per
        # element): the per-element product is lifted into the packed one's
        # row lanes — the Horner lift its own HE2SS would have done — under
        # the bound the layout designs for a product of that many terms, and
        # added.
        own = self.enc_v_own.shape[0]
        packed = self.enc_cross.rmatmul(cross[:, own:])
        product = self.enc_v_own.rmatmul(cross[:, :own])
        with _obs.span("pack", party=self.name, tag=tag):
            lifted = product.pack(
                packed.layout, value_bits=packed.layout.acc_operand_bits_for(own)
            )
        return packed + lifted

    def fwd_share(self, tag: str, release: bool) -> np.ndarray:
        """This end's share of Z (line 10); with ``release``, lines 10-11: A
        sends its share and B, entitled to Z, adds it to its own."""
        z = self._kept + he2ss_receive(self.party, self.ch, f"{tag}.fwd.cross_{self.peer}")
        if release and self.name == HUB:
            return self.ch.recv(HUB, f"{tag}.fwd.Z_{self.peer}") + z
        if release:
            self.ch.send(self.name, HUB, f"{tag}.fwd.Z_{self.name}", z, MessageKind.OUTPUT_SHARE)
        return z

    def bwd_send(self, tag: str, grad_z: np.ndarray) -> None:
        """At B, from local state alone: line 12 — B encrypts ``gZ`` and ``gZ
        V_A^T`` (it holds ``V_A``) — then its own ``grad_E`` rows through
        ``lkup_bw`` (lines 21-23)."""
        layer, pk, emb = self.layer, self.party.public_key, self.layer.emb_dim
        grad_z = np.asarray(grad_z, dtype=np.float64).reshape(-1, layer.out_dim)
        # A's plain @ cipher product (lines 13-16) takes [[gZ]] in lanes along
        # out_dim, its cipher @ plain (line 21) per element: where lanes pay it
        # travels in both forms, each encrypted from the plaintext.  [[gZ
        # V_A^T]] is only added to gradient rows and travels as them: in their
        # lanes, or per element at their exponent (a product's, a public
        # constant; rounded at TENSOR_EXPONENT either way), so A's add is a
        # mulmod instead of a 2^32 power per ciphertext.
        gz_lanes = layer._lane_layout(pk)
        rows_lanes = layer._piece_layout(pk, width=emb)
        gzva = grad_z @ self.v_peer.T
        with _obs.span("encrypt", party=self.name, tag=f"{tag}.bwd.gZ"):
            sends = {"gZ": CryptoTensor.encrypt(pk, grad_z, obfuscate=True)}
            if rows_lanes is not None:
                sends["gZVA"] = layer._encrypt_as(pk, gzva.reshape(-1, emb), rows_lanes)
            else:
                sends["gZVA"] = CryptoTensor.zeros(
                    pk, gzva.shape, TENSOR_EXPONENT + PLAIN_EXPONENT
                ).add_plain(gzva, TENSOR_EXPONENT, obfuscate=True)
            if gz_lanes is not None:
                sends["gZ.lanes"] = layer._encrypt_as(pk, grad_z, gz_lanes)
        for stem, ct in sends.items():
            self.ch.send(self.name, self.peer, f"{tag}.bwd.{stem}", ct, MessageKind.CIPHERTEXT)
        self._grad_z = grad_z
        self._lkup_bw(tag, self._rows_from_plain_gz(tag, grad_z))

    def bwd_recv(self, tag: str) -> None:
        """Lines 13-16 as one crossing: A's stacked ``P_A^T @ [[gZ]]`` under one
        mask (``phi`` over ``xi``), to which B adds its own ``P_B^T gZ =
        [psi_B^T gZ ; e_A^T gZ]``; then A's ``lkup_bw``, then the peer's ``gQ``."""
        own_rows, peer_rows = self.u.shape[0], self.v_peer.shape[0]
        if self.name == HUB:
            crossed = he2ss_receive(self.party, self.ch, f"{tag}.bwd.crossT")
            own = self.cross.T @ self._grad_z
            g_u = own[:own_rows] + crossed[peer_rows:]
            g_v_peer = own[own_rows:] + crossed[:peer_rows]
        else:
            enc_gz, enc_gzva = (
                self.ch.recv(self.name, f"{tag}.bwd.{stem}") for stem in ("gZ", "gZVA")
            )
            gz_operand = enc_gz
            if self.layer._lane_layout(self.peer_key) is not None:
                gz_operand = self.ch.recv(self.name, f"{tag}.bwd.gZ.lanes")
            ct = gz_operand.rmatmul(self.cross.T)
            mask = self.layer._he2ss(
                ct, self.party, self.peer, f"{tag}.bwd.crossT", self.layer._cfg.grad_mask_scale
            )
            g_u, g_v_peer = mask[:own_rows], mask[own_rows:]
            self._lkup_bw(tag, self._rows_from_cipher_gz(tag, enc_gz, enc_gzva))
        touched_peer = None
        if self.layer._cfg.share_refresh == "delta":
            touched_peer = self.ch.recv(self.name, f"{tag}.bwd.touched_{self.peer}")
        self.pending.update(
            g_u=g_u, g_v_peer=g_v_peer, touched_peer=touched_peer,
            # grad_Q_peer - rho_peer (updates T_peer)
            gq_peer=he2ss_receive(self.party, self.ch, f"{tag}.bwd.gQ_{self.peer}"),
        )

    def _rows_from_cipher_gz(self, tag: str, enc_gz, enc_gzva):
        """Line 21 at A: ``[[grad_E_A]]_B = [[gZ]] U_A^T + [[gZ V_A^T]]``, the
        rows in lanes along emb_dim where those pay (so lkup_bw and its HE2SS
        run on ``slots``-fold fewer ciphertexts).  The lifted product promises
        all but the last bit of the (out_dim + 1)-term row budget, which the
        lane add spends: a batch past the designed depth raises here."""
        layer = self.layer
        lanes = layer._piece_layout(self.peer_key, width=layer.emb_dim)
        rows = matmul_cipher_plain(enc_gz, self.u.T)
        rows = rows.reshape(-1, layer.emb_dim)
        if lanes is not None:
            with _obs.span("pack", party=self.name, tag=f"{tag}.bwd.gQ_{self.name}"):
                rows = rows.pack(
                    lanes, value_bits=lanes.acc_operand_bits_for(layer.out_dim + 1) - 1
                )
        return rows + enc_gzva.reshape(-1, layer.emb_dim)

    def _rows_from_plain_gz(self, tag: str, grad_z: np.ndarray):
        """Line 21 at B: ``[[grad_E_B]]_A = gZ [[V_B^T]]_A + gZ U_B^T`` — a
        packed product with a live lane bound when ``V_B^T`` is in lanes, else
        a per-element one lifted under the full row-budget promise."""
        layer, emb = self.layer, self.layer.emb_dim
        if self.enc_vt_own is not None:
            rows = self.enc_vt_own.rmatmul(grad_z)
            return (rows + grad_z @ self.u.T).reshape(-1, emb)
        enc_v = self.enc_v_own
        if enc_v is None:  # the top rows of the per-element stack
            enc_v = self.enc_cross.take_rows(np.arange(self.u.shape[0]))
        rows = matmul_plain_cipher(grad_z, enc_v.T)
        rows = (rows + grad_z @ self.u.T).reshape(-1, emb)
        lanes = layer._piece_layout(self.peer_key, width=emb)
        if lanes is None:
            return rows
        with _obs.span("pack", party=self.name, tag=f"{tag}.bwd.gQ_{self.name}"):
            bits = lanes.acc_operand_bits_for(layer.out_dim + 1)
            return rows.pack(lanes, value_bits=bits)

    def _lkup_bw(self, tag: str, rows) -> None:
        """Lines 22-23 here: encrypted lkup_bw, then ``<rho, grad_Q_own - rho>``."""
        cfg, gq_tag = self.layer._cfg, f"{tag}.bwd.gQ_{self.name}"
        with _obs.span("lkup_bw", party=self.name, tag=gq_tag):
            touched, index, num_rows = None, self.flat_idx, self.s.shape[0]
            if cfg.share_refresh == "delta":
                touched, index = np.unique(self.flat_idx, return_inverse=True)
                num_rows = touched.shape[0]
                self.ch.send(self.name, self.peer, f"{tag}.bwd.touched_{self.name}",
                             touched, MessageKind.PUBLIC)
            # ``obfuscate_empty=False``: the scatter result goes straight into
            # ``_he2ss`` below, which homomorphically adds a *freshly blinded*
            # mask encryption to every ciphertext — untouched rows are
            # re-randomised at the party boundary anyway, so paying a blinder
            # per untouched table cell here would be pure waste on large
            # vocabularies.
            enc_gq = rows.scatter_add_rows(index, num_rows=num_rows, obfuscate_empty=False)
            rho = self.layer._he2ss(enc_gq, self.party, self.peer, gq_tag, cfg.grad_mask_scale)
        self.pending.update(rho=rho, touched_own=touched)  # rho updates S_own

    def update(self, prefix: str, lr: float, momentum: float) -> None:
        """Lines 17-20 and 24-26 here, then the peer's refresh: its cross
        operand, stacked as at init, and its table piece."""
        p = self.pending
        # Weight pieces are always dense (the W matrices are small), table
        # pieces possibly restricted to the touched rows.
        momentum_update(self.u, self.vel_u, p["g_u"], lr, momentum, None)
        momentum_update(self.v_peer, self.vel_v_peer, p["g_v_peer"], lr, momentum, None)
        momentum_update(self.s, self.vel_s, p["rho"], lr, momentum, p["touched_own"])
        momentum_update(
            self.t_peer, self.vel_t_peer, p["gq_peer"], lr, momentum, p["touched_peer"]
        )
        pieces = self._peer_pieces()
        if p["touched_peer"] is None:
            pieces[f"T_{self.peer}"] = self.t_peer
        else:
            # Only touched table rows changed: re-encrypt just those, in the
            # resident copy's form; the peer *replaces* them (a packed copy's
            # lanes cannot be patched additively without spending a guard bit
            # per step — see the wire-format spec).
            self._send_pieces(prefix, {f"dT_{self.peer}": self.t_peer[p["touched_peer"]]})
        self._send_pieces(prefix, pieces)

    def update_recv(self, prefix: str) -> None:
        """Install the refresh the peer sent."""
        keys, touched = self._own_keys(), self.pending["touched_own"]
        if touched is None:
            keys += (f"T_{self.name}",)
        else:
            self.enc_t_own.set_rows(touched, self.ch.recv(self.name, f"{prefix}.dT_{self.name}"))
        self._recv_pieces(prefix, keys)
        self.pending = {}

    def state(self) -> tuple:
        return tuple(getattr(self, slot) for slot in (*_PLAIN_SLOTS, *_ENC_SLOTS))

    def restored(self, saved: tuple) -> dict:
        """A checkpoint side as slot values, refused by name if this end's
        model builds any piece in another shape or form."""
        name = self.layer.name
        if len(saved) != len(_PLAIN_SLOTS) + len(_ENC_SLOTS):
            raise ValueError(
                f"layer {name!r}: checkpoint holds [[U]] and [[V]] as separate "
                f"pieces (a section written before the cross operand [[V ; U]] "
                f"was stacked); it cannot continue here"
            )
        vals = dict(zip((*_PLAIN_SLOTS, *_ENC_SLOTS), saved))
        for slot, value in vals.items():
            resident = getattr(self, slot)
            if slot in _ENC_SLOTS:
                self.layer._check_restored_form(_ENC_SLOTS[slot], value, resident)
            else:
                value = vals[slot] = np.asarray(value, dtype=np.float64)
            shapes = [getattr(t, "shape", None) for t in (value, resident)]
            if shapes[0] != shapes[1]:
                raise ValueError(
                    f"layer {name!r}: checkpoint piece {_ENC_SLOTS.get(slot, slot)} "
                    f"has shape {shapes[0]} but the model's is {shapes[1]}"
                )
        return vals

    def load(self, vals: dict) -> None:
        for slot, value in vals.items():
            setattr(self, slot, value)
        self.flat_idx = self.cross = None
        self.pending = {}


class EmbedMatMulSource(SourceLayer):
    """Federated ``Z = lkup(Q_A, X_A) W_A + lkup(Q_B, X_B) W_B``: the driver
    of this process's ends, phase by phase."""

    def __init__(
        self,
        ctx: VFLContext,
        vocab_a: list[int],
        vocab_b: list[int],
        emb_dim: int,
        out_dim: int,
        init_scale: float = 0.05,
        name: str = "embed",
    ):
        if emb_dim <= 0 or out_dim <= 0 or not vocab_a or not vocab_b:
            raise ValueError("invalid Embed-MatMul dimensions")
        self.ctx, self.name, self._cfg, self._step = ctx, name, ctx.config, 0
        self.emb_dim, self.out_dim = emb_dim, out_dim
        self.vocab_a, self.vocab_b = list(vocab_a), list(vocab_b)
        self.total_a, self.total_b = sum(self.vocab_a), sum(self.vocab_b)
        self.flat_in_a = len(vocab_a) * emb_dim
        self.flat_in_b = len(vocab_b) * emb_dim
        self._piece_std = init_scale / np.sqrt(2.0)
        # Ends exist only where their party is local — an A endpoint never
        # holds B's plaintext pieces nor advances B's RNG stream.
        self._a_name = ctx.a_names[0]
        vocab = {self._a_name: self.vocab_a, HUB: self.vocab_b}
        peer = {self._a_name: HUB, HUB: self._a_name}
        self._ends = [
            _End(self, ctx.parties[p], peer[p], vocab[p], vocab[peer[p]])
            for p in (self._a_name, HUB) if ctx.is_local(p)
        ]
        ends = {end.name: end for end in self._ends}
        self._a, self._b = ends.get(self._a_name), ends.get(HUB)
        # Init: every piece is sent before the first receive.
        for end in self._ends:
            end.init_send(f"{name}.init")
        for end in self._ends:
            end.init_recv(f"{name}.init")

    def _v_in_lanes(self, public_key) -> bool:
        """Whether B's V piece under ``public_key`` travels as two packed forms.

        ``psi @ [[V]]`` wants lanes along ``out_dim``, ``gZ @ [[V^T]]`` along
        ``emb_dim``.  Sending both pays when both widths take lanes and the
        two forms are no more ciphertexts than the per-element piece:
        ``ceil(O/s)/O + ceil(E/s)/E <= 1`` — a public shape rule.
        """
        by_out = self._lane_layout(public_key)
        by_emb = self._piece_layout(public_key, width=self.emb_dim)
        if by_out is None or by_emb is None:
            return False
        o, e = self.out_dim, self.emb_dim
        return by_out.ct_count(o) * e + by_emb.ct_count(e) * o <= o * e

    def _cross_keys(self, end: str, peer: str, public_key) -> tuple[str, ...]:
        """Tag keys of end ``end``'s cross operand ``[V_end ; U_peer]``, as its
        peer encrypts it under ``public_key`` (the module docstring's forms)."""
        if end == HUB:  # B transposes [[V_B]] (line 21)
            if self._v_in_lanes(public_key):
                return (f"VU_{end}", f"Vt_{end}")
            if self._piece_layout(public_key) is not None:
                return (f"V_{end}", f"U_{peer}")
        return (f"VU_{end}",)

    def _encrypt(self, public_key, key: str, arr: np.ndarray):
        """Encrypt piece ``key`` ("T_A", "dT_A", "VU_A", "Vt_B", ...) in its resident form.

        With packing on, the cross operands (and a lone ``U``) — only ever
        ``plain @ cipher`` right operands — travel and live packed along the
        output dimension, and the T pieces along the embedding dimension:
        lanes never span table rows, and the segment-aware reshape regroups
        whole row segments, so the ``take_rows -> reshape`` lookup pipeline
        is pure ciphertext-slice bookkeeping on the packed form.  ``Vt`` is
        ``(out_dim * fields, emb_dim)`` rows in the T layout regrouped to
        ``(out_dim, flat_in)``; a lone ``V`` is per element, its transpose a
        view.
        """
        kind = key.split("_")[0]
        if kind == "V":
            return self._encrypt_as(public_key, arr, None)
        if kind == "Vt":
            rows = arr.T.reshape(-1, self.emb_dim)
            return self._encrypt_piece(public_key, rows, width=self.emb_dim).reshape(
                self.out_dim, -1
            )
        width = self.out_dim if kind in ("VU", "U") else self.emb_dim
        return self._encrypt_piece(public_key, arr, width=width)

    def _packing_contraction(self) -> int:
        return self.flat_in_a + self.flat_in_b

    def _packing_depth(self) -> int:
        # The backward scatter accumulates batch rows that are themselves
        # (out_dim + 1)-deep contractions (gZ @ U^T plus the gZ V^T term);
        # out_dim is known at init, so budget the compound fan-in up front
        # — costing ~log2(out_dim) extra guard bits per slot — and
        # PACKING_DEPTH_FLOOR keeps its meaning of a batch-row floor.  The
        # budget is the exact power of two the step-time bit check sums to,
        # so a batch at the floor always passes even when the floor itself
        # is not a power of two.
        from repro.crypto.packing import _acc_bits

        return max(
            self._packing_contraction(),
            1 << (_acc_bits(self.out_dim + 1) + _acc_bits(self.PACKING_DEPTH_FLOOR)),
        )

    # ------------------------------------------------------------------ forward

    def forward(
        self, x_cat_a: np.ndarray | None, x_cat_b: np.ndarray | None, train: bool = True
    ) -> np.ndarray | None:
        """Figure 7 lines 5-11; returns Z at Party B.

        On an endpoint that hosts one party only, the other party's batch is
        never read (pass ``None``) and Z is ``None`` where B is remote.
        """
        return self._forward(x_cat_a, x_cat_b, train, release=True).get(HUB)

    def forward_shares(
        self, x_cat_a: np.ndarray, x_cat_b: np.ndarray, train: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lines 5-10 only: output stays secret-shared (Appendix B tops)."""
        z = self._forward(x_cat_a, x_cat_b, train, release=False)
        return z[self._a_name], z[HUB]

    def _forward(self, x_cat_a, x_cat_b, train: bool, release: bool) -> dict:
        """Three passes over the local ends; their Z shares by party."""
        x_cat = {self._a_name: x_cat_a, HUB: x_cat_b}
        # An id outside its field would read (and train) a neighbouring
        # field's row: reject the batch before the step counter moves and
        # before anything is drawn or sent.
        flat = {end.name: end.flat_indices(x_cat[end.name]) for end in self._ends}
        batches = {np.asarray(x_cat[end.name]).shape[0] for end in self._ends}
        if len(batches) != 1:
            raise ValueError("parties received differently sized batches")
        # The backward scatter-add accumulates up to ``batch`` rows per lane,
        # each an (out_dim + 1)-term contraction: the compound fan-in must fit
        # the layouts' designed depth or lanes would overflow the guard band.
        # Fail before any ciphertext exists; inference never runs it.
        if train:
            self._check_packing_depth(batches.pop(), row_terms=self.out_dim + 1)
        self._step += 1
        tag = f"{self.name}.{self._step}"
        with _obs.span("fw_transfer", tag=tag):
            for end in self._ends:
                end.fwd_lookup(tag, flat[end.name], train)
            for end in self._ends:
                end.fwd_cross(tag, train)
            return {end.name: end.fwd_share(tag, release) for end in self._ends}

    # ----------------------------------------------------------------- backward

    def backward(self, grad_z: np.ndarray | None) -> None:
        """Figure 7 lines 12-16 and 21-23: share every gradient.

        ``grad_z`` is only read where B is local; pass ``None`` elsewhere.
        """
        if any(end.cross is None for end in self._ends):
            raise RuntimeError("backward before forward (or inference-only forward)")
        if any(end.pending for end in self._ends):
            raise RuntimeError("pending updates not applied; call apply_updates")
        tag = f"{self.name}.{self._step}"
        with _obs.span("bw_transfer", tag=tag):
            if self._b is not None:  # B's sends need nothing from A
                self._b.bwd_send(tag, grad_z)
            for end in self._ends:
                end.bwd_recv(tag)

    # --------------------------------------------------------------------- step

    def apply_updates(self, lr: float, momentum: float) -> None:
        """Figure 7 lines 17-20 and 24-26, plus all encrypted-copy refreshes."""
        if not any(end.pending for end in self._ends):
            return
        tag = f"{self.name}.{self._step}.upd"
        for end in self._ends:
            end.update(tag, lr, momentum)
        for end in self._ends:
            end.update_recv(tag)

    def zero_pending(self) -> None:
        for end in self._ends:
            end.pending = {}

    # --------------------------------------------------------------- checkpoint

    def checkpoint_state(self) -> tuple:
        """Codec-serialisable snapshot of this layer at a batch boundary.

        Per end (``None`` for a party this process does not host): the eight
        plaintext pieces and velocities, then ``[[T]]``, the cross operand,
        and at B the lone ``[[V]]`` or the ``[[V^T]]`` in lanes where its
        shapes hold one (``None`` otherwise).  Batch-transient state
        (``flat_idx``, ``cross``, ``pending``) is reset on load; the static
        ``offsets`` come back with the rebuilt layer.
        """
        sides = (None if end is None else end.state() for end in (self._a, self._b))
        return ("embed", self._step, *sides)

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, *sides = state
        if kind != "embed":
            raise ValueError(
                f"layer {self.name!r} is an Embed-MatMul source but the "
                f"checkpoint holds a {kind!r} layer"
            )
        saved = [p for p, side in zip((self._a_name, HUB), sides) if side is not None]
        hosted = [end.name for end in self._ends]
        if saved != hosted:
            raise ValueError(
                f"layer {self.name!r}: checkpoint covers parties {saved} but "
                f"this endpoint hosts {hosted}"
            )
        # Every side is checked before any is installed.
        restored = [
            end.restored(side)
            for end, side in zip(self._ends, [s for s in sides if s is not None])
        ]
        self._step = int(step)
        for end, vals in zip(self._ends, restored):
            end.load(vals)

    # -------------------------------------------------------------- introspection

    def federated_parameters(self) -> list[FederatedParameter]:
        shapes = {
            "Q": ((self.total_a, self.emb_dim), (self.total_b, self.emb_dim)),
            "W": ((self.flat_in_a, self.out_dim), (self.flat_in_b, self.out_dim)),
        }
        return [  # Q_x = S_x + T_x and W_x = U_x + V_x, the first piece at x
            FederatedParameter(f"{self.name}.{t}_{x}", x, shapes[t][i], {own: x, peer: y})
            for t, own, peer in (("Q", "S", "T"), ("W", "U", "V"))
            for i, (x, y) in enumerate((("A", "B"), ("B", "A")))
        ]

    def reveal_weights(self) -> dict[str, np.ndarray]:
        """TEST/DEBUG ONLY — global-observer reconstruction (see MatMul)."""
        return {
            "Q_A": self._a.s + self._b.t_peer,
            "Q_B": self._b.s + self._a.t_peer,
            "W_A": self._a.u + self._b.v_peer,
            "W_B": self._b.u + self._a.v_peer,
        }

    def piece_views(self) -> dict[str, np.ndarray]:
        """Per-party visible pieces (Figure 11 analysis)."""
        return {
            "A.S_A": self._a.s,
            "A.U_A": self._a.u,
            "B.T_A": self._b.t_peer,
            "B.S_B": self._b.s,
        }
