"""The Embed-MatMul federated source layer — Figure 7 of the paper.

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

*Forms* are public shape rules (:meth:`EmbedMatMulSource._cross_pieces`).
B computes ``gZ V_A^T`` in the clear, so A never transposes ``[[V_A]]``: A's
operand always stacks, as a ``[[U]]`` piece, and A holds no ``[[V^T]]``.  B
transposes ``[[V_B]]`` (line 21), so its operand stacks only where both
halves have one form: per element, or in lanes beside a packed ``[[V_B^T]]``
(:meth:`EmbedMatMulSource._v_in_lanes`).  Where ``[[U_A]]`` packs and
``[[V_B]]`` cannot, they stay two resident pieces and the per-element product
is lifted into the packed product's row lanes and added: still one transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.crypto.packing import PackedCryptoTensor
from repro.crypto.parallel import ParallelContext
from repro.crypto.secret_sharing import he2ss_receive
from repro.core.federated import FederatedParameter, SourceLayer, momentum_update
from repro.obs import tracer as _obs

__all__ = ["EmbedMatMulSource"]


@dataclass
class _EmbedState:
    """One party's holdings for this layer (see module docstring)."""

    s: np.ndarray  # own piece of own table Q
    t_peer: np.ndarray  # piece of the *peer's* table
    u: np.ndarray  # own piece of own weights W
    v_peer: np.ndarray  # piece of the peer's weights
    offsets: np.ndarray  # per-field offsets into the packed table
    enc_t_own: CryptoTensor | PackedCryptoTensor  # [[T_own]] under the peer's key
    # [[V_own ; U_peer]] under the peer's key, the forward cross operand —
    # [[U_peer]] alone where B's two halves differ in form, [[V_own]] then
    # resident per element beside it.
    enc_cross: CryptoTensor | PackedCryptoTensor
    enc_v_own: CryptoTensor | None = None
    # [[V_own^T]] as (out_dim, flat_in), at B only and only when V travels in lanes.
    enc_vt_own: PackedCryptoTensor | None = None
    # Velocity buffers are derived from the pieces in __post_init__; they
    # are never constructor arguments and never None after construction.
    vel_s: np.ndarray = field(init=False)
    vel_t_peer: np.ndarray = field(init=False)
    vel_u: np.ndarray = field(init=False)
    vel_v_peer: np.ndarray = field(init=False)
    flat_idx: np.ndarray | None = None
    cross: np.ndarray | None = None  # P = [psi_own | e_peer], e the share of the PEER's E
    pending: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vel_s = np.zeros_like(self.s)
        self.vel_t_peer = np.zeros_like(self.t_peer)
        self.vel_u = np.zeros_like(self.u)
        self.vel_v_peer = np.zeros_like(self.v_peer)


# Checkpoint order of a state's plaintext and encrypted slots, the latter with
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


def _pack_offsets(vocab_sizes: list[int]) -> tuple[np.ndarray, int]:
    offsets = np.zeros(len(vocab_sizes), dtype=np.int64)
    total = 0
    for i, v in enumerate(vocab_sizes):
        offsets[i] = total
        total += int(v)
    return offsets, total


class EmbedMatMulSource(SourceLayer):
    """Federated ``Z = lkup(Q_A, X_A) W_A + lkup(Q_B, X_B) W_B``."""

    def __init__(
        self,
        ctx: VFLContext,
        vocab_a: list[int],
        vocab_b: list[int],
        emb_dim: int,
        out_dim: int,
        init_scale: float = 0.05,
        name: str = "embed",
        parallel: ParallelContext | None = None,
    ):
        if emb_dim <= 0 or out_dim <= 0 or not vocab_a or not vocab_b:
            raise ValueError("invalid Embed-MatMul dimensions")
        self.ctx = ctx
        self.name = name
        # Multicore execution engine for this layer's kernels; None falls
        # back to the process default (see repro.crypto.parallel).
        self.parallel = parallel
        self.emb_dim, self.out_dim = emb_dim, out_dim
        self.vocab_a, self.vocab_b = list(vocab_a), list(vocab_b)
        self._step = 0
        self._cfg = ctx.config
        a, b = ctx.A, ctx.B
        off_a, total_a = _pack_offsets(self.vocab_a)
        off_b, total_b = _pack_offsets(self.vocab_b)
        self.total_a, self.total_b = total_a, total_b
        self.flat_in_a = len(vocab_a) * emb_dim
        self.flat_in_b = len(vocab_b) * emb_dim
        piece = init_scale / np.sqrt(2.0)
        # Figure 7 lines 1-4.  A draws S_A, T_B, U_A, V_B; B draws the
        # symmetric set; A encrypts [[T_B]]_A and [[V_B ; U_A]]_A for B (and
        # vice versa).
        s_a = a.rng.normal(0.0, piece, size=(total_a, emb_dim))
        t_b = a.rng.normal(0.0, piece, size=(total_b, emb_dim))
        u_a = a.rng.normal(0.0, piece, size=(self.flat_in_a, out_dim))
        v_b = a.rng.normal(0.0, piece, size=(self.flat_in_b, out_dim))
        s_b = b.rng.normal(0.0, piece, size=(total_b, emb_dim))
        t_a = b.rng.normal(0.0, piece, size=(total_a, emb_dim))
        u_b = b.rng.normal(0.0, piece, size=(self.flat_in_b, out_dim))
        v_a = b.rng.normal(0.0, piece, size=(self.flat_in_a, out_dim))
        to_b = {"T_B": t_b, **self._cross_pieces("B", v_b, u_a)}
        to_a = {"T_A": t_a, **self._cross_pieces("A", v_a, u_b)}
        self._send_pieces(a, b, f"{name}.init", to_b)
        self._send_pieces(b, a, f"{name}.init", to_a)
        self._a = _EmbedState(
            s=s_a, t_peer=t_b, u=u_a, v_peer=v_b, offsets=off_a,
            **self._recv_pieces(a, f"{name}.init", to_a),
        )
        self._b = _EmbedState(
            s=s_b, t_peer=t_a, u=u_b, v_peer=v_a, offsets=off_b,
            **self._recv_pieces(b, f"{name}.init", to_b),
        )

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

    def _cross_pieces(self, who: str, v: np.ndarray, u: np.ndarray) -> dict:
        """End ``who``'s cross operand ``[V_who ; U_peer]`` as the plaintext
        pieces its peer encrypts, by tag key (the module docstring's forms)."""
        if who == "B":
            key_a = self.ctx.A.public_key
            if self._v_in_lanes(key_a):
                return {"VU_B": np.vstack([v, u]), "Vt_B": v}
            if self._piece_layout(key_a) is not None:
                return {"V_B": v, "U_A": u}
        return {f"VU_{who}": np.vstack([v, u])}

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

    def _send_pieces(self, sender: Party, receiver: Party, prefix: str, pieces) -> None:
        """Encrypt and send every piece (layer init and the full refreshes)."""
        for key, arr in pieces.items():
            self.ctx.channel.send(
                sender.name, receiver.name, f"{prefix}.{key}",
                self._encrypt(sender.public_key, key, arr), MessageKind.CIPHERTEXT,
            )

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

    def _recv_pieces(self, receiver: Party, prefix: str, keys) -> dict:
        """The received pieces by the state slot each lands in."""
        recv = self.ctx.channel.recv
        return {
            _RESIDENT[key.split("_")[0]]: recv(receiver.name, f"{prefix}.{key}")
            for key in keys
        }

    # ------------------------------------------------------------------ helpers

    def _flat_indices(self, who: str, x_cat: np.ndarray) -> np.ndarray:
        """Rows of party ``who``'s offset-indexed table, ids range-checked per field."""
        state = self._party_pair(who)[0]
        vocab = np.asarray(self.vocab_a if who == "A" else self.vocab_b)
        x_cat = np.asarray(x_cat, dtype=np.int64)
        if x_cat.ndim != 2 or x_cat.shape[1] != vocab.shape[0]:
            raise ValueError(
                f"{self.name}: expected (batch, {vocab.shape[0]}) categorical"
            )
        bad = np.argwhere((x_cat < 0) | (x_cat >= vocab[None, :]))
        if bad.size:
            row, fld = bad[0]
            raise IndexError(
                f"{self.name}: party {who} field {fld} holds id {x_cat[row, fld]}, "
                f"outside its vocabulary of {vocab[fld]}"
            )
        return (x_cat + state.offsets[None, :]).ravel()

    def _party_pair(self, who: str) -> tuple[_EmbedState, Party, Party]:
        if who == "A":
            return self._a, self.ctx.A, self.ctx.B
        return self._b, self.ctx.B, self.ctx.A

    # ------------------------------------------------------------------ forward

    def forward(
        self, x_cat_a: np.ndarray, x_cat_b: np.ndarray, train: bool = True
    ) -> np.ndarray:
        """Figure 7 lines 5-11; returns Z at Party B."""
        z_a, z_b = self.forward_shares(x_cat_a, x_cat_b, train=train)
        ch = self.ctx.channel
        tag = f"{self.name}.{self._step}"
        ch.send(
            self.ctx.A.name, self.ctx.B.name, f"{tag}.fwd.Z_A", z_a,
            MessageKind.OUTPUT_SHARE,
        )
        return ch.recv(self.ctx.B.name, f"{tag}.fwd.Z_A") + z_b

    def forward_shares(
        self, x_cat_a: np.ndarray, x_cat_b: np.ndarray, train: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lines 5-10 only: output stays secret-shared (Appendix B tops)."""
        # An id outside its field would read (and train) a neighbouring
        # field's row: reject the batch before the step counter moves and
        # before anything is drawn or sent.
        flat_idx = {
            "A": self._flat_indices("A", x_cat_a), "B": self._flat_indices("B", x_cat_b)
        }
        batch = np.asarray(x_cat_a).shape[0]
        if np.asarray(x_cat_b).shape[0] != batch:
            raise ValueError("parties received differently sized batches")
        # The backward scatter-add accumulates up to ``batch`` gradient
        # rows per lane, each itself a contraction over ``out_dim``
        # products plus the gZ V^T term — the compound fan-in must fit
        # the layouts' designed accumulation depth or lanes would
        # overflow the slot guard band.  Fail loudly now, before any
        # ciphertext is produced.  Inference passes never run that
        # backward, so they are exempt.
        if train:
            self._check_packing_depth(batch, row_terms=self.out_dim + 1)
        self._step += 1
        tag = f"{self.name}.{self._step}"
        with _obs.span("fw_transfer", tag=tag):
            cfg, ch = self._cfg, self.ctx.channel

            # ---- Embed stage (lines 5-7), once per party.
            shares = {}
            for who, flat in flat_idx.items():
                state, me, peer = self._party_pair(who)
                lk_enc = state.enc_t_own.take_rows(flat).reshape(batch, -1)
                eps = self._he2ss(
                    lk_enc, me, peer.name, f"{tag}.fwd.lkT_{who}", cfg.mask_scale
                )
                lk_t_share = he2ss_receive(peer, ch, f"{tag}.fwd.lkT_{who}")
                psi = eps + state.s[flat].reshape(batch, -1)
                shares[who] = (psi, lk_t_share)  # psi at `who`, E-psi at peer
                state.flat_idx = flat if train else None

            # ---- MatMul stage, lines 8 + 9 as the one cross term a direction
            # has: `who` holds P = [psi_who | e_peer] and [[V_who ; U_peer]]
            # under the peer's key, keeps P @ [U_who ; V_peer] + eps and the
            # peer decrypts P @ [V_who ; U_peer] - eps.
            kept, crossed = {}, {}
            for who in ("A", "B"):
                state, me, peer = self._party_pair(who)
                cross = np.hstack([shares[who][0], shares[peer.name][1]])
                eps = self._he2ss(
                    self._cross_product(state, cross, me, f"{tag}.fwd.cross_{who}"),
                    me, peer.name, f"{tag}.fwd.cross_{who}", cfg.mask_scale,
                )
                kept[who] = cross @ np.vstack([state.u, state.v_peer]) + eps
                crossed[peer.name] = he2ss_receive(peer, ch, f"{tag}.fwd.cross_{who}")
                state.cross = cross if train else None
            return kept["A"] + crossed["A"], kept["B"] + crossed["B"]

    def _cross_product(self, state: _EmbedState, cross: np.ndarray, me: Party, tag: str):
        """``P @ [[V_own ; U_peer]]`` — one product against the stacked operand."""
        if state.enc_v_own is None:
            return state.enc_cross.rmatmul(cross, parallel=self.parallel)
        # The two halves differ in form (B's end, [[U]] in lanes and [[V]] per
        # element): the per-element product is lifted into the packed one's
        # row lanes — the Horner lift its own HE2SS would have done — under
        # the bound the layout designs for a product of that many terms, and
        # added.
        own = state.enc_v_own.shape[0]
        packed = state.enc_cross.rmatmul(cross[:, own:], parallel=self.parallel)
        product = state.enc_v_own.rmatmul(cross[:, :own], parallel=self.parallel)
        with _obs.span("pack", party=me.name, tag=tag):
            lifted = product.pack(
                packed.layout, value_bits=packed.layout.acc_operand_bits_for(own),
                parallel=self.parallel,
            )
        return packed + lifted

    # ----------------------------------------------------------------- backward

    def backward(self, grad_z: np.ndarray) -> None:
        """Figure 7 lines 12-16 and 21-23: share every gradient."""
        if self._a.cross is None:
            raise RuntimeError("backward before forward (or inference-only forward)")
        if self._a.pending or self._b.pending:
            raise RuntimeError("pending updates not applied; call apply_updates")
        tag = f"{self.name}.{self._step}"
        with _obs.span("bw_transfer", tag=tag):
            cfg, ch = self._cfg, self.ctx.channel
            a, b = self.ctx.A, self.ctx.B
            grad_z = np.asarray(grad_z, dtype=np.float64).reshape(-1, self.out_dim)

            # Line 12: B encrypts grad_Z and grad_Z V_A^T (it holds V_A).  A's
            # plain @ cipher product (lines 13-16) takes [[gZ]] in lanes along
            # out_dim, its cipher @ plain (line 21) per element: where lanes
            # pay it travels in both forms, each encrypted from the plaintext.
            # [[gZ V_A^T]] is only added to gradient rows and travels as them:
            # in their lanes, or per element at their exponent (a product's, a
            # public constant; rounded at TENSOR_EXPONENT either way), so A's
            # add is a mulmod instead of a 2^32 power per ciphertext.
            gz_lanes = self._lane_layout(b.public_key)
            rows_a_lanes = self._piece_layout(b.public_key, width=self.emb_dim)
            rows_b_lanes = self._piece_layout(a.public_key, width=self.emb_dim)
            gzva = grad_z @ self._b.v_peer.T
            with _obs.span("encrypt", party=b.name, tag=f"{tag}.bwd.gZ"):
                enc_gz = CryptoTensor.encrypt(
                    b.public_key, grad_z, obfuscate=True, parallel=self.parallel
                )
                if rows_a_lanes is not None:
                    enc_gzva = self._encrypt_as(
                        b.public_key, gzva.reshape(-1, self.emb_dim), rows_a_lanes
                    )
                else:
                    enc_gzva = CryptoTensor.zeros(
                        b.public_key, gzva.shape, TENSOR_EXPONENT + PLAIN_EXPONENT
                    ).add_plain(gzva, TENSOR_EXPONENT, obfuscate=True, parallel=self.parallel)
                if gz_lanes is not None:
                    enc_gz_lanes = self._encrypt_as(b.public_key, grad_z, gz_lanes)
            ch.send(b.name, a.name, f"{tag}.bwd.gZ", enc_gz, MessageKind.CIPHERTEXT)
            ch.send(b.name, a.name, f"{tag}.bwd.gZVA", enc_gzva, MessageKind.CIPHERTEXT)
            if gz_lanes is not None:
                ch.send(
                    b.name, a.name, f"{tag}.bwd.gZ.lanes", enc_gz_lanes,
                    MessageKind.CIPHERTEXT,
                )
            enc_gz_at_a = ch.recv(a.name, f"{tag}.bwd.gZ")
            enc_gzva_at_a = ch.recv(a.name, f"{tag}.bwd.gZVA")
            gz_operand = enc_gz_at_a
            if gz_lanes is not None:
                gz_operand = ch.recv(a.name, f"{tag}.bwd.gZ.lanes")

            # Lines 13-16, <phi, grad_W_A - phi> and <xi, grad_W_B - xi> as one
            # crossing: P_A^T @ [[gZ]] stacks psi_A^T gZ over e_B^T gZ (rows that
            # feed different gradients, so stacked, never summed) and one mask
            # covers both; B adds its own P_B^T gZ = [psi_B^T gZ ; e_A^T gZ].
            ct = gz_operand.rmatmul(self._a.cross.T, parallel=self.parallel)
            mask = self._he2ss(ct, a, "B", f"{tag}.bwd.crossT", cfg.grad_mask_scale)
            phi, xi = mask[: self.flat_in_a], mask[self.flat_in_a :]
            crossed = he2ss_receive(b, ch, f"{tag}.bwd.crossT")
            own = self._b.cross.T @ grad_z
            gw_a_minus_phi = own[self.flat_in_b :] + crossed[: self.flat_in_a]
            gw_b_minus_xi = own[: self.flat_in_b] + crossed[self.flat_in_a :]

            # Line 21: the (batch * fields) gradient rows, in lanes along
            # emb_dim where those pay, so lkup_bw and its HE2SS transfer run
            # on ``slots``-fold fewer ciphertexts than the table has entries.
            # At A: [[grad_E_A]]_B = [[gZ]] U_A^T + [[gZ V_A^T]].  The cipher @
            # plain term is the one product lifted into lanes; it promises all
            # but the last bit of the (out_dim + 1)-term row budget, which the
            # lane add spends, so a batch whose compound fan-in exceeds the
            # designed depth raises before the scatter executes.
            rows_a = matmul_cipher_plain(
                enc_gz_at_a, self._a.u.T, parallel=self.parallel
            ).reshape(-1, self.emb_dim)
            if rows_a_lanes is not None:
                with _obs.span("pack", party=a.name, tag=f"{tag}.bwd.gQ_A"):
                    rows_a = rows_a.pack(
                        rows_a_lanes,
                        value_bits=rows_a_lanes.acc_operand_bits_for(self.out_dim + 1) - 1,
                        parallel=self.parallel,
                    )
            rows_a = rows_a + enc_gzva_at_a.reshape(-1, self.emb_dim)
            # At B: [[grad_E_B]]_A = gZ U_B^T + gZ [[V_B^T]]_A — a packed
            # product with a live lane bound when V_B^T is in lanes, else a
            # per-element one lifted under the full row-budget promise.
            if self._b.enc_vt_own is not None:
                rows_b = self._b.enc_vt_own.rmatmul(grad_z, parallel=self.parallel)
            else:
                enc_v_b = self._b.enc_v_own
                if enc_v_b is None:  # the top rows of the per-element stack
                    enc_v_b = self._b.enc_cross.take_rows(np.arange(self.flat_in_b))
                rows_b = matmul_plain_cipher(grad_z, enc_v_b.T, parallel=self.parallel)
            rows_b = (rows_b + grad_z @ self._b.u.T).reshape(-1, self.emb_dim)
            if self._b.enc_vt_own is None and rows_b_lanes is not None:
                with _obs.span("pack", party=b.name, tag=f"{tag}.bwd.gQ_B"):
                    rows_b = rows_b.pack(
                        rows_b_lanes,
                        value_bits=rows_b_lanes.acc_operand_bits_for(self.out_dim + 1),
                        parallel=self.parallel,
                    )

            # Lines 22-23: encrypted lkup_bw, then <rho, grad_Q - rho>.
            use_delta = cfg.share_refresh == "delta"
            rho, gq_share, touched = {}, {}, {}
            for who, rows in (("A", rows_a), ("B", rows_b)):
                state, me, peer = self._party_pair(who)
                total = self.total_a if who == "A" else self.total_b
                with _obs.span("lkup_bw", party=me.name, tag=f"{tag}.bwd.gQ_{who}"):
                    # ``obfuscate_empty=False``: the scatter result goes
                    # straight into ``_he2ss`` below, which homomorphically
                    # adds a *freshly blinded* mask encryption to every
                    # ciphertext — untouched rows are re-randomised at the
                    # party boundary anyway, so paying a blinder per
                    # untouched table cell here would be pure waste on large
                    # vocabularies.
                    if use_delta:
                        uniq, remap = np.unique(state.flat_idx, return_inverse=True)
                        touched[who] = uniq
                        ch.send(
                            me.name, peer.name, f"{tag}.bwd.touched_{who}", uniq,
                            MessageKind.PUBLIC,
                        )
                        enc_gq = rows.scatter_add_rows(
                            remap, num_rows=uniq.shape[0], parallel=self.parallel,
                            obfuscate_empty=False,
                        )
                    else:
                        touched[who] = None
                        enc_gq = rows.scatter_add_rows(
                            state.flat_idx, num_rows=total, parallel=self.parallel,
                            obfuscate_empty=False,
                        )
                    rho[who] = self._he2ss(
                        enc_gq, me, peer.name, f"{tag}.bwd.gQ_{who}",
                        cfg.grad_mask_scale,
                    )
                    if use_delta:
                        touched[who + "_peer"] = ch.recv(
                            peer.name, f"{tag}.bwd.touched_{who}"
                        )
                    gq_share[who] = he2ss_receive(peer, ch, f"{tag}.bwd.gQ_{who}")

            # Each end's piece of every gradient, under the same names at both:
            # A holds phi of grad_W_A and xi of grad_W_B (its V_B), B the rest.
            for who, g_u, g_v_peer in (
                ("A", phi, xi), ("B", gw_b_minus_xi, gw_a_minus_phi)
            ):
                state, _, peer = self._party_pair(who)
                state.pending = {
                    "g_u": g_u,
                    "g_v_peer": g_v_peer,
                    "rho": rho[who],  # piece of grad_Q_own (updates S)
                    "gq_peer": gq_share[peer.name],  # grad_Q_peer - rho_peer (updates T)
                    "touched_own": touched[who],
                    "touched_peer": touched.get(peer.name + "_peer"),
                }

    # --------------------------------------------------------------------- step

    def apply_updates(self, lr: float, momentum: float) -> None:
        """Figure 7 lines 17-20 and 24-26, plus all encrypted-copy refreshes."""
        if not self._a.pending:
            return

        tag, ch = f"{self.name}.{self._step}.upd", self.ctx.channel
        for st in (self._a, self._b):
            p = st.pending
            # Weight pieces are always dense (the W matrices are small), table
            # pieces possibly restricted to the touched rows.
            momentum_update(st.u, st.vel_u, p["g_u"], lr, momentum, None)
            momentum_update(st.v_peer, st.vel_v_peer, p["g_v_peer"], lr, momentum, None)
            momentum_update(st.s, st.vel_s, p["rho"], lr, momentum, p["touched_own"])
            momentum_update(
                st.t_peer, st.vel_t_peer, p["gq_peer"], lr, momentum, p["touched_peer"]
            )

        # -- refresh every encrypted copy that went stale: each end's cross
        # operand, stacked by its peer as at init, and its table piece.
        for who, sender_state in (("A", self._b), ("B", self._a)):
            state, me, peer = self._party_pair(who)
            pieces = self._cross_pieces(who, sender_state.v_peer, sender_state.u)
            touched = sender_state.pending["touched_peer"]
            if touched is None:
                pieces[f"T_{who}"] = sender_state.t_peer
            else:
                # Only touched table rows changed: re-encrypt just those, in the
                # resident copy's form, and *replace* them (a packed copy's lanes
                # cannot be patched additively without spending a guard bit per
                # step — see the wire-format spec).
                self._send_pieces(peer, me, tag, {f"dT_{who}": sender_state.t_peer[touched]})
                state.enc_t_own.set_rows(touched, ch.recv(me.name, f"{tag}.dT_{who}"))
            self._send_pieces(peer, me, tag, pieces)
            for slot, fresh in self._recv_pieces(me, tag, pieces).items():
                setattr(state, slot, fresh)
        self.zero_pending()

    def zero_pending(self) -> None:
        self._a.pending = {}
        self._b.pending = {}

    # --------------------------------------------------------------- checkpoint

    def checkpoint_state(self) -> tuple:
        """Codec-serialisable snapshot of this layer at a batch boundary.

        Per end: table and weight pieces, all four velocity buffers and the
        cached encrypted pieces — ``[[T]]``, the cross operand, and at B the
        lone per-element ``[[V]]`` or the ``[[V^T]]`` in lanes where its
        shapes hold one (``None`` otherwise) — then the step counter.
        Batch-transient lookup state (``flat_idx``, ``cross``, ``pending``)
        is stale between batches and is reset on load; the static
        ``offsets`` come back with the rebuilt layer.
        """

        def side(st: _EmbedState) -> tuple:
            return tuple(getattr(st, slot) for slot in (*_PLAIN_SLOTS, *_ENC_SLOTS))

        return ("embed", self._step, side(self._a), side(self._b))

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, a, b = state
        if kind != "embed":
            raise ValueError(
                f"layer {self.name!r} is an Embed-MatMul source but the "
                f"checkpoint holds a {kind!r} layer"
            )
        restored = []
        for st, vals in ((self._a, a), (self._b, b)):
            if len(vals) != len(_PLAIN_SLOTS) + len(_ENC_SLOTS):
                raise ValueError(
                    f"layer {self.name!r}: checkpoint holds [[U]] and [[V]] as "
                    f"separate pieces (a section written before the cross "
                    f"operand [[V ; U]] was stacked); it cannot continue here"
                )
            vals = dict(zip((*_PLAIN_SLOTS, *_ENC_SLOTS), vals))
            for slot in vals:
                resident = getattr(st, slot)
                if slot in _ENC_SLOTS:
                    self._check_restored_form(_ENC_SLOTS[slot], vals[slot], resident)
                else:
                    vals[slot] = np.asarray(vals[slot], dtype=np.float64)
                shapes = [getattr(t, "shape", None) for t in (vals[slot], resident)]
                if shapes[0] != shapes[1]:
                    raise ValueError(
                        f"layer {self.name!r}: checkpoint piece "
                        f"{_ENC_SLOTS.get(slot, slot)} has shape {shapes[0]} but "
                        f"the model's is {shapes[1]}"
                    )
            restored.append(vals)
        self._step = int(step)
        for st, vals in zip((self._a, self._b), restored):
            for slot, value in vals.items():
                setattr(st, slot, value)
            st.flat_idx = None
            st.cross = None
            st.pending = {}

    # -------------------------------------------------------------- introspection

    def federated_parameters(self) -> list[FederatedParameter]:
        return [
            FederatedParameter(
                f"{self.name}.Q_A", "A", (self.total_a, self.emb_dim),
                {"S": "A", "T": "B"},
            ),
            FederatedParameter(
                f"{self.name}.Q_B", "B", (self.total_b, self.emb_dim),
                {"S": "B", "T": "A"},
            ),
            FederatedParameter(
                f"{self.name}.W_A", "A", (self.flat_in_a, self.out_dim),
                {"U": "A", "V": "B"},
            ),
            FederatedParameter(
                f"{self.name}.W_B", "B", (self.flat_in_b, self.out_dim),
                {"U": "B", "V": "A"},
            ),
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
