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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.message import MessageKind
from repro.comm.party import Party, VFLContext
from repro.crypto.crypto_tensor import (
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
    enc_t_own: CryptoTensor | PackedCryptoTensor  # [[T_own]] under the peer's key
    enc_u_peer: CryptoTensor | PackedCryptoTensor  # [[U_peer]] under the peer's key
    enc_v_own: CryptoTensor | PackedCryptoTensor  # [[V_own]] under the peer's key
    offsets: np.ndarray  # per-field offsets into the packed table
    # [[V_own^T]] as (out_dim, flat_in), there only when V travels in lanes.
    enc_vt_own: PackedCryptoTensor | None = None
    # Velocity buffers are derived from the pieces in __post_init__; they
    # are never constructor arguments and never None after construction.
    vel_s: np.ndarray = field(init=False)
    vel_t_peer: np.ndarray = field(init=False)
    vel_u: np.ndarray = field(init=False)
    vel_v_peer: np.ndarray = field(init=False)
    flat_idx: np.ndarray | None = None
    psi: np.ndarray | None = None
    e_minus_psi_peer: np.ndarray | None = None  # share of the PEER's E
    pending: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vel_s = np.zeros_like(self.s)
        self.vel_t_peer = np.zeros_like(self.t_peer)
        self.vel_u = np.zeros_like(self.u)
        self.vel_v_peer = np.zeros_like(self.v_peer)


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
        # symmetric set; encrypted pieces [[T_B]]_A, [[U_A]]_A, [[V_B]]_A go
        # to B (and vice versa).
        s_a = a.rng.normal(0.0, piece, size=(total_a, emb_dim))
        t_b = a.rng.normal(0.0, piece, size=(total_b, emb_dim))
        u_a = a.rng.normal(0.0, piece, size=(self.flat_in_a, out_dim))
        v_b = a.rng.normal(0.0, piece, size=(self.flat_in_b, out_dim))
        s_b = b.rng.normal(0.0, piece, size=(total_b, emb_dim))
        t_a = b.rng.normal(0.0, piece, size=(total_a, emb_dim))
        u_b = b.rng.normal(0.0, piece, size=(self.flat_in_b, out_dim))
        v_a = b.rng.normal(0.0, piece, size=(self.flat_in_a, out_dim))
        to_b = {"T_B": t_b, "U_A": u_a, "V_B": v_b}
        to_a = {"T_A": t_a, "U_B": u_b, "V_A": v_a}
        if self._v_in_lanes(a.public_key):
            to_b["Vt_B"] = v_b
        if self._v_in_lanes(b.public_key):
            to_a["Vt_A"] = v_a
        self._send_init(a, b, to_b)
        self._send_init(b, a, to_a)
        enc_at_a = self._recv_init(a, list(to_a))
        enc_at_b = self._recv_init(b, list(to_b))
        self._a = _EmbedState(
            s=s_a, t_peer=t_b, u=u_a, v_peer=v_b,
            enc_t_own=enc_at_a["T_A"], enc_u_peer=enc_at_a["U_B"],
            enc_v_own=enc_at_a["V_A"], offsets=off_a,
            enc_vt_own=enc_at_a.get("Vt_A"),
        )
        self._b = _EmbedState(
            s=s_b, t_peer=t_a, u=u_b, v_peer=v_a,
            enc_t_own=enc_at_b["T_B"], enc_u_peer=enc_at_b["U_A"],
            enc_v_own=enc_at_b["V_B"], offsets=off_b,
            enc_vt_own=enc_at_b.get("Vt_B"),
        )

    def _v_in_lanes(self, public_key) -> bool:
        """Whether V pieces under ``public_key`` travel as two packed forms.

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

    def _encrypt(self, public_key, key: str, arr: np.ndarray):
        """Encrypt piece ``key`` ("T_A", "U_B", "V_A", "Vt_A", ...) in its resident form.

        With packing on, the U pieces — only ever consumed as ``plain @
        cipher`` right operands — travel and live packed along the output
        dimension, and the T pieces live packed along the embedding
        dimension: lanes never span table rows, and the segment-aware
        reshape regroups whole row segments, so the ``take_rows -> reshape``
        lookup pipeline is pure ciphertext-slice bookkeeping on the packed
        form.  V is such an operand both ways round; under the shape rule of
        :meth:`_v_in_lanes` it is encrypted once per form — ``V`` like U,
        ``Vt`` as ``(out_dim * fields, emb_dim)`` rows in the T layout
        regrouped to ``(out_dim, flat_in)`` — and otherwise stays
        per-element, its transpose a view.
        """
        kind = key.split("_")[0]
        if kind == "V":
            lanes = self._lane_layout(public_key) if self._v_in_lanes(public_key) else None
            return self._encrypt_as(public_key, arr, lanes)
        if kind == "Vt":
            rows = arr.T.reshape(-1, self.emb_dim)
            return self._encrypt_piece(public_key, rows, width=self.emb_dim).reshape(
                self.out_dim, -1
            )
        width = self.emb_dim if kind == "T" else self.out_dim
        return self._encrypt_piece(public_key, arr, width=width)

    def _send_init(self, sender: Party, receiver: Party, pieces: dict) -> None:
        for key, arr in pieces.items():
            self.ctx.channel.send(
                sender.name, receiver.name, f"{self.name}.init.{key}",
                self._encrypt(sender.public_key, key, arr), MessageKind.CIPHERTEXT,
            )

    def _packing_contraction(self) -> int:
        return max(self.flat_in_a, self.flat_in_b, 2)

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

    def _recv_init(self, receiver: Party, keys: list[str]) -> dict:
        return {
            key: self.ctx.channel.recv(receiver.name, f"{self.name}.init.{key}")
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
        self._step += 1
        tag = f"{self.name}.{self._step}"
        with _obs.span("fw_transfer", tag=tag):
            cfg, ch = self._cfg, self.ctx.channel
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
            contributions = {"A": [], "B": []}

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
                if train:
                    state.flat_idx = flat
                    state.psi = psi
                else:
                    state.flat_idx = None
                    state.psi = None
            self._a.e_minus_psi_peer = shares["B"][1] if train else None
            self._b.e_minus_psi_peer = shares["A"][1] if train else None

            # ---- MatMul stage, line 8: Z'_1 contributions from psi pieces.
            for who in ("A", "B"):
                state, me, peer = self._party_pair(who)
                psi = shares[who][0]
                ct = state.enc_v_own.rmatmul(psi, parallel=self.parallel)
                eps1 = self._he2ss(
                    ct, me, peer.name, f"{tag}.fwd.psiV_{who}", cfg.mask_scale
                )
                peer_share = he2ss_receive(peer, ch, f"{tag}.fwd.psiV_{who}")
                contributions[who].append(psi @ state.u + eps1)
                contributions[peer.name].append(peer_share)

            # ---- MatMul stage, line 9: Z'_2 contributions from (E-psi) pieces.
            for who in ("A", "B"):
                # The peer holds (E_who - psi_who), V_who, and [[U_who]]_who.
                state, me, peer = self._party_pair(who)
                peer_state = self._b if who == "A" else self._a
                e_share = shares[who][1]  # at peer
                # [[ (E-psi) U_who ]]_who
                ct = peer_state.enc_u_peer.rmatmul(e_share, parallel=self.parallel)
                eps2 = self._he2ss(
                    ct, peer, me.name, f"{tag}.fwd.eU_{who}", cfg.mask_scale
                )
                my_share = he2ss_receive(me, ch, f"{tag}.fwd.eU_{who}")
                contributions[peer.name].append(e_share @ peer_state.v_peer + eps2)
                contributions[who].append(my_share)

            z_a = sum(contributions["A"])
            z_b = sum(contributions["B"])
            return z_a, z_b

    # ----------------------------------------------------------------- backward

    def backward(self, grad_z: np.ndarray) -> None:
        """Figure 7 lines 12-16 and 21-23: share every gradient."""
        if self._a.psi is None:
            raise RuntimeError("backward before forward (or inference-only forward)")
        if self._a.pending or self._b.pending:
            raise RuntimeError("pending updates not applied; call apply_updates")
        tag = f"{self.name}.{self._step}"
        with _obs.span("bw_transfer", tag=tag):
            cfg, ch = self._cfg, self.ctx.channel
            a, b = self.ctx.A, self.ctx.B
            grad_z = np.asarray(grad_z, dtype=np.float64).reshape(-1, self.out_dim)

            # Line 12: B encrypts grad_Z and grad_Z V_A^T (it holds V_A).  A's
            # plain @ cipher products (lines 13-16) take [[gZ]] in lanes along
            # out_dim, its cipher @ plain (line 21) per element: where lanes
            # pay it travels in both forms, each encrypted from the plaintext.
            # [[gZ V_A^T]] is only added to gradient rows and travels as them.
            gz_lanes = self._lane_layout(b.public_key)
            rows_a_lanes = self._piece_layout(b.public_key, width=self.emb_dim)
            rows_b_lanes = self._piece_layout(a.public_key, width=self.emb_dim)
            gzva = grad_z @ self._b.v_peer.T
            if rows_a_lanes is not None:
                gzva = gzva.reshape(-1, self.emb_dim)
            with _obs.span("encrypt", party=b.name, tag=f"{tag}.bwd.gZ"):
                enc_gz = CryptoTensor.encrypt(
                    b.public_key, grad_z, obfuscate=True, parallel=self.parallel
                )
                enc_gzva = self._encrypt_as(b.public_key, gzva, rows_a_lanes)
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

            # Line 13-14: <phi, grad_W_A - phi>.
            ct = gz_operand.rmatmul(self._a.psi.T, parallel=self.parallel)
            phi = self._he2ss(ct, a, "B", f"{tag}.bwd.psiTgZ", cfg.grad_mask_scale)
            psi_t_gz_share = he2ss_receive(b, ch, f"{tag}.bwd.psiTgZ")
            gw_a_minus_phi = self._b.e_minus_psi_peer.T @ grad_z + psi_t_gz_share

            # Line 15-16: <xi, grad_W_B - xi>.
            ct = gz_operand.rmatmul(self._a.e_minus_psi_peer.T, parallel=self.parallel)
            xi = self._he2ss(ct, a, "B", f"{tag}.bwd.eTgZ", cfg.grad_mask_scale)
            e_t_gz_share = he2ss_receive(b, ch, f"{tag}.bwd.eTgZ")
            gw_b_minus_xi = self._b.psi.T @ grad_z + e_t_gz_share

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
                rows_b = matmul_plain_cipher(
                    grad_z, self._b.enc_v_own.T, parallel=self.parallel
                )
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

            self._a.pending = {
                "phi": phi,  # piece of grad_W_A
                "xi": xi,  # piece of grad_W_B (updates V_B at A)
                "rho": rho["A"],  # piece of grad_Q_A (updates S_A at A)
                "gq_peer": gq_share["B"],  # grad_Q_B - rho_B (updates T_B at A)
                "touched_own": touched["A"],
                "touched_peer": touched.get("B_peer"),
            }
            self._b.pending = {
                "gw_a_share": gw_a_minus_phi,  # updates V_A at B
                "gw_b_share": gw_b_minus_xi,  # updates U_B at B
                "rho": rho["B"],  # updates S_B at B
                "gq_peer": gq_share["A"],  # grad_Q_A - rho_A (updates T_A at B)
                "touched_own": touched["B"],
                "touched_peer": touched.get("A_peer"),
            }

    # --------------------------------------------------------------------- step

    def apply_updates(self, lr: float, momentum: float) -> None:
        """Figure 7 lines 17-20 and 24-26, plus all encrypted-copy refreshes."""
        if not self._a.pending:
            return

        tag = f"{self.name}.{self._step}"
        a, b, ch = self.ctx.A, self.ctx.B, self.ctx.channel
        pa, pb = self._a.pending, self._b.pending

        # -- weight pieces (always dense; the W matrices are small).
        momentum_update(self._a.u, self._a.vel_u, pa["phi"], lr, momentum, None)
        momentum_update(
            self._b.v_peer, self._b.vel_v_peer, pb["gw_a_share"], lr, momentum, None
        )
        momentum_update(self._b.u, self._b.vel_u, pb["gw_b_share"], lr, momentum, None)
        momentum_update(
            self._a.v_peer, self._a.vel_v_peer, pa["xi"], lr, momentum, None
        )

        # -- table pieces (possibly restricted to touched rows).
        momentum_update(
            self._a.s, self._a.vel_s, pa["rho"], lr, momentum, pa["touched_own"]
        )
        momentum_update(
            self._b.t_peer, self._b.vel_t_peer, pb["gq_peer"], lr, momentum,
            pb["touched_peer"],
        )
        momentum_update(
            self._b.s, self._b.vel_s, pb["rho"], lr, momentum, pb["touched_own"]
        )
        momentum_update(
            self._a.t_peer, self._a.vel_t_peer, pa["gq_peer"], lr, momentum,
            pa["touched_peer"],
        )

        # -- refresh every encrypted copy that went stale.
        use_delta = pa["touched_own"] is not None
        self._refresh(b, a, tag, "V_A", self._b.v_peer, "enc_v_own", self._a)
        self._refresh(a, b, tag, "V_B", self._a.v_peer, "enc_v_own", self._b)
        if self._a.enc_vt_own is not None:
            self._refresh(b, a, tag, "Vt_A", self._b.v_peer, "enc_vt_own", self._a)
        if self._b.enc_vt_own is not None:
            self._refresh(a, b, tag, "Vt_B", self._a.v_peer, "enc_vt_own", self._b)
        self._refresh(a, b, tag, "U_A", self._a.u, "enc_u_peer", self._b)
        self._refresh(b, a, tag, "U_B", self._b.u, "enc_u_peer", self._a)
        if not use_delta:
            self._refresh(b, a, tag, "T_A", self._b.t_peer, "enc_t_own", self._a)
            self._refresh(a, b, tag, "T_B", self._a.t_peer, "enc_t_own", self._b)
        else:
            # Only touched table rows changed; re-encrypt just those rows.
            self._refresh_rows(
                b, a, f"{tag}.upd.dT_A", self._b.t_peer, pb["touched_peer"], self._a
            )
            self._refresh_rows(
                a, b, f"{tag}.upd.dT_B", self._a.t_peer, pa["touched_peer"], self._b
            )
        self.zero_pending()

    def _refresh(
        self,
        sender: Party,
        receiver: Party,
        tag: str,
        key: str,
        plain: np.ndarray,
        attr: str,
        target_state: _EmbedState,
    ) -> None:
        """Full re-encrypt of piece ``key`` into the receiver's ``attr`` copy."""
        tag = f"{tag}.upd.{key}"
        self.ctx.channel.send(
            sender.name, receiver.name, tag,
            self._encrypt(sender.public_key, key, plain), MessageKind.CIPHERTEXT,
        )
        setattr(target_state, attr, self.ctx.channel.recv(receiver.name, tag))

    def _refresh_rows(
        self,
        sender: Party,
        receiver: Party,
        tag: str,
        plain: np.ndarray,
        rows: np.ndarray,
        target_state: _EmbedState,
    ) -> None:
        """Re-encrypt and replace only the given rows of an encrypted table copy.

        The replacement rows take the resident copy's form (a packed copy's
        lanes cannot be patched additively without spending a guard bit per
        step, so delta refreshes *replace* rows — see the wire-format spec).
        """
        self.ctx.channel.send(
            sender.name, receiver.name, tag,
            self._encrypt(sender.public_key, "T", plain[rows]), MessageKind.CIPHERTEXT,
        )
        target_state.enc_t_own.set_rows(rows, self.ctx.channel.recv(receiver.name, tag))

    def zero_pending(self) -> None:
        self._a.pending = {}
        self._b.pending = {}

    # --------------------------------------------------------------- checkpoint

    def checkpoint_state(self) -> tuple:
        """Codec-serialisable snapshot of this layer at a batch boundary.

        Table and weight pieces, all four velocity buffers, the cached
        encrypted peer pieces (a V in lanes as its ``([[V]], [[V^T]])``
        pair) and the step counter.  Batch-transient
        lookup state (``flat_idx``, ``psi``, ``e_minus_psi_peer``,
        ``pending``) is stale between batches and is reset on load; the
        static ``offsets`` come back with the rebuilt layer.
        """

        def side(st: _EmbedState) -> tuple:
            return (
                st.s, st.t_peer, st.u, st.v_peer,
                st.vel_s, st.vel_t_peer, st.vel_u, st.vel_v_peer,
                st.enc_t_own, st.enc_u_peer,
                st.enc_v_own if st.enc_vt_own is None else (st.enc_v_own, st.enc_vt_own),
            )

        return ("embed", self._step, side(self._a), side(self._b))

    def load_checkpoint_state(self, state: tuple) -> None:
        kind, step, a, b = state
        if kind != "embed":
            raise ValueError(
                f"layer {self.name!r} is an Embed-MatMul source but the "
                f"checkpoint holds a {kind!r} layer"
            )
        self._step = int(step)
        for st, vals in ((self._a, a), (self._b, b)):
            (s, t_peer, u, v_peer, vel_s, vel_t_peer, vel_u, vel_v_peer,
             enc_t_own, enc_u_peer, enc_v_own) = vals
            s = np.asarray(s, dtype=np.float64)
            if s.shape != st.s.shape:
                raise ValueError(
                    f"layer {self.name!r}: checkpoint piece shape {s.shape} "
                    f"does not match the model's {st.s.shape}"
                )
            enc_v_own, enc_vt_own = (
                enc_v_own if isinstance(enc_v_own, tuple) else (enc_v_own, None)
            )
            self._check_restored_form("[[T]]", enc_t_own, st.enc_t_own)
            self._check_restored_form("[[U]]", enc_u_peer, st.enc_u_peer)
            self._check_restored_form("[[V]]", enc_v_own, st.enc_v_own)
            self._check_restored_form("[[V^T]]", enc_vt_own, st.enc_vt_own)
            st.s = s
            st.t_peer = np.asarray(t_peer, dtype=np.float64)
            st.u = np.asarray(u, dtype=np.float64)
            st.v_peer = np.asarray(v_peer, dtype=np.float64)
            st.vel_s = np.asarray(vel_s, dtype=np.float64)
            st.vel_t_peer = np.asarray(vel_t_peer, dtype=np.float64)
            st.vel_u = np.asarray(vel_u, dtype=np.float64)
            st.vel_v_peer = np.asarray(vel_v_peer, dtype=np.float64)
            st.enc_t_own = enc_t_own
            st.enc_u_peer = enc_u_peer
            st.enc_v_own = enc_v_own
            st.enc_vt_own = enc_vt_own
            st.flat_idx = None
            st.psi = None
            st.e_minus_psi_peer = None
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
