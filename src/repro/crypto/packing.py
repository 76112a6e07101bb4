"""SIMD-slot Paillier batching: many fixed-point values per ciphertext.

A 2048-bit Paillier plaintext has room for far more than one 72-bit
fixed-point value, yet the per-element :class:`~repro.crypto.crypto_tensor.
CryptoTensor` spends one whole ciphertext (~512 wire bytes, one blinding
exponentiation, one CRT decryption) per tensor entry.  This module packs
``slots`` values into the binary expansion of a single plaintext::

    P  =  sum_i  m_i * 2**(slot_bits * i)          (signed mantissas m_i)

so one ciphertext carries one *row segment* of a tensor, and the additive
homomorphism acts lane-wise:

* ``[[P]] + [[Q]]`` adds every lane at once (one mulmod instead of
  ``slots``);
* ``c * [[P]]`` multiplies every lane by the same plaintext scalar (one
  exponentiation instead of ``slots``) — which is exactly the access
  pattern of ``plain @ cipher`` matmuls when the *output* dimension is
  packed: ``out[i, :] = sum_t  x[i, t] * cipher_row_t``;
* a "rotate/scatter" kernel (:func:`pack_rows_flat`) lifts an existing
  per-element ciphertext batch into packed form homomorphically
  (``prod_i ct_i ** 2**(slot_bits * i)``), so tensors that had to be
  computed per element can still be packed before hitting the wire; with a
  stride it shifts whole narrow packed rows instead of single elements.

Lane layout and overflow safety
-------------------------------
Signed lanes use a borrow-propagating split (two's-complement style): as
long as every lane value satisfies ``|m_i| < 2**(slot_bits - 1)``, the
packed integer determines the lanes uniquely — extract ``P mod 2**B`` as a
signed residue, subtract, shift, repeat.  Lane widths are therefore
budgeted up front by :meth:`SlotLayout.design`::

    slot_bits = max(value_bits + plain_bits + log2(acc_depth),   # products
                    mask_mantissa_bits)                          # HE2SS masks
                + carry + sign

i.e. *twice* the per-operand fixed-point precision plus overflow guard
bits derived from the key size and the accumulation depth.  Every packed
tensor additionally tracks a conservative per-lane magnitude bound
(``value_bits``); any operation that could push a lane across the guard
band raises :class:`OverflowError` *before* corrupting neighbouring lanes,
and the decoder double-checks that the borrow chain terminates at zero.

By default lanes never span logical rows: a ``(rows, cols)`` tensor packs
each row into ``ceil(cols / slots)`` ciphertexts, so row gather/scatter
(embedding lookups, delta refreshes) and packed matmuls stay possible.
Transfer-only tensors — HE2SS payloads that exist just to be shipped and
decrypted — may instead pack ``contiguous=True``: one dense row-major lane
stream with no per-row padding, which is what keeps column vectors (e.g.
logistic-regression activations, ``out_dim == 1``) at the full ``slots``-
fold reduction.

What cannot be packed
---------------------
Paillier offers no homomorphic lane *extraction*: once packed, a tensor
can only be decrypted as a whole (or re-encrypted per element by the key
owner — :meth:`PackedCryptoTensor.unpack`).  ``cipher @ plain`` products
and transposes need per-lane multipliers and are likewise impossible.  So
the protocol layers put a fresh encryption in lanes exactly when its
consumer is a ``plain @ cipher`` product or a lane-wise add — lanes along
that product's output, a tensor consumed both ways round (Embed-MatMul's
``V``: ``psi @ [[V]]`` forward, ``gZ @ [[V^T]]`` backward) once per
orientation — and the packed product goes to HE2SS as it is.  Two public
shape rules bound this: rows must *tile* ciphertexts
(:meth:`SlotLayout.tiles`), or the product would ship more ciphertexts
than a contiguous re-pack of the per-element one; and rows narrower than
half a ciphertext are merged whole before the wire
(:meth:`PackedCryptoTensor.pack` on a packed tensor).  The protocols' one
``cipher @ plain`` product (``[[gZ]] @ U_A^T``) keeps its operand
per-element and is lifted into lanes afterwards.

All arithmetic mirrors the flat kernels bit-for-bit (same mantissa
encodings, same exponent alignment), so packed pipelines decode to the
*identical* float64 arrays — the equivalence suite pins this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.crypto import kernels
from repro.crypto.bigint import ring_for
from repro.crypto.crypto_tensor import CryptoTensor, _checked_rows
from repro.crypto.kernels import PLAIN_EXPONENT, TENSOR_EXPONENT
from repro.crypto.modexp import batch_invert, multi_pow, raw_mul_many
from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.parallel import ParallelContext
from repro.obs import tracer as _obs

__all__ = [
    "SlotLayout",
    "PackedCryptoTensor",
    "protocol_layout",
    "pack_encode_flat",
    "pack_encrypt_flat",
    "pack_decrypt_flat",
    "pack_rows_flat",
    "pack_scatter_add_flat",
    "pack_add_flat",
    "pack_neg_flat",
    "pack_scalar_mul_flat",
    "pack_shift_flat",
    "pack_matmul_plain_cipher_flat",
    "pack_sparse_matmul_cipher_flat",
    "pack_matmul_plain_cipher",
    "pack_sparse_matmul_cipher",
]


def _mag_bits(bound: float) -> int:
    """Bits needed for magnitudes up to ``bound`` (at least 1)."""
    return max(1, math.ceil(math.log2(bound)) + 1)


def _acc_bits(depth: int) -> int:
    """Headroom bits for summing ``depth`` bounded terms: ceil(log2(depth))."""
    return max(0, int(depth - 1).bit_length())


@dataclass(frozen=True)
class SlotLayout:
    """The wire format of one packed ciphertext.

    Attributes:
        slot_bits: full width of one lane; lane values must stay strictly
            inside ``(-2**(slot_bits-1), 2**(slot_bits-1))``.
        slots: lanes per ciphertext.
        key_bits: modulus size the layout was derived for (sender and
            receiver must agree on all four fields — in-process transport
            ships the layout with the tensor; a networked deployment would
            serialise these ints in the message header).
        base_value_bits: the per-lane *operand* budget the layout was
            designed around (``|mantissa| < 2**base_value_bits``); used as
            the assumed bound when packing opaque ciphertexts whose true
            magnitudes are not visible.
        acc_depth: the accumulation depth the slot width budgets guard bits
            for — how many bounded product terms one lane may sum (matmul
            contractions, scatter-add fan-in).  Protocol layers validate
            batch sizes against this *before* running a batch-deep
            contraction, turning would-be silent lane corruption into a
            loud step-time error.
    """

    slot_bits: int
    slots: int
    key_bits: int
    base_value_bits: int
    acc_depth: int = 1

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("a layout needs at least one slot")
        if not 0 < self.base_value_bits < self.slot_bits:
            raise ValueError("base_value_bits must leave guard room in the slot")
        if self.acc_depth < 1:
            raise ValueError("acc_depth must be at least 1")
        if self.slot_bits * self.slots > self.key_bits - 2:
            raise ValueError(
                f"{self.slots} x {self.slot_bits}-bit slots do not fit a "
                f"{self.key_bits}-bit key's plaintext space"
            )

    @property
    def lane_cap_bits(self) -> int:
        """Hard per-lane magnitude cap (one bit reserved for the sign)."""
        return self.slot_bits - 1

    @property
    def acc_operand_bits(self) -> int:
        """Designed per-lane bound for operands still awaiting accumulation.

        A lane holding at most this many magnitude bits can be summed
        ``acc_depth``-deep and still leave the one guard bit an HE2SS mask
        add needs — the bound :meth:`design` sized the slot around.  Used
        as the ``value_bits`` promise when packing opaque product rows that
        a scatter-add will accumulate (the packed ``lkup_bw`` path).
        """
        return max(1, self.lane_cap_bits - 1 - _acc_bits(self.acc_depth))

    def acc_operand_bits_for(self, terms: int) -> int:
        """The :attr:`acc_operand_bits` promise widened for contracted rows.

        An operand that is itself the sum of ``terms`` designed-width
        products (e.g. an embedding gradient row ``gZ @ U.T + gZ V.T``,
        which contracts over the output dimension) carries up to
        ``ceil(log2(terms))`` extra magnitude bits.  Charging them to the
        pack promise keeps the scatter-add's pre-execution guard sound:
        callers must budget the matching fan-in (``terms * batch``)
        against ``acc_depth``.
        """
        return self.acc_operand_bits + _acc_bits(max(terms, 1))

    def ct_count(self, cols: int) -> int:
        """Packed ciphertexts per logical row of ``cols`` values."""
        return -(-cols // self.slots)

    def tiles(self, cols: int) -> bool:
        """Whether ``cols``-wide rows tile ciphertexts for a transfer.

        A row-aligned product ships as densely as a contiguous re-pack of
        its elements only when a row is a whole number of full ciphertexts,
        or at least two whole rows share one (the transfer's row merge,
        :meth:`PackedCryptoTensor.pack`).  Three-wide rows in four slots do
        neither: one ciphertext a row against three quarters of one.
        """
        return cols % self.slots == 0 or self.slots // cols >= 2

    def check_key(self, public_key: PaillierPublicKey) -> None:
        """Verify the packed integer fits this key's exact guard band."""
        cap = public_key.max_int.bit_length() - 1
        if self.slot_bits * self.slots > cap:
            raise ValueError(
                f"layout needs {self.slot_bits * self.slots} plaintext bits "
                f"but the {public_key.key_bits}-bit key offers {cap}"
            )

    def to_wire(self) -> tuple[int, int, int, int, int]:
        """The five layout integers, in canonical field order.

        Sender and receiver must agree on all five before a packed
        ciphertext can be interpreted; a networked transport serialises
        exactly this tuple in every packed-payload header.
        """
        return (
            self.slot_bits,
            self.slots,
            self.key_bits,
            self.base_value_bits,
            self.acc_depth,
        )

    @classmethod
    def from_wire(cls, fields: tuple[int, int, int, int, int]) -> "SlotLayout":
        """Rebuild a layout from its wire tuple (validates in __post_init__)."""
        slot_bits, slots, key_bits, base_value_bits, acc_depth = fields
        return cls(
            slot_bits=int(slot_bits),
            slots=int(slots),
            key_bits=int(key_bits),
            base_value_bits=int(base_value_bits),
            acc_depth=int(acc_depth),
        )

    @classmethod
    def design(
        cls,
        public_key: PaillierPublicKey,
        *,
        value_mag_bits: int = 8,
        plain_mag_bits: int = 8,
        acc_depth: int = 1024,
        mask_scale: float = 2.0**16,
        value_frac_bits: int = -TENSOR_EXPONENT,
        plain_frac_bits: int = -PLAIN_EXPONENT,
    ) -> "SlotLayout":
        """Derive the slot width from precision, key size and depth.

        ``value_*`` bounds the packed tensor entries (``|v| < 2**mag`` at
        ``2**-frac`` resolution), ``plain_*`` the scalars they will be
        multiplied by, ``acc_depth`` how many such products one lane may
        accumulate, and ``mask_scale`` the largest HE2SS mask that will be
        added before the wire.  Raises :class:`ValueError` when even one
        slot does not fit the key.
        """
        if acc_depth < 1:
            raise ValueError("acc_depth must be at least 1")
        base = value_frac_bits + value_mag_bits
        product = base + plain_frac_bits + plain_mag_bits
        mask = value_frac_bits + plain_frac_bits + _mag_bits(mask_scale)
        # +1 for the mask-add carry, +1 for the sign.
        slot_bits = max(product + _acc_bits(acc_depth), mask) + 2
        cap = public_key.max_int.bit_length() - 1
        slots = cap // slot_bits
        if slots < 1:
            raise ValueError(
                f"a {slot_bits}-bit slot does not fit the "
                f"{public_key.key_bits}-bit key's {cap} plaintext bits"
            )
        return cls(
            slot_bits=slot_bits,
            slots=slots,
            key_bits=public_key.key_bits,
            base_value_bits=base,
            acc_depth=acc_depth,
        )


def protocol_layout(
    public_key: PaillierPublicKey,
    mask_scale: float,
    acc_depth: int,
    *,
    value_mag_bits: int = 8,
    plain_mag_bits: int | None = None,
) -> SlotLayout | None:
    """The layout a protocol layer should use under ``public_key``.

    ``plain_mag_bits`` defaults to covering ``mask_scale``-sized plaintext
    operands: the Embed-MatMul layer multiplies HE2SS *share pieces*
    (mask-magnitude by construction) against packed weight pieces, so the
    plaintext budget must absorb the mask scale, not just the data scale.

    Returns ``None`` when the key is too small for packing to pay off
    (fewer than two slots) — callers fall back to per-element ciphertexts.
    """
    if plain_mag_bits is None:
        plain_mag_bits = max(8, _mag_bits(mask_scale) + 2)
    try:
        layout = SlotLayout.design(
            public_key,
            value_mag_bits=value_mag_bits,
            plain_mag_bits=plain_mag_bits,
            acc_depth=acc_depth,
            mask_scale=mask_scale,
        )
    except ValueError:
        return None
    return layout if layout.slots >= 2 else None


# ---------------------------------------------------------------------------
# Flat packed kernels.  Like repro.crypto.kernels, these operate on raw
# ``list[int]`` residues; shape/exponent/bound metadata lives on the caller.


def pack_encode_flat(
    public_key: PaillierPublicKey,
    values: np.ndarray,
    layout: SlotLayout,
    exponent: int,
    encode_exponent: int | None = None,
    natural: bool = False,
) -> tuple[list[int], int]:
    """Pack a 2-D float array into plaintext residues, row by row.

    Each value is encoded as a signed mantissa at ``encode_exponent``
    (default: ``exponent``) and shifted to ``exponent`` — mirroring how the
    unpacked add kernel aligns a coarser operand onto a finer ciphertext,
    so packed pipelines decode bit-identically.  ``natural=True`` instead
    encodes every value at its own float-natural exponent (the unpacked
    ``add_plain`` convention); ``exponent`` must then be at least as fine
    as the finest natural exponent involved.  Returns the residues
    (``rows * ct_count(cols)`` of them) and the largest lane magnitude in
    bits (the tensor's initial guard-band bound).
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if natural and encode_exponent is not None:
        raise ValueError("natural encoding picks its own per-value exponents")
    if encode_exponent is None:
        encode_exponent = exponent
    if not natural and encode_exponent < exponent:
        raise ValueError("encode_exponent must be no finer than the target exponent")
    n = public_key.n
    slot_bits, slots = layout.slot_bits, layout.slots
    cap = layout.lane_cap_bits
    flat = values.ravel()
    # Signed mantissas — packing needs true integers, not residues mod n —
    # of the whole array at once, each lifted from its exponent to the target.
    encoded_at = kernels._natural_exponents(flat) if natural else np.full(len(flat), encode_exponent)
    lifts = (encoded_at - exponent).tolist()
    try:
        lanes = [m << up for m, up in zip(kernels._encode_signed_flat(None, flat, encoded_at), lifts)]
        max_bits = max([1, *(abs(m).bit_length() for m in lanes)])
    except (ValueError, OverflowError):
        max_bits = cap + 1
    if max_bits > cap:
        # Some value does not pack: report the first one, as the scalar loop would.
        for v, ev, up in zip(flat.tolist(), encoded_at.tolist(), lifts):
            bits = abs(kernels._encode_signed(None, v, ev) << up).bit_length()
            if bits > cap:
                raise OverflowError(
                    f"value {v} needs a {bits}-bit lane but the layout "
                    f"provides {cap} magnitude bits per {slot_bits}-bit slot"
                )
    cols = values.shape[1]
    out = [
        sum(m << (slot_bits * j) for j, m in enumerate(lanes[start : min(start + slots, row + cols)])) % n
        for row in range(0, len(lanes), cols or 1)
        for start in range(row, row + cols, slots)
    ]
    return out, max_bits


def pack_encrypt_flat(
    public_key: PaillierPublicKey,
    packed_residues: Sequence[int],
    obfuscate: bool = True,
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Encrypt packed plaintext residues (``g = n + 1`` shortcut + pool)."""
    n = public_key.n
    cts = [1 + p * n for p in packed_residues]  # < n^2: residues are reduced mod n
    if obfuscate:
        cts = kernels._blind(public_key, cts, parallel)
    trc = _obs.get_tracer()
    if trc is not None:
        trc.add("ct.encrypted", len(cts))
    return cts


def _split_lanes(packed: int, layout: SlotLayout, count: int) -> list[int]:
    """Borrow-propagating signed lane extraction; loud on a dirty carry chain."""
    slot_bits = layout.slot_bits
    full = 1 << slot_bits
    half = full >> 1
    mask = full - 1
    lanes: list[int] = []
    for _ in range(count):
        r = packed & mask
        if r >= half:
            r -= full
        lanes.append(r)
        packed = (packed - r) >> slot_bits
    if packed != 0:
        raise OverflowError(
            "packed lanes overflowed the slot guard band (borrow chain did "
            "not terminate); widen slot_bits or reduce accumulation depth"
        )
    return lanes


def pack_decrypt_flat(
    private_key,
    cts: Sequence[int],
    layout: SlotLayout,
    rows: int,
    cols: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> np.ndarray:
    """CRT-decrypt a packed batch and split lanes back to float64.

    Mirrors the unpacked ``decrypt_flat`` arithmetic exactly (same CRT,
    same guard-band check, same ``ldexp`` decode), then runs the signed
    borrow split per ciphertext.  The CRT exponentiations go through the
    batch :func:`~repro.crypto.kernels.crt_decrypt_many` path, so a
    configured parallel context shards them across the key owner's private
    worker tier, bit-identical to serial.
    """
    lanes = _decrypt_lanes(private_key, cts, layout, rows, cols, parallel)
    return kernels._decode_signed_flat(lanes, exponent).reshape(rows, cols)


def _decrypt_lanes(
    private_key,
    cts: Sequence[int],
    layout: SlotLayout,
    rows: int,
    cols: int,
    parallel: ParallelContext | None,
) -> list[int]:
    """CRT-decrypt a packed ``rows x cols`` batch to its signed lane mantissas."""
    cpr = layout.ct_count(cols)
    if len(cts) != rows * cpr:
        raise ValueError("ciphertext count does not match the packed shape")
    raw = kernels.crt_decrypt_many(private_key, cts, parallel)
    packed = kernels._signed_plaintexts(private_key.public_key, raw, "packed encoding")
    # Every ciphertext of a row is full but the last, which holds the rest.
    counts = [*[layout.slots] * (cpr - 1), cols - layout.slots * (cpr - 1)] * rows
    return [lane for p, count in zip(packed, counts) for lane in _split_lanes(p, layout, count)]


def pack_rows_flat(
    public_key: PaillierPublicKey,
    cts: Sequence[int],
    rows: int,
    cols: int,
    layout: SlotLayout,
    parallel: ParallelContext | None = None,
    stride: int = 1,
) -> list[int]:
    """Homomorphic rotate/scatter: lift per-element ciphertexts into lanes.

    ``cts`` is a row-major ``rows x cols`` batch at one uniform exponent;
    each output ciphertext is ``prod_j ct_j ** 2**(slot_bits * j)`` over a
    run of ``slots`` elements — a Horner chain under the exponentiation
    engine's shared squarings: ``slot_bits`` squarings and one mulmod per
    lane above lane 0, far below a blinding exponentiation.

    With ``stride > 1`` every input is itself a packed ciphertext of
    ``stride`` lanes (a narrow row segment) and ``slots // stride`` of them
    share an output — the row merge of a narrow packed transfer.
    """
    if len(cts) != rows * cols:
        raise ValueError("ciphertext count does not match rows x cols")
    slot_bits, slots = layout.slot_bits * stride, layout.slots // stride
    runs = [
        range(r * cols + start, r * cols + min(start + slots, cols))
        for r in range(rows)
        for start in range(0, cols, slots)
    ]
    lanes = [[(i, 1 << (slot_bits * j)) for j, i in enumerate(run)] for run in runs]
    out = multi_pow(public_key, cts, lanes, 1, parallel)
    trc = _obs.get_tracer()
    if trc is not None:
        trc.add("ct.packed", len(out))
    return out


def pack_scatter_add_flat(
    public_key: PaillierPublicKey,
    cts: Sequence[int],
    indices: Sequence[int],
    num_rows: int,
    ct_per_row: int,
    parallel: ParallelContext | None = None,
    obfuscate_empty: bool = True,
) -> list[int]:
    """Packed ``lkup_bw``: sum packed batch rows into a packed table.

    A logical row is ``ct_per_row`` ciphertexts, so the accumulation is
    ``ct_per_row`` lane-wise mulmods per batch row — the ``slots``-fold
    saving over the per-element scatter.  Untouched table rows come back as
    *blinded* encryptions of zero (see :func:`repro.crypto.kernels.
    scatter_add_flat`), never as the recognisable raw residue ``1``.  The
    caller tracks ``value_bits`` growth; this kernel only moves residues.
    """
    return kernels.scatter_add_flat(
        public_key, cts, indices, num_rows, ct_per_row,
        parallel=parallel, obfuscate_empty=obfuscate_empty,
    )


def pack_add_flat(
    public_key: PaillierPublicKey, a_cts: Sequence[int], b_cts: Sequence[int]
) -> list[int]:
    """Lane-wise homomorphic add: one mulmod covers every slot."""
    return ring_for(public_key.nsquare).mul_many(a_cts, b_cts)


def pack_neg_flat(public_key: PaillierPublicKey, cts: Sequence[int]) -> list[int]:
    """Negate every lane (modular inverse of the packed ciphertext)."""
    return batch_invert(cts, public_key.nsquare)


def pack_scalar_mul_flat(
    public_key: PaillierPublicKey,
    cts: Sequence[int],
    mantissa: int,
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Multiply every lane of every ciphertext by one plaintext mantissa.

    ``mantissa`` is a residue mod n; the raw-mul kernel's inversion trick
    keeps negative multipliers cheap, and the borrow-splitting decoder
    recovers the per-lane signed products exactly.
    """
    return raw_mul_many(public_key, [(c, mantissa) for c in cts], parallel)


def pack_shift_flat(
    public_key: PaillierPublicKey,
    cts: Sequence[int],
    shift_bits: int,
    parallel: ParallelContext | None = None,
) -> list[int]:
    """Re-express every lane at a ``shift_bits``-finer exponent."""
    if shift_bits == 0:
        return list(cts)
    if shift_bits < 0:
        raise ValueError("cannot coarsen a ciphertext exponent losslessly")
    return pack_scalar_mul_flat(public_key, cts, 1 << shift_bits, parallel)


def _packed_product(
    public_key: PaillierPublicKey,
    index_rows,
    values,
    cts: Sequence[int],
    cpr: int,
    exponent: int,
    parallel: ParallelContext | None,
) -> tuple[list[int], int, int, int]:
    """Shared packed-matmul core: term lists in, product + lane bounds out.

    ``index_rows[i]`` lists the cipher rows output row ``i`` combines and
    ``values`` their multipliers, all rows end to end.
    Every term multiplies a whole ``cpr``-ciphertext row segment, which is
    where the slot-count saving lands.  Returns ``(out_cts, prod_exponent,
    max_plain_bits, max_terms)`` — the last two feed the caller's
    lane-overflow bookkeeping.
    """
    rows = kernels._term_rows(public_key, index_rows, values)
    out = multi_pow(public_key, cts, rows, cpr, parallel)
    max_plain_bits = max([1, *(abs(m).bit_length() for row in rows for _, m in row)])
    max_terms = max(map(len, rows), default=0)
    return out, exponent + PLAIN_EXPONENT, max_plain_bits, max_terms


def pack_matmul_plain_cipher_flat(
    public_key: PaillierPublicKey,
    plain: np.ndarray,
    cts: Sequence[int],
    cpr: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int, int, int]:
    """Dense ``plain (s x m) @ packed-cipher (m rows x cpr cts)``.

    The cipher rows are packed along the *output* dimension, so each
    plaintext entry multiplies a whole row segment at once.

    Returns ``(out_cts, prod_exponent, max_plain_bits, max_terms)``.
    """
    plain = np.asarray(plain, dtype=np.float64)
    return _packed_product(
        public_key, [range(plain.shape[1])] * len(plain), plain, cts, cpr, exponent, parallel
    )


def pack_sparse_matmul_cipher_flat(
    public_key: PaillierPublicKey,
    rows: Sequence[tuple[Sequence[int], Sequence[float]]],
    m: int,
    cts: Sequence[int],
    cpr: int,
    exponent: int,
    parallel: ParallelContext | None = None,
) -> tuple[list[int], int, int, int]:
    """CSR ``plain @ packed-cipher`` (same returns as the dense kernel)."""
    return _packed_product(
        public_key, *kernels._csr_entries(rows, m), cts, cpr, exponent, parallel
    )


# ---------------------------------------------------------------------------
# The tensor wrapper.


def _normalized_seg(cols: int, seg_cols: int | None, slots: int) -> int:
    """Canonical segment width for a ``cols``-wide row.

    Lanes never span *segments*: each run of ``seg_cols`` columns packs
    into its own ``ct_count(seg_cols)`` ciphertexts (padding the last one).
    ``None`` means whole-row segments — the historical row-aligned layout.
    When the segment width is a multiple of the slot count the lane stream
    is dense (no padding anywhere), so the finest equivalent segmentation —
    one ciphertext, ``slots`` columns — is the canonical form; that is what
    lets any two dense tensors agree on their segmentation regardless of
    how they were produced.
    """
    seg = cols if seg_cols is None else int(seg_cols)
    if seg < 1 or cols % seg:
        raise ValueError(
            f"segment width {seg} must evenly divide the {cols}-column rows"
        )
    if seg % slots == 0:
        seg = slots
    return seg


class PackedCryptoTensor:
    """A 1-D or 2-D tensor of Paillier ciphertexts, ``slots`` lanes each.

    Interops with :class:`CryptoTensor` (same exponent conventions, same
    decrypt semantics); ``CryptoTensor.pack()`` lifts into this class and
    :meth:`unpack` (key owner only) lowers back.  ``value_bits`` is the
    conservative per-lane magnitude bound that makes guard-band overflow a
    loud error instead of silent lane corruption.

    ``seg_cols`` is the segment-aware part of the layout: a row is a
    sequence of ``cols // seg_cols`` independent lane *segments*, each
    packed into its own ciphertexts.  Freshly encrypted tensors use
    whole-row segments (canonicalised to one-ciphertext segments when the
    row is a multiple of the slot count); :meth:`reshape` regroups whole
    segments into new rows without touching a single ciphertext, which is
    what lets an embedding table piece survive ``take_rows -> reshape``
    packed (the Embed-MatMul lookup pipeline).
    """

    # Make numpy defer mixed operations to our reflected methods.
    __array_ufunc__ = None
    __array_priority__ = 1100

    __slots__ = (
        "public_key", "layout", "cts", "shape", "exponent", "value_bits",
        "contiguous", "seg_cols",
    )

    def __init__(
        self,
        public_key: PaillierPublicKey,
        layout: SlotLayout,
        cts: list[int],
        shape: tuple[int, ...],
        exponent: int,
        value_bits: int,
        contiguous: bool = False,
        seg_cols: int | None = None,
    ):
        if len(shape) not in (1, 2):
            raise ValueError("PackedCryptoTensor supports 1-D and 2-D shapes")
        self.contiguous = contiguous
        if contiguous:
            if seg_cols is not None:
                raise ValueError("a contiguous pack has no row segments")
            self.seg_cols = 0
            size = int(np.prod(shape, dtype=np.int64))
            expected = layout.ct_count(size)
        else:
            rows = 1 if len(shape) == 1 else shape[0]
            seg = _normalized_seg(shape[-1], seg_cols, layout.slots)
            self.seg_cols = seg
            expected = rows * (shape[-1] // seg) * layout.ct_count(seg)
        if len(cts) != expected:
            raise ValueError("ciphertext count does not match shape and layout")
        if value_bits > layout.lane_cap_bits:
            raise OverflowError(
                f"lane bound of {value_bits} bits exceeds the "
                f"{layout.lane_cap_bits}-bit slot guard band"
            )
        self.public_key = public_key
        self.layout = layout
        self.cts = cts
        self.shape = shape
        self.exponent = exponent
        self.value_bits = value_bits

    # -- construction ---------------------------------------------------------

    @classmethod
    def encrypt(
        cls,
        public_key: PaillierPublicKey,
        array: np.ndarray,
        layout: SlotLayout,
        exponent: int = TENSOR_EXPONENT,
        obfuscate: bool = True,
        parallel: ParallelContext | None = None,
        contiguous: bool = False,
    ) -> "PackedCryptoTensor":
        """Encrypt a float array directly into packed form.

        One blinding exponentiation per ``slots`` values — the encrypt-side
        saving that makes packed share refreshes cheap.  ``contiguous``
        lets lanes span logical rows (transfer-only tensors: maximum
        density, but row ops and matmuls are then unavailable).
        """
        layout.check_key(public_key)
        array = np.asarray(array, dtype=np.float64)
        if contiguous:
            view = array.reshape(1, -1)
        else:
            view = np.atleast_2d(array)
            seg = _normalized_seg(view.shape[1], None, layout.slots)
            view = view.reshape(-1, seg)
        packed, value_bits = pack_encode_flat(public_key, view, layout, exponent)
        cts = pack_encrypt_flat(public_key, packed, obfuscate=obfuscate, parallel=parallel)
        return cls(
            public_key, layout, cts, array.shape, exponent, value_bits,
            contiguous=contiguous,
        )

    @classmethod
    def pack(
        cls,
        tensor: "CryptoTensor | PackedCryptoTensor",
        layout: SlotLayout,
        value_bits: int | None = None,
        parallel: ParallelContext | None = None,
        contiguous: bool = False,
    ) -> "PackedCryptoTensor":
        """Homomorphically pack an existing per-element ciphertext tensor.

        The true lane magnitudes are invisible inside the ciphertexts, so
        the caller promises a bound: ``value_bits`` defaults to the
        layout's full guard band less the one-bit headroom an HE2SS mask
        add needs.  A wrong promise is detected at decode time by the
        borrow-chain check rather than silently.

        ``contiguous=True`` packs row-major across row boundaries (one
        dense lane stream) — right for tensors that only travel and get
        decrypted, e.g. HE2SS transfers of column vectors, where row-
        aligned lanes would waste almost every slot.  It also takes a
        row-aligned *packed* tensor with segments narrower than half a
        ciphertext and merges them whole, :attr:`segments_per_ct` to a
        ciphertext, by the same lane shifts: the contiguous lane stream of
        the layout narrowed to the slots those segments fill, with the
        tensor's own live ``value_bits``.
        """
        layout.check_key(tensor.public_key)
        if isinstance(tensor, PackedCryptoTensor):
            if not contiguous or tensor.layout != layout or tensor.segments_per_ct < 2:
                raise TypeError(
                    "only a row-aligned tensor with at least two segments to a "
                    "ciphertext of its own layout merges, and only contiguously"
                )
            seg = tensor.seg_cols
            merged = replace(layout, slots=tensor.segments_per_ct * seg)
            cts = pack_rows_flat(
                tensor.public_key, tensor.cts, 1, len(tensor.cts), merged, parallel,
                stride=seg,
            )
            return cls(
                tensor.public_key, merged, cts, tensor.shape, tensor.exponent,
                tensor.value_bits, contiguous=True,
            )
        if contiguous:
            rows, cols = 1, tensor.size
        else:
            cols = _normalized_seg(tensor.shape[-1], None, layout.slots)
            rows = tensor.size // cols
        raw, exponent = tensor._aligned()
        cts = pack_rows_flat(tensor.public_key, raw, rows, cols, layout, parallel)
        if value_bits is None:
            value_bits = layout.lane_cap_bits - 1
        return cls(
            tensor.public_key, layout, cts, tensor.shape, exponent, value_bits,
            contiguous=contiguous,
        )

    # -- shape plumbing -------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        """Logical element count (NOT the ciphertext count)."""
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def rows(self) -> int:
        return 1 if len(self.shape) == 1 else self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[-1]

    def _pack_view(self) -> tuple[int, int]:
        """The (rows, cols) grid lanes are actually laid out on.

        One view row per *segment* — the unit lanes never cross — so every
        encoder/decoder loop sees exactly the ciphertext-aligned geometry
        whatever logical shape sits on top.
        """
        if self.contiguous:
            return 1, self.size
        return self.rows * (self.cols // self.seg_cols), self.seg_cols

    @property
    def ct_per_row(self) -> int:
        """Ciphertexts per *logical* row (all of its segments)."""
        if self.contiguous:
            return self.layout.ct_count(self.size)
        return (self.cols // self.seg_cols) * self.layout.ct_count(self.seg_cols)

    @property
    def n_ciphertexts(self) -> int:
        """Ciphertexts on the wire — the number bandwidth accounting sees."""
        return len(self.cts)

    @property
    def segments_per_ct(self) -> int:
        """Whole lane segments one ciphertext has room for (1: it is as
        dense as row-aligned lanes get; more: a transfer can merge)."""
        if self.contiguous:
            return 1
        return max(1, self.layout.slots // self.seg_cols)

    @property
    def T(self) -> "PackedCryptoTensor":
        raise TypeError(
            "a packed tensor cannot be transposed: lanes run along the last "
            "axis only; unpack (key owner) or keep the tensor per-element"
        )

    def take_rows(self, indices: np.ndarray) -> "PackedCryptoTensor":
        """Gather logical rows (each row is a contiguous run of ciphertexts)."""
        if len(self.shape) != 2:
            raise ValueError("take_rows needs a 2-D tensor")
        if self.contiguous:
            raise TypeError("contiguously packed lanes span rows; no row gather")
        indices = _checked_rows(indices, self.shape[0])
        cpr = self.ct_per_row
        cts: list[int] = []
        for r in indices.tolist():
            cts.extend(self.cts[r * cpr : (r + 1) * cpr])
        return PackedCryptoTensor(
            self.public_key,
            self.layout,
            cts,
            (indices.shape[0], self.cols),
            self.exponent,
            self.value_bits,
            seg_cols=self.seg_cols,
        )

    def reshape(self, *shape: int) -> "PackedCryptoTensor":
        """Regroup whole lane segments into a new shape — zero crypto cost.

        Lanes survive a reshape as pure ciphertext-slice bookkeeping iff
        every new row is a whole number of existing segments (new column
        count a multiple of ``seg_cols``); in particular any row width that
        is a multiple of the slot count keeps the dense one-ciphertext
        segmentation.  The Embed-MatMul lookup relies on this:
        ``take_rows(flat_idx)`` yields ``(batch * fields, emb_dim)`` rows
        with ``emb_dim``-column segments, and ``reshape(batch, fields *
        emb_dim)`` just regroups ``fields`` segments per row.  A reshape
        that would split a segment (and so a ciphertext) across rows has no
        homomorphic implementation — it raises :class:`TypeError` and the
        caller must stay per-element or repack via the key owner.
        """
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        dims = [int(s) for s in shape]
        if self.contiguous:
            raise TypeError("a contiguous pack has no row structure to reshape")
        if dims.count(-1) > 1:
            raise ValueError("can only infer one reshape dimension")
        if -1 in dims:
            known = int(np.prod([d for d in dims if d != -1], dtype=np.int64))
            if known <= 0 or self.size % known:
                raise ValueError(f"cannot reshape {self.shape} into {tuple(dims)}")
            dims[dims.index(-1)] = self.size // known
        if len(dims) not in (1, 2) or int(np.prod(dims, dtype=np.int64)) != self.size:
            raise ValueError(f"cannot reshape {self.shape} into {tuple(dims)}")
        if dims[-1] % self.seg_cols:
            raise TypeError(
                f"a packed reshape must keep whole {self.seg_cols}-column "
                f"lane segments per row; {tuple(dims)} would split a "
                f"ciphertext across rows — unpack (key owner) or keep the "
                f"tensor per-element"
            )
        return PackedCryptoTensor(
            self.public_key,
            self.layout,
            list(self.cts),
            tuple(dims),
            self.exponent,
            self.value_bits,
            seg_cols=self.seg_cols,
        )

    def set_rows(self, indices: np.ndarray, fresh: "PackedCryptoTensor") -> None:
        """Replace logical rows in place (the packed delta-refresh path)."""
        if not isinstance(fresh, PackedCryptoTensor):
            raise TypeError("a packed tensor takes packed replacement rows")
        if self.contiguous or fresh.contiguous:
            raise TypeError("contiguously packed lanes span rows; no row scatter")
        if len(self.shape) != 2 or len(fresh.shape) != 2:
            raise ValueError("set_rows needs 2-D tensors")
        if fresh.layout != self.layout or fresh.cols != self.cols:
            raise ValueError("row replacement requires an identical layout")
        if fresh.seg_cols != self.seg_cols:
            raise ValueError("row replacement requires an identical segmentation")
        if fresh.public_key != self.public_key:
            raise ValueError("cannot mix ciphertexts under different keys")
        if fresh.exponent != self.exponent:
            raise ValueError("row replacement requires matching exponents")
        indices = _checked_rows(indices, self.shape[0])
        if indices.shape[0] != fresh.shape[0]:
            raise ValueError("one replacement row per index required")
        cpr = self.ct_per_row
        for out_pos, r in enumerate(indices.tolist()):
            self.cts[r * cpr : (r + 1) * cpr] = fresh.cts[
                out_pos * cpr : (out_pos + 1) * cpr
            ]
        self.value_bits = max(self.value_bits, fresh.value_bits)

    def scatter_add_rows(
        self,
        indices: np.ndarray,
        num_rows: int,
        parallel: ParallelContext | None = None,
        obfuscate_empty: bool = True,
    ) -> "PackedCryptoTensor":
        """Packed encrypted ``lkup_bw``: sum batch rows into a packed table.

        ``self`` is a ``(batch, dim)`` packed tensor and ``indices`` the
        plaintext row ids; row ``r`` of the ``(num_rows, dim)`` result is
        the lane-wise homomorphic sum of every batch row that landed on
        ``r`` — ``ct_per_row`` mulmods per batch row instead of ``dim``,
        the slot-count saving.  ``value_bits`` grows by the worst-case
        fan-in ``ceil(log2(max hits per table row))`` and the guard band is
        checked *before* any mulmod runs, so an overaccumulation (e.g. a
        batch deeper than the layout's designed ``acc_depth``) raises
        loudly instead of corrupting neighbouring lanes.  Untouched table
        rows come back as blinded encryptions of zero, never the
        recognisable raw residue ``1``.
        """
        if len(self.shape) != 2:
            raise ValueError("scatter_add_rows needs a 2-D tensor")
        if self.contiguous:
            raise TypeError("contiguously packed lanes span rows; no row scatter")
        indices = _checked_rows(indices, num_rows)
        if indices.shape[0] != self.shape[0]:
            raise ValueError("one index per batch row required")
        max_hits = (
            int(np.bincount(indices, minlength=num_rows).max()) if indices.size else 0
        )
        bits = self._checked_bits(
            self.value_bits + _acc_bits(max(max_hits, 1)),
            f"scatter-add with {max_hits} batch rows on one table row",
        )
        cts = pack_scatter_add_flat(
            self.public_key,
            self.cts,
            indices.tolist(),
            num_rows,
            self.ct_per_row,
            parallel=parallel,
            obfuscate_empty=obfuscate_empty,
        )
        return PackedCryptoTensor(
            self.public_key,
            self.layout,
            cts,
            (num_rows, self.cols),
            self.exponent,
            bits,
            seg_cols=self.seg_cols,
        )

    # -- decrypt / unpack -----------------------------------------------------

    def decrypt(self, private_key, parallel: ParallelContext | None = None) -> np.ndarray:
        """Batched CRT decrypt + lane split back to float64."""
        if private_key.public_key != self.public_key:
            raise ValueError("ciphertext was encrypted under a different key")
        rows, cols = self._pack_view()
        out = pack_decrypt_flat(
            private_key, self.cts, self.layout, rows, cols, self.exponent,
            parallel=parallel,
        )
        return out.reshape(self.shape)

    def unpack(
        self,
        private_key,
        obfuscate: bool = False,
        parallel: ParallelContext | None = None,
    ) -> CryptoTensor:
        """Lower to a per-element :class:`CryptoTensor` (key owner only).

        Paillier has no homomorphic lane extraction, so unpacking decrypts
        each packed ciphertext to its signed lane mantissas and re-encrypts
        them individually at the same exponent — the round-trip
        ``tensor.pack(layout).unpack(sk)`` decodes bit-identically to
        ``tensor``.  The ciphertexts go through one batched (optionally
        parallel) ``crt_decrypt_many`` instead of per-element
        ``raw_decrypt`` calls.
        """
        if private_key.public_key != self.public_key:
            raise ValueError("ciphertext was encrypted under a different key")
        pk = self.public_key
        lanes = _decrypt_lanes(
            private_key, self.cts, self.layout, *self._pack_view(), parallel
        )
        cts = [pk.raw_encrypt(lane % pk.n, obfuscate=obfuscate) for lane in lanes]
        return CryptoTensor._from_flat(pk, cts, self.exponent, self.shape)

    # -- wire format ----------------------------------------------------------

    @property
    def wire_value_bits(self) -> int:
        """``value_bits`` canonicalised to a layout constant for the wire.

        The live bound is derived from private operands (magnitudes,
        per-row sparsity), so shipping it verbatim would leak through the
        header.  Two public levels suffice: tensors inside the designed
        operand budget advertise ``base_value_bits`` (weight/table pieces,
        fresh encryptions), everything else the full ``lane_cap_bits``
        guard band (HE2SS transfers, which the receiver only decrypts).
        Both are ≥ the true bound, so receiver-side overflow guards stay
        sound — merely a little more conservative — and a wrong bound is
        still caught at decode by the borrow-chain check.
        """
        if self.value_bits <= self.layout.base_value_bits:
            return self.layout.base_value_bits
        return self.layout.lane_cap_bits

    def to_wire(self) -> dict:
        """Wire fields of a packed tensor (header metadata + residues).

        ``value_bits`` is canonicalised (see :attr:`wire_value_bits`) —
        the serialized header carries nothing the unpacked protocol's
        headers would not.
        """
        return {
            "layout": self.layout.to_wire(),
            "contiguous": self.contiguous,
            "seg_cols": self.seg_cols,
            "shape": self.shape,
            "exponent": self.exponent,
            "value_bits": self.wire_value_bits,
            "cts": self.cts,
        }

    @classmethod
    def from_wire(
        cls,
        public_key: PaillierPublicKey,
        layout: SlotLayout,
        cts: list[int],
        shape: tuple[int, ...],
        exponent: int,
        value_bits: int,
        contiguous: bool = False,
        seg_cols: int | None = None,
    ) -> "PackedCryptoTensor":
        """Rebuild from wire fields; the constructor re-validates geometry."""
        layout.check_key(public_key)
        return cls(
            public_key,
            layout,
            list(cts),
            tuple(int(d) for d in shape),
            int(exponent),
            int(value_bits),
            contiguous=bool(contiguous),
            seg_cols=None if contiguous else seg_cols,
        )

    # -- guard-band bookkeeping ----------------------------------------------

    def _checked_bits(self, new_bits: int, what: str) -> int:
        if new_bits > self.layout.lane_cap_bits:
            raise OverflowError(
                f"{what} would need {new_bits}-bit lanes but the layout "
                f"guards only {self.layout.lane_cap_bits} bits; widen the "
                f"slots or reduce the accumulation depth"
            )
        return new_bits

    def _shifted_to(self, exponent: int, parallel=None) -> "PackedCryptoTensor":
        """Re-express at a finer uniform exponent (consumes guard bits)."""
        if exponent == self.exponent:
            return self
        shift = self.exponent - exponent
        if shift < 0:
            raise ValueError("cannot coarsen a packed exponent losslessly")
        bits = self._checked_bits(self.value_bits + shift, "exponent alignment")
        cts = pack_shift_flat(self.public_key, self.cts, shift, parallel)
        return self._like(cts, exponent=exponent, value_bits=bits)

    def _like(
        self,
        cts: list[int],
        shape: tuple[int, ...] | None = None,
        exponent: int | None = None,
        value_bits: int | None = None,
    ) -> "PackedCryptoTensor":
        """A sibling tensor sharing this one's layout metadata."""
        return PackedCryptoTensor(
            self.public_key,
            self.layout,
            cts,
            self.shape if shape is None else shape,
            self.exponent if exponent is None else exponent,
            self.value_bits if value_bits is None else value_bits,
            contiguous=self.contiguous,
            seg_cols=None if self.contiguous else self.seg_cols,
        )

    # -- arithmetic -----------------------------------------------------------

    def _add_packed(self, other: "PackedCryptoTensor", negate: bool) -> "PackedCryptoTensor":
        if other.public_key != self.public_key:
            raise ValueError("cannot add ciphertexts under different keys")
        if other.layout != self.layout or other.shape != self.shape:
            raise ValueError("packed operands need identical shapes and layouts")
        if other.contiguous != self.contiguous or other.seg_cols != self.seg_cols:
            raise ValueError("packed operands need identical lane layouts")
        target = min(self.exponent, other.exponent)
        a = self._shifted_to(target)
        b = other._shifted_to(target)
        bits = a._checked_bits(max(a.value_bits, b.value_bits) + 1, "lane-wise add")
        b_cts = pack_neg_flat(self.public_key, b.cts) if negate else b.cts
        cts = pack_add_flat(self.public_key, a.cts, b_cts)
        return self._like(cts, exponent=target, value_bits=bits)

    def add_plain(
        self,
        values: np.ndarray,
        encode_exponent: int | None = None,
        obfuscate: bool = False,
        parallel: ParallelContext | None = None,
    ) -> "PackedCryptoTensor":
        """Lane-wise ``cipher + plain``.

        With ``encode_exponent`` given, every value is encoded at that
        fixed exponent and shifted onto the ciphertext — the HE2SS mask
        path, which mirrors ``CryptoTensor + encrypt(mask,
        TENSOR_EXPONENT)`` bit-for-bit.  Without it, each value is encoded
        at its natural float precision (the unpacked ``add_plain``
        convention) and the whole tensor lands at the finest exponent
        involved.  ``obfuscate=True`` draws fresh blinders for the mask
        encryption, re-randomising the sum before it leaves the party.
        """
        values = np.broadcast_to(
            np.asarray(values, dtype=np.float64), self.shape
        )
        if encode_exponent is None:
            flat = values.ravel()
            finite = flat[np.isfinite(flat)]
            if finite.size != flat.size:
                raise ValueError("cannot encode non-finite values")
            natural = int(kernels._natural_exponents(flat).min(initial=self.exponent))
            encode_target = None  # per-element natural exponents
            target = min(self.exponent, natural)
        else:
            encode_target = encode_exponent
            target = min(self.exponent, encode_exponent)
        me = self._shifted_to(target, parallel)
        values_view = np.asarray(values).reshape(self._pack_view())
        packed_residues, max_bits = pack_encode_flat(
            self.public_key,
            values_view,
            self.layout,
            target,
            encode_exponent=encode_target,
            natural=encode_target is None,
        )
        bits = me._checked_bits(max(me.value_bits, max_bits) + 1, "plain add")
        mask_cts = pack_encrypt_flat(
            self.public_key, packed_residues, obfuscate=obfuscate, parallel=parallel
        )
        cts = pack_add_flat(self.public_key, me.cts, mask_cts)
        return self._like(cts, exponent=target, value_bits=bits)

    def __add__(self, other: object) -> "PackedCryptoTensor":
        if isinstance(other, PackedCryptoTensor):
            return self._add_packed(other, negate=False)
        if isinstance(other, (int, float, np.ndarray, list)):
            return self.add_plain(np.asarray(other, dtype=np.float64))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "PackedCryptoTensor":
        if isinstance(other, PackedCryptoTensor):
            return self._add_packed(other, negate=True)
        if isinstance(other, (int, float, np.ndarray, list)):
            return self.add_plain(-np.asarray(other, dtype=np.float64))
        return NotImplemented

    def __neg__(self) -> "PackedCryptoTensor":
        return self._like(pack_neg_flat(self.public_key, self.cts))

    def __mul__(self, other: object) -> "PackedCryptoTensor":
        """Scalar broadcast multiply — every lane scales by the same value."""
        if isinstance(other, PackedCryptoTensor):
            raise TypeError("cannot multiply two ciphertext tensors under Paillier")
        if not isinstance(other, (int, float)):
            raise TypeError(
                "packed tensors support scalar multipliers only (per-lane "
                "multipliers would need lane extraction)"
            )
        v = float(other)
        if v == 1.0:
            return self
        if v == 0.0:
            return self._like([1] * len(self.cts), value_bits=1)
        signed = kernels._encode_signed(None, v, PLAIN_EXPONENT)
        sbits = signed.bit_length() if signed >= 0 else (-signed).bit_length()
        bits = self._checked_bits(self.value_bits + sbits, "scalar multiply")
        cts = pack_scalar_mul_flat(
            self.public_key, self.cts, signed % self.public_key.n
        )
        return self._like(cts, exponent=self.exponent + PLAIN_EXPONENT, value_bits=bits)

    __rmul__ = __mul__

    def rmatmul(
        self, plain: object, parallel: ParallelContext | None = None
    ) -> "PackedCryptoTensor":
        """``plain @ packed`` for a dense or CSR ``plain`` — the forward pass
        against packed weights; the ``@`` operator with ``parallel``."""
        if hasattr(plain, "iter_rows"):
            return pack_sparse_matmul_cipher(plain, self, parallel)
        return pack_matmul_plain_cipher(
            np.asarray(plain, dtype=np.float64), self, parallel
        )

    __rmatmul__ = rmatmul

    def t_rmatmul(
        self,
        plain: object,
        columns: np.ndarray | None = None,
        parallel: ParallelContext | None = None,
    ) -> "PackedCryptoTensor":
        """``plain.T @ packed`` for a dense or CSR ``plain`` — backprop against
        a ``[[grad_Z]]`` in lanes; ``columns`` keeps only those result rows.
        The transpose is the plaintext's (``CSRMatrix.transpose``)."""
        if hasattr(plain, "iter_rows"):
            if plain.shape[0] != self.rows:
                raise ValueError(f"t_matmul shape mismatch: {plain.shape}.T @ {self.shape}")
            return pack_sparse_matmul_cipher(plain.transpose(columns), self, parallel)
        if columns is not None:
            plain = np.asarray(plain)[:, columns]
        return pack_matmul_plain_cipher(np.asarray(plain, dtype=np.float64).T, self, parallel)

    def __matmul__(self, plain: object) -> "PackedCryptoTensor":
        raise TypeError(
            "packed-cipher @ plain needs per-lane multipliers; keep that "
            "operand per-element"
        )

    def obfuscate(self, parallel: ParallelContext | None = None) -> "PackedCryptoTensor":
        """Re-randomise every packed ciphertext from the blinding pool."""
        return self._like(kernels._blind(self.public_key, self.cts, parallel))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PackedCryptoTensor(shape={self.shape}, slots={self.layout.slots}, "
            f"cts={len(self.cts)})"
        )


# ---------------------------------------------------------------------------
# Kernel-backed packed matrix products (mirroring crypto_tensor's wrappers).


def _wrap_matmul_result(
    pt: PackedCryptoTensor,
    out: list[int],
    out_rows: int,
    prod_exp: int,
    plain_bits: int,
    max_terms: int,
    what: str,
) -> PackedCryptoTensor:
    """Shared guard-band bookkeeping for packed matmul products."""
    bits = pt.value_bits + plain_bits + _acc_bits(max(max_terms, 1))
    if bits > pt.layout.lane_cap_bits:
        raise OverflowError(
            f"{what} over {max_terms} terms would need {bits}-bit lanes but "
            f"the layout guards only {pt.layout.lane_cap_bits} bits"
        )
    return PackedCryptoTensor(
        pt.public_key, pt.layout, out, (out_rows, pt.cols), prod_exp, bits,
        seg_cols=pt.seg_cols,
    )


def pack_matmul_plain_cipher(
    plain: np.ndarray,
    pt: PackedCryptoTensor,
    parallel: ParallelContext | None = None,
) -> PackedCryptoTensor:
    """Dense ``plain (s x m) @ packed (m x k)`` with zero-skipping + dedup."""
    if pt.contiguous:
        raise TypeError("matmul needs row-aligned lanes, not a contiguous pack")
    plain = np.atleast_2d(np.asarray(plain, dtype=np.float64))
    s, m = plain.shape
    if pt.rows != m:
        raise ValueError(
            f"matmul shape mismatch: ({s},{m}) @ ({pt.rows},{pt.cols})"
        )
    out, prod_exp, plain_bits, max_terms = pack_matmul_plain_cipher_flat(
        pt.public_key, plain, pt.cts, pt.ct_per_row, pt.exponent, parallel
    )
    return _wrap_matmul_result(pt, out, s, prod_exp, plain_bits, max_terms, "matmul")


def pack_sparse_matmul_cipher(
    sparse: object,
    pt: PackedCryptoTensor,
    parallel: ParallelContext | None = None,
) -> PackedCryptoTensor:
    """CSR ``plain @ packed``: O(nnz) mulmod blocks, never touches zeros."""
    if pt.contiguous:
        raise TypeError("matmul needs row-aligned lanes, not a contiguous pack")
    rows = list(sparse.iter_rows())
    out, prod_exp, plain_bits, max_terms = pack_sparse_matmul_cipher_flat(
        pt.public_key, rows, pt.rows, pt.cts, pt.ct_per_row, pt.exponent, parallel
    )
    return _wrap_matmul_result(
        pt, out, len(rows), prod_exp, plain_bits, max_terms, "sparse matmul"
    )
