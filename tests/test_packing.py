"""Packed/unpacked equivalence: the SIMD-slot subsystem must decode
identically to the per-element ciphertext path on every primitive, across
key sizes — mirroring ``test_kernels_equivalence.py`` one layer up.

The packed kernels reuse the flat kernels' mantissa encodings and exponent
alignment exactly, so assertions here are *bit-level on the decoded
floats* (``np.array_equal``, not ``allclose``).  Guard-band overflow must
raise loudly, both from the conservative op-time bookkeeping and from the
decoder's borrow-chain check when the bookkeeping is bypassed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.comm.channel import payload_nbytes
from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.crypto.crypto_tensor import CryptoTensor, matmul_plain_cipher
from repro.crypto.kernels import TENSOR_EXPONENT
from repro.crypto.packing import (
    PackedCryptoTensor,
    SlotLayout,
    pack_add_flat,
    protocol_layout,
)
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair
from repro.crypto.secret_sharing import he2ss_receive, he2ss_split
from repro.tensor.sparse import CSRMatrix

KEY_BITS = [128, 192, 256]
PRODUCT_KEY_BITS = [192, 256]  # 72 fractional product bits never fit 128


@pytest.fixture(scope="module", params=KEY_BITS)
def sized_keypair(request):
    return generate_paillier_keypair(request.param, seed=2000 + request.param)


@pytest.fixture(scope="module", params=PRODUCT_KEY_BITS)
def product_keypair(request):
    return generate_paillier_keypair(request.param, seed=3000 + request.param)


def _sum_layout(pk) -> SlotLayout:
    """An add-only layout (no plaintext products) that fits even 128 bits.

    ``value_frac_bits=53`` budgets for plain adds at float-natural
    precision, which align the ciphertext below ``TENSOR_EXPONENT``.
    """
    return SlotLayout.design(
        pk, value_frac_bits=53, value_mag_bits=4, plain_mag_bits=1,
        acc_depth=2, mask_scale=8.0, plain_frac_bits=0,
    )


def _product_layout(pk) -> SlotLayout:
    """A layout with full 72-bit product precision (needs >= 192-bit keys)."""
    return SlotLayout.design(
        pk, value_mag_bits=4, plain_mag_bits=4, acc_depth=16, mask_scale=2.0**8
    )


# ---------------------------------------------------------------------------
# Layout math.


def test_layout_slot_width_formula():
    pk = PaillierPublicKey((1 << 2047) + 1)  # layout math needs only n
    layout = SlotLayout.design(
        pk, value_mag_bits=8, plain_mag_bits=8, acc_depth=1024,
        mask_scale=2.0**16,
    )
    # slot = max(2*precision-ish product width + depth guard, mask width) + 2
    product = (40 + 8) + (32 + 8) + 10
    mask = 40 + 32 + 17
    assert layout.slot_bits == max(product, mask) + 2
    cap = pk.max_int.bit_length() - 1
    assert layout.slots == cap // layout.slot_bits
    assert layout.slots >= 20  # the ~25x ROADMAP ballpark at 2048 bits
    assert layout.slot_bits * layout.slots <= cap


def test_layout_rejects_keys_too_small():
    pk, _ = generate_paillier_keypair(64, seed=9)
    with pytest.raises(ValueError):
        SlotLayout.design(pk)


def test_layout_ct_count_rounds_up():
    layout = SlotLayout(slot_bits=50, slots=3, key_bits=256, base_value_bits=40)
    assert layout.ct_count(1) == 1
    assert layout.ct_count(3) == 1
    assert layout.ct_count(4) == 2
    assert layout.ct_count(7) == 3


def test_protocol_layout_falls_back_to_none_on_short_keys():
    pk, _ = generate_paillier_keypair(128, seed=10)
    assert protocol_layout(pk, mask_scale=2.0**16, acc_depth=64) is None
    big = PaillierPublicKey((1 << 2047) + 1)
    layout = protocol_layout(big, mask_scale=2.0**16, acc_depth=64)
    assert layout is not None and layout.slots >= 5


# ---------------------------------------------------------------------------
# Round trips.


def test_pack_encrypt_roundtrip_bit_identical(sized_keypair):
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    assert layout.slots >= 2
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(4, 5))
    packed = PackedCryptoTensor.encrypt(pk, arr, layout, obfuscate=True)
    unpacked = CryptoTensor.encrypt(pk, arr, obfuscate=False)
    assert packed.n_ciphertexts == 4 * layout.ct_count(5)
    assert packed.n_ciphertexts < unpacked.size
    assert np.array_equal(packed.decrypt(sk), unpacked.decrypt(sk))


def test_homomorphic_pack_and_unpack_roundtrip(sized_keypair):
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(3, 7))  # 7 does not divide the slot count
    tensor = CryptoTensor.encrypt(pk, arr, obfuscate=True)
    packed = tensor.pack(layout)
    assert np.array_equal(packed.decrypt(sk), tensor.decrypt(sk))
    lowered = packed.unpack(sk)
    assert isinstance(lowered, CryptoTensor)
    assert np.array_equal(lowered.decrypt(sk), tensor.decrypt(sk))
    # Unblinded, the lane lift is the very residue of encrypting the packed
    # plaintext.
    nude = CryptoTensor.encrypt(pk, arr, obfuscate=False).pack(layout)
    assert nude.cts == PackedCryptoTensor.encrypt(pk, arr, layout, obfuscate=False).cts


def test_pack_1d_tensor(sized_keypair):
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    arr = np.array([0.5, -1.25, 2.0])
    packed = PackedCryptoTensor.encrypt(pk, arr, layout)
    out = packed.decrypt(sk)
    assert out.shape == (3,)
    assert np.array_equal(out, CryptoTensor.encrypt(pk, arr).decrypt(sk))


# ---------------------------------------------------------------------------
# Elementwise ops.


def test_packed_add_sub_match_unpacked(sized_keypair):
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 5))
    pa = PackedCryptoTensor.encrypt(pk, a, layout)
    pb = PackedCryptoTensor.encrypt(pk, b, layout)
    ua = CryptoTensor.encrypt(pk, a, obfuscate=False)
    ub = CryptoTensor.encrypt(pk, b, obfuscate=False)
    assert np.array_equal((pa + pb).decrypt(sk), (ua + ub).decrypt(sk))
    assert np.array_equal((pa - pb).decrypt(sk), (ua - ub).decrypt(sk))
    assert np.array_equal((-pa).decrypt(sk), -pa.decrypt(sk))


def test_packed_plain_add_matches_unpacked(sized_keypair):
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 4))
    b = rng.normal(size=(2, 4))
    pa = PackedCryptoTensor.encrypt(pk, a, layout)
    ua = CryptoTensor.encrypt(pk, a, obfuscate=False)
    assert np.array_equal((pa + b).decrypt(sk), (ua + b).decrypt(sk))
    assert np.array_equal((pa - b).decrypt(sk), (ua - b).decrypt(sk))


def test_packed_scalar_mul_matches_unpacked(product_keypair):
    pk, sk = product_keypair
    layout = _product_layout(pk)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 5))
    pa = PackedCryptoTensor.encrypt(pk, a, layout)
    ua = CryptoTensor.encrypt(pk, a, obfuscate=False)
    for c in (2.5, -1.75, 1.0, 0.0):
        assert np.array_equal((pa * c).decrypt(sk), (ua * c).decrypt(sk)), c


def test_packed_row_gather_and_scatter(sized_keypair):
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 4))
    pa = PackedCryptoTensor.encrypt(pk, a, layout)
    taken = pa.take_rows(np.array([3, 0, 3]))
    expected = CryptoTensor.encrypt(pk, a, obfuscate=False).take_rows(
        np.array([3, 0, 3])
    )
    assert np.array_equal(taken.decrypt(sk), expected.decrypt(sk))
    fresh_rows = rng.normal(size=(2, 4))
    replacement = PackedCryptoTensor.encrypt(pk, fresh_rows, layout)
    pa.set_rows(np.array([1, 4]), replacement)
    out = pa.decrypt(sk)
    ref = a.copy()
    ref[[1, 4]] = fresh_rows
    ref_enc = CryptoTensor.encrypt(pk, ref, obfuscate=False).decrypt(sk)
    assert np.array_equal(out, ref_enc)


# ---------------------------------------------------------------------------
# Matmuls (packed along the output dimension).


def test_packed_dense_matmul_matches_unpacked(product_keypair):
    pk, sk = product_keypair
    layout = _product_layout(pk)
    assert layout.slots >= 2
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 6))
    x[rng.random(x.shape) < 0.3] = 0.0  # exercise zero-skipping
    v = rng.normal(size=(6, 5)) * 0.1
    pv = PackedCryptoTensor.encrypt(pk, v, layout)
    uv = CryptoTensor.encrypt(pk, v, obfuscate=False)
    packed = pv.rmatmul(x)
    unpacked = uv.rmatmul(x)
    assert isinstance(packed, PackedCryptoTensor)
    assert packed.n_ciphertexts < unpacked.size
    assert np.array_equal(packed.decrypt(sk), unpacked.decrypt(sk))


def test_packed_sparse_matmul_matches_unpacked(product_keypair):
    pk, sk = product_keypair
    layout = _product_layout(pk)
    rng = np.random.default_rng(7)
    dense = (rng.random((6, 8)) < 0.4).astype(np.float64)
    x = CSRMatrix.from_dense(dense)
    v = rng.normal(size=(8, 4)) * 0.1
    pv = PackedCryptoTensor.encrypt(pk, v, layout)
    uv = CryptoTensor.encrypt(pk, v, obfuscate=False)
    packed = pv.rmatmul(x)
    unpacked = uv.rmatmul(x)
    assert np.array_equal(packed.decrypt(sk), unpacked.decrypt(sk))


def test_packed_matmul_operator_dispatch(product_keypair):
    pk, sk = product_keypair
    layout = _product_layout(pk)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))
    v = rng.normal(size=(4, 5)) * 0.1
    pv = PackedCryptoTensor.encrypt(pk, v, layout)
    uv = CryptoTensor.encrypt(pk, v, obfuscate=False)
    assert np.array_equal((x @ pv).decrypt(sk), (x @ uv).decrypt(sk))
    with pytest.raises(TypeError):
        pv @ x  # cipher @ plain needs per-lane multipliers
    with pytest.raises(TypeError):
        pv.T  # lanes run along the last axis only


# ---------------------------------------------------------------------------
# HE2SS mask path.


def test_packed_he2ss_mask_add_bit_identical(product_keypair):
    pk, sk = product_keypair
    layout = _product_layout(pk)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 3))
    v = rng.normal(size=(3, 5)) * 0.1
    phi = rng.uniform(-8, 8, size=(4, 5))
    pv = PackedCryptoTensor.encrypt(pk, v, layout)
    uv = CryptoTensor.encrypt(pk, v, obfuscate=False)
    packed_masked = pv.rmatmul(x).add_plain(
        -phi, encode_exponent=TENSOR_EXPONENT, obfuscate=True
    )
    unpacked_masked = uv.rmatmul(x) + CryptoTensor.encrypt(
        pk, -phi, exponent=TENSOR_EXPONENT, obfuscate=True
    )
    assert np.array_equal(packed_masked.decrypt(sk), unpacked_masked.decrypt(sk))


def test_he2ss_split_with_packing_layout(product_keypair):
    """Protocol-level: pack-before-send decodes identically + sends fewer cts."""
    pk, sk = product_keypair
    key_bits = pk.key_bits
    cfg = VFLConfig(key_bits=key_bits, mask_scale=2.0**8)
    ctx = VFLContext(cfg, seed=21)
    a, b = ctx.A, ctx.B
    layout = _product_layout(b.public_key)
    rng = np.random.default_rng(10)
    values = rng.normal(size=(3, 6))
    ct = CryptoTensor.encrypt(b.public_key, values, obfuscate=True)

    # Unpacked reference (fresh context so rng streams align).
    ctx2 = VFLContext(VFLConfig(key_bits=key_bits, mask_scale=2.0**8), seed=21)
    a2, b2 = ctx2.A, ctx2.B
    ct2 = CryptoTensor.encrypt(b2.public_key, values, obfuscate=True)

    phi = he2ss_split(ct, a, "B", ctx.channel, "t", cfg.mask_scale, packing=layout)
    share = he2ss_receive(b, ctx.channel, "t")
    phi2 = he2ss_split(ct2, a2, "B", ctx2.channel, "t", cfg.mask_scale)
    share2 = he2ss_receive(b2, ctx2.channel, "t")
    assert np.array_equal(phi, phi2)
    assert np.array_equal(share, share2)
    packed_bytes = ctx.channel.transcript[-1].nbytes
    unpacked_bytes = ctx2.channel.transcript[-1].nbytes
    assert packed_bytes * (layout.slots - 1) < unpacked_bytes <= packed_bytes * layout.slots


def test_contiguous_pack_covers_column_vectors(sized_keypair):
    """Transfer-only packs span rows: a (n, 1) tensor still fills slots."""
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(14)
    col = rng.normal(size=(6, 1))
    tensor = CryptoTensor.encrypt(pk, col, obfuscate=True)
    row_packed = tensor.pack(layout)
    contiguous = PackedCryptoTensor.pack(tensor, layout, contiguous=True)
    assert row_packed.n_ciphertexts == 6  # row-aligned lanes: no win
    assert contiguous.n_ciphertexts == layout.ct_count(6)  # dense stream
    assert np.array_equal(contiguous.decrypt(sk), tensor.decrypt(sk))
    # Masking and lane-wise arithmetic still work on the dense stream.
    phi = rng.uniform(-2, 2, size=(6, 1))
    masked = contiguous.add_plain(-phi, encode_exponent=TENSOR_EXPONENT)
    ref = tensor + CryptoTensor.encrypt(pk, -phi, exponent=TENSOR_EXPONENT)
    assert np.array_equal(masked.decrypt(sk), ref.decrypt(sk))
    # Row ops and matmuls are structurally unavailable.
    with pytest.raises(TypeError):
        contiguous.take_rows(np.array([0]))
    with pytest.raises(TypeError):
        np.ones((2, 6)) @ contiguous


def test_he2ss_packs_column_vectors_contiguously(sized_keypair):
    """The LR-shaped transfer (out_dim == 1) must still shrink on the wire."""
    pk, _ = sized_keypair
    cfg = VFLConfig(key_bits=pk.key_bits, mask_scale=4.0)
    ctx = VFLContext(cfg, seed=33)
    layout = _sum_layout(ctx.B.public_key)
    values = np.arange(8.0).reshape(8, 1) / 16.0
    ct = CryptoTensor.encrypt(ctx.B.public_key, values, obfuscate=True)
    phi = he2ss_split(ct, ctx.A, "B", ctx.channel, "t", cfg.mask_scale, packing=layout)
    share = he2ss_receive(ctx.B, ctx.channel, "t")
    assert share.shape == (8, 1)
    assert phi.shape == (8, 1)
    sent = ctx.channel.transcript[-1]
    per_ct = 2 * ctx.B.public_key.key_bits // 8
    assert sent.nbytes == layout.ct_count(8) * per_ct  # not 8 * per_ct


# ---------------------------------------------------------------------------
# Segment-aware reshape: lanes survive ``take_rows -> reshape`` as pure
# ciphertext-slice bookkeeping (the packed embedding-lookup pipeline).


@pytest.mark.parametrize("emb_dim", [3, 4])  # slots=2 divides 4 but not 3
def test_take_rows_reshape_bit_identical(sized_keypair, emb_dim):
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(20)
    table = rng.normal(size=(7, emb_dim))
    pt = PackedCryptoTensor.encrypt(pk, table, layout)
    ut = CryptoTensor.encrypt(pk, table, obfuscate=False)
    flat = np.array([2, 6, 0, 2, 5, 1])  # batch=3 rows of fields=2 lookups
    before = list(pt.cts)
    lk = pt.take_rows(flat).reshape(3, 2 * emb_dim)
    assert pt.cts == before  # gather/reshape never touch a ciphertext
    ref = ut.take_rows(flat).reshape(3, -1)
    assert lk.shape == (3, 2 * emb_dim)
    assert np.array_equal(lk.decrypt(sk), ref.decrypt(sk))
    # And back down to per-lookup rows — still pure bookkeeping.
    back = lk.reshape(6, emb_dim)
    assert np.array_equal(back.decrypt(sk), ut.take_rows(flat).decrypt(sk))


def test_take_rows_reshape_matmul_matches_unpacked(product_keypair):
    pk, sk = product_keypair
    layout = _product_layout(pk)
    rng = np.random.default_rng(21)
    table = rng.normal(size=(6, 2 * layout.slots)) * 0.1
    pt = PackedCryptoTensor.encrypt(pk, table, layout)
    ut = CryptoTensor.encrypt(pk, table, obfuscate=False)
    flat = np.array([1, 4, 0, 5])
    lk = pt.take_rows(flat).reshape(2, -1)
    ref = ut.take_rows(flat).reshape(2, -1)
    x = rng.normal(size=(3, 2))
    packed = lk.rmatmul(x)
    unpacked = ref.rmatmul(x)
    assert isinstance(packed, PackedCryptoTensor)
    assert packed.n_ciphertexts < unpacked.size
    assert np.array_equal(packed.decrypt(sk), unpacked.decrypt(sk))


def test_reshape_fallback_rules(sized_keypair):
    """A reshape that would split a segment (ciphertext) across rows must
    refuse loudly; contiguous packs have no row structure at all."""
    pk, _ = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(22)
    pt = PackedCryptoTensor.encrypt(pk, rng.normal(size=(4, 3)), layout)
    assert pt.seg_cols == 3  # slots=2 does not divide 3: whole-row segments
    with pytest.raises(TypeError, match="segment"):
        pt.reshape(3, 4)  # 4 % 3 != 0 would split a ciphertext
    with pytest.raises(ValueError):
        pt.reshape(5, 2)  # wrong element count
    assert pt.reshape(2, 6).shape == (2, 6)  # whole segments regroup fine
    assert pt.reshape(-1, 6).shape == (2, 6)
    dense = PackedCryptoTensor.encrypt(pk, rng.normal(size=(4, layout.slots)), layout)
    assert dense.seg_cols == layout.slots  # dense lanes: canonical segments
    assert dense.reshape(2, 2 * layout.slots).shape == (2, 2 * layout.slots)
    cont = PackedCryptoTensor.encrypt(
        pk, rng.normal(size=(4, 2)), layout, contiguous=True
    )
    with pytest.raises(TypeError):
        cont.reshape(2, 4)


# ---------------------------------------------------------------------------
# Packed scatter-add (the packed ``lkup_bw``).


def test_packed_scatter_add_matches_unpacked(sized_keypair):
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(23)
    grads = rng.normal(size=(4, 3))
    idx = np.array([3, 0, 3, 1])  # at most 2 hits: inside acc_depth=2
    enc = CryptoTensor.encrypt(pk, grads, obfuscate=True)
    packed = enc.pack(layout, value_bits=layout.acc_operand_bits)
    out = packed.scatter_add_rows(idx, num_rows=5)
    ref = enc.scatter_add_rows(idx, num_rows=5)
    assert out.shape == (5, 3)
    assert out.n_ciphertexts < ref.size
    assert np.array_equal(out.decrypt(sk), ref.decrypt(sk))


def test_packed_scatter_add_after_reshape(product_keypair):
    """The full embedding-backward shape dance: (batch, F*D) gradient rows
    reshaped to (batch*F, D) and scattered into the table, packed."""
    pk, sk = product_keypair
    layout = _product_layout(pk)
    rng = np.random.default_rng(24)
    emb_dim, fields, batch, total = 3, 2, 4, 9
    grad_e = rng.normal(size=(batch, fields * emb_dim)) * 0.1
    flat_idx = rng.integers(0, total, size=batch * fields)
    enc = CryptoTensor.encrypt(pk, grad_e, obfuscate=True)
    rows = enc.reshape(-1, emb_dim)
    packed = rows.pack(layout, value_bits=layout.acc_operand_bits)
    out = packed.scatter_add_rows(flat_idx, num_rows=total)
    ref = rows.scatter_add_rows(flat_idx, num_rows=total)
    assert np.array_equal(out.decrypt(sk), ref.decrypt(sk))


def test_scatter_overflow_raises_before_executing(sized_keypair):
    """A fan-in deeper than the layout's designed acc_depth must raise from
    the bookkeeping, before any mulmod runs."""
    pk, _ = sized_keypair
    layout = _sum_layout(pk)  # designed for acc_depth=2
    rng = np.random.default_rng(25)
    batch = 64  # every row lands on table row 0: fan-in 64 >> 2
    enc = CryptoTensor.encrypt(pk, rng.normal(size=(batch, 2)), obfuscate=False)
    packed = enc.pack(layout, value_bits=layout.acc_operand_bits)
    with pytest.raises(OverflowError, match="scatter-add"):
        packed.scatter_add_rows(np.zeros(batch, dtype=int), num_rows=3)


def test_scatter_add_output_is_rerandomised(sized_keypair):
    """Regression (untouched-row leak): every scatter output ciphertext must
    be blinded — raw residue-1 rows would advertise exactly which table rows
    the private indices missed."""
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    rng = np.random.default_rng(26)
    grads = rng.normal(size=(3, 2))
    idx = np.array([0, 4, 0])  # rows 1, 2, 3 untouched
    enc = CryptoTensor.encrypt(pk, grads, obfuscate=True)
    flat_out = enc.scatter_add_rows(idx, num_rows=5)
    assert (flat_out.residues != 1).all()
    expected = np.zeros((5, 2))
    np.add.at(expected, idx, grads)
    np.testing.assert_allclose(flat_out.decrypt(sk), expected, atol=1e-9)
    packed_out = enc.pack(layout, value_bits=layout.acc_operand_bits).scatter_add_rows(
        idx, num_rows=5
    )
    assert all(ct != 1 for ct in packed_out.cts)
    assert np.array_equal(packed_out.decrypt(sk), flat_out.decrypt(sk))


# ---------------------------------------------------------------------------
# Guard-band overflow must be loud.


def test_deep_accumulation_raises_before_lane_corruption(sized_keypair):
    pk, _ = sized_keypair
    layout = _sum_layout(pk)
    t = PackedCryptoTensor.encrypt(pk, np.full((2, 4), 3.0), layout)
    with pytest.raises(OverflowError, match="lane|guard"):
        for _ in range(layout.slot_bits):
            t = t + t


def test_encode_rejects_values_beyond_lane_budget(sized_keypair):
    pk, _ = sized_keypair
    layout = _sum_layout(pk)
    with pytest.raises(OverflowError, match="slot|lane"):
        PackedCryptoTensor.encrypt(pk, np.array([[2.0**40]]), layout)


def test_matmul_depth_budget_enforced(product_keypair):
    pk, _ = product_keypair
    layout = _product_layout(pk)  # budgeted for acc_depth=16-ish
    rng = np.random.default_rng(11)
    m = 2048  # far beyond the layout's accumulation budget
    x = np.ones((1, m)) * 15.0
    v = rng.normal(size=(m, layout.slots)) * 15.0
    pv = PackedCryptoTensor.encrypt(pk, v, layout)
    with pytest.raises(OverflowError, match="lane|guard"):
        pv.rmatmul(x)


def test_decoder_borrow_chain_check_catches_bypassed_overflow(sized_keypair):
    """Even with the bookkeeping bypassed, decode detects corrupted lanes."""
    pk, sk = sized_keypair
    layout = _sum_layout(pk)
    base = PackedCryptoTensor.encrypt(pk, np.full((1, layout.slots), 9.0), layout)
    cts = list(base.cts)
    for _ in range(layout.slot_bits):  # double far past the lane budget
        cts = pack_add_flat(pk, cts, cts)
    rogue = PackedCryptoTensor(
        pk, layout, cts, base.shape, base.exponent, value_bits=1  # lie about bounds
    )
    with pytest.raises(OverflowError):
        rogue.decrypt(sk)


# ---------------------------------------------------------------------------
# Byte accounting is packing-aware.


def test_payload_nbytes_counts_ciphertexts_not_elements(product_keypair):
    pk, _ = product_keypair
    layout = _product_layout(pk)
    arr = np.zeros((4, 2 * layout.slots))
    packed = PackedCryptoTensor.encrypt(pk, arr, layout)
    unpacked = CryptoTensor.encrypt(pk, arr, obfuscate=False)
    per_ct = 2 * pk.key_bits // 8
    assert payload_nbytes(unpacked) == arr.size * per_ct
    assert payload_nbytes(packed) == packed.n_ciphertexts * per_ct
    assert payload_nbytes(packed) * layout.slots == payload_nbytes(unpacked)


# ---------------------------------------------------------------------------
# End-to-end: source layers with the VFLConfig / TrainConfig knobs.


def _run_matmul_layer(packing: bool, refresh: str = "reencrypt", spokes: int = 0):
    """Two steps of ``MatMulSource`` (``spokes=0``) or of the multi-party layer."""
    from repro.core.matmul_layer import MatMulSource
    from repro.core.multiparty import MultiPartyMatMulSource

    ctx = VFLContext(
        VFLConfig(key_bits=256, packing=packing, share_refresh=refresh), seed=11,
        n_a_parties=max(spokes, 1),
    )
    if spokes:
        layer = MultiPartyMatMulSource(ctx, {a: 4 for a in ctx.a_names}, in_b=3, out_dim=4)
    else:
        layer = MatMulSource(ctx, in_a=4, in_b=3, out_dim=5)
    rng = np.random.default_rng(3)
    outs = []
    for _ in range(2):
        x = {a: rng.normal(size=(5, 4)) for a in ctx.a_names} | {"B": rng.normal(size=(5, 3))}
        z = layer.forward(x) if spokes else layer.forward(x["A"], x["B"])
        outs.append(z.copy())
        layer.backward(rng.normal(size=(5, layer.out_dim)))
        layer.apply_updates(0.05, 0.9)
    return outs, layer.reveal_weights(), ctx.channel


def test_matmul_layer_packing_bit_identical_and_cheaper():
    """Both public classes run the one program, so both honour ``packing``
    (the multi-party layer used to ignore it silently)."""
    for spokes in (0, 2):
        outs0, w0, ch0 = _run_matmul_layer(False, spokes=spokes)
        outs1, w1, ch1 = _run_matmul_layer(True, spokes=spokes)
        for z0, z1 in zip(outs0, outs1):
            assert np.array_equal(z0, z1)
        for key in w0:
            assert np.array_equal(w0[key], w1[key])
        assert ch1.total_bytes() < ch0.total_bytes()
        pieces = [m.payload for m in ch1.transcript if ".init." in m.tag or ".upd." in m.tag]
        assert len(pieces) == 4 * max(spokes, 1)  # per spoke: two inits, two refreshes
        assert all(type(p) is PackedCryptoTensor for p in pieces)


def test_packed_he2ss_metadata_is_data_independent(product_keypair):
    """The wire payload's lane-bound field must not encode private operand
    statistics (feature magnitudes / sparsity) — it is canonicalised to the
    layout constant before sending."""
    pk, _ = product_keypair
    cfg = VFLConfig(key_bits=pk.key_bits, mask_scale=2.0**8)
    layout = _product_layout(pk)

    def payload_for(x):
        ctx = VFLContext(cfg, seed=44)
        v = np.full((4, layout.slots), 0.01)
        pv = PackedCryptoTensor.encrypt(ctx.B.public_key, v, _product_layout(ctx.B.public_key))
        ct = pv.rmatmul(x)
        he2ss_split(ct, ctx.A, "B", ctx.channel, "t", cfg.mask_scale)
        return ctx.channel.transcript[-1].payload

    sparse_small = np.eye(4) * 0.5
    dense_large = np.full((4, 4), 14.0)
    p1 = payload_for(sparse_small)
    p2 = payload_for(dense_large)
    assert p1.value_bits == p2.value_bits == p1.layout.lane_cap_bits


def test_delta_refresh_from_packed_and_per_element_start():
    """The packing choice is fixed at construction: the resident [[V_A]]
    keeps the form it was built in across delta refreshes (rows replaced
    when packed, deltas added when per-element), and both forms train to
    the same weights."""
    from repro.core.matmul_layer import MatMulSource

    weights = {}
    for packing, form in ((True, PackedCryptoTensor), (False, CryptoTensor)):
        ctx = VFLContext(
            VFLConfig(key_bits=256, packing=packing, share_refresh="delta"),
            seed=17,
        )
        layer = MatMulSource(ctx, in_a=4, in_b=3, out_dim=5)
        rng = np.random.default_rng(6)
        x_a = CSRMatrix.from_dense((rng.random((5, 4)) < 0.5).astype(np.float64))
        x_b = rng.normal(size=(5, 3))
        for _ in range(3):
            layer.forward(x_a, x_b)
            layer.backward(rng.normal(size=(5, 5)))
            layer.apply_updates(0.05, 0.9)
        assert type(layer._a.enc_v_own) is form
        refreshes = [m.tag for m in ctx.channel.transcript if ".upd." in m.tag]
        assert refreshes and all(tag.endswith(".upd.dV_A") for tag in refreshes)
        # The cached copy still decrypts to B's plaintext piece after 3 refreshes.
        np.testing.assert_allclose(
            layer._a.enc_v_own.decrypt(ctx.B.private_key), layer._b.v_a["A"],
            atol=1e-9,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.config.packing = not packing
        weights[packing] = layer.reveal_weights()
    for name, value in weights[True].items():
        np.testing.assert_allclose(weights[False][name], value, atol=1e-9)


def _run_embed_layer(packing, emb_dim=3, refresh="reencrypt", steps=2, key_bits=256):
    from repro.core.embed_matmul_layer import EmbedMatMulSource

    ctx = VFLContext(
        VFLConfig(key_bits=key_bits, packing=packing, share_refresh=refresh),
        seed=13,
    )
    layer = EmbedMatMulSource(
        ctx, vocab_a=[3, 4], vocab_b=[5], emb_dim=emb_dim, out_dim=4
    )
    rng = np.random.default_rng(2)
    outs = []
    for _ in range(steps):
        xa = np.stack(
            [rng.integers(0, 3, size=4), rng.integers(0, 4, size=4)], axis=1
        )
        xb = rng.integers(0, 5, size=(4, 1))
        z = layer.forward(xa, xb)
        outs.append(z)
        layer.backward(rng.normal(size=(4, 4)))
        layer.apply_updates(0.05, 0.9)
    return outs, layer.reveal_weights(), ctx.channel, layer


# emb_dim 4 keeps dense lanes at 256-bit (2 slots); 3 forces padded segments.
@pytest.mark.parametrize("emb_dim", [3, 4])
@pytest.mark.parametrize("refresh", ["reencrypt", "delta"])
def test_embed_layer_packing_bit_identical(emb_dim, refresh):
    z0, w0, ch0, _ = _run_embed_layer(False, emb_dim=emb_dim, refresh=refresh)
    z1, w1, ch1, layer = _run_embed_layer(True, emb_dim=emb_dim, refresh=refresh)
    for a, b in zip(z0, z1):
        assert np.array_equal(a, b)
    for key in w0:
        assert np.array_equal(w0[key], w1[key])
    assert ch1.total_bytes() < ch0.total_bytes()
    # The tentpole invariant: [[T]] lives packed end to end, so the forward
    # lookup and backward lkup_bw transfers never repack per element.
    assert isinstance(layer._a.enc_t_own, PackedCryptoTensor)
    assert isinstance(layer._b.enc_t_own, PackedCryptoTensor)


@pytest.mark.parametrize("packing", [True, False])
def test_embed_delta_refresh_from_packed_and_per_element_start(packing):
    """Delta refreshes of [[T]] follow the resident tensor's form, which is
    the one the layer was constructed with — there is no mid-run flip."""
    _, _, ch, layer = _run_embed_layer(packing, refresh="delta", steps=3)
    form = PackedCryptoTensor if packing else CryptoTensor
    assert type(layer._a.enc_t_own) is form and type(layer._b.enc_t_own) is form
    t_tags = {m.tag.rsplit(".", 1)[1] for m in ch.transcript if ".upd." in m.tag}
    assert {"dT_A", "dT_B"} <= t_tags and not {"T_A", "T_B"} & t_tags
    np.testing.assert_allclose(
        layer._a.enc_t_own.decrypt(layer.ctx.B.private_key),
        layer._b.t_peer, atol=1e-9,
    )


def test_batch_beyond_designed_depth_raises_at_step_time(monkeypatch):
    """PACKING_DEPTH_FLOOR only *floors* the designed accumulation depth; a
    batch larger than what the layouts budgeted for must raise loudly at
    step time instead of silently corrupting lanes."""
    from repro.core.embed_matmul_layer import EmbedMatMulSource
    from repro.core.matmul_layer import MatMulSource

    # The embed guard charges (out_dim + 1)-term rows per lane (its
    # scattered gradient rows are themselves out_dim-deep contractions);
    # the layout budgets (out_dim + 1) * floor at init, so the floor keeps
    # its batch-row meaning.
    monkeypatch.setattr(EmbedMatMulSource, "PACKING_DEPTH_FLOOR", 4)
    monkeypatch.setattr(MatMulSource, "PACKING_DEPTH_FLOOR", 4)

    ctx = VFLContext(VFLConfig(key_bits=256, packing=True), seed=19)
    layer = EmbedMatMulSource(ctx, vocab_a=[4], vocab_b=[3], emb_dim=4, out_dim=2)
    rng = np.random.default_rng(7)
    small = (rng.integers(0, 4, size=(4, 1)), rng.integers(0, 3, size=(4, 1)))
    layer.forward(*small)  # at the designed batch floor: fine
    big = (rng.integers(0, 4, size=(9, 1)), rng.integers(0, 3, size=(9, 1)))
    with pytest.raises(OverflowError, match="accumulation depth"):
        layer.forward(*big)
    # Inference never runs the batch-deep backward contraction: exempt.
    layer.forward(*big, train=False)

    ctx2 = VFLContext(VFLConfig(key_bits=256, packing=True), seed=19)
    mm = MatMulSource(ctx2, in_a=3, in_b=2, out_dim=4)
    mm.forward(rng.normal(size=(4, 3)), rng.normal(size=(4, 2)))
    with pytest.raises(OverflowError, match="accumulation depth"):
        mm.forward(rng.normal(size=(9, 3)), rng.normal(size=(9, 2)))
    mm.forward(rng.normal(size=(9, 3)), rng.normal(size=(9, 2)), train=False)


@pytest.mark.bigkey
def test_embed_layer_packing_bit_identical_at_production_key():
    """The 2048-bit acceptance case (opt in with ``pytest -m bigkey``): the
    full Embed-MatMul step at the paper's production key size, packed vs
    per-element, bit-identical with a slots-fold cheaper wire."""
    z0, w0, ch0, _ = _run_embed_layer(
        False, emb_dim=4, steps=1, key_bits=2048
    )
    z1, w1, ch1, layer = _run_embed_layer(
        True, emb_dim=4, steps=1, key_bits=2048
    )
    for a, b in zip(z0, z1):
        assert np.array_equal(a, b)
    for key in w0:
        assert np.array_equal(w0[key], w1[key])
    assert isinstance(layer._a.enc_t_own, PackedCryptoTensor)
    assert ch1.total_bytes() * 2 < ch0.total_bytes()

    def gq_bytes(ch):
        return {
            m.tag: m.nbytes for m in ch.transcript if ".bwd.gQ_" in m.tag
        }

    packed_gq, unpacked_gq = gq_bytes(ch1), gq_bytes(ch0)
    assert packed_gq and packed_gq.keys() == unpacked_gq.keys()
    for tag, nbytes in packed_gq.items():
        # The acceptance criterion: the lkup_bw transfer ships at least 2x
        # fewer ciphertexts/bytes (emb_dim-fold here: whole rows fit one
        # ciphertext at 18 production slots).
        assert nbytes * 2 <= unpacked_gq[tag]


def test_packing_is_chosen_on_vfl_config_only():
    """``VFLConfig(packing=True)`` is the one way to pack a training run:
    ``TrainConfig`` has no override and the built config cannot be flipped."""
    from repro.core.models import FederatedLR
    from repro.core.trainer import TrainConfig, train_federated
    from repro.data import make_dense_classification, split_vertical

    full = make_dense_classification(32, 6, seed=5, flip=0.02, nonlinear=False)
    data = split_vertical(full)
    losses = {}
    for packing in (False, True):
        ctx = VFLContext(VFLConfig(key_bits=256, packing=packing), seed=7)
        model = FederatedLR(ctx, in_a=3, in_b=3)
        losses[packing] = train_federated(
            model, data, TrainConfig(epochs=1, batch_size=16),
            max_batches_per_epoch=1,
        ).losses
        assert ctx.config.packing is packing
    assert losses[True] == losses[False] and np.isfinite(losses[True]).all()
    with pytest.raises(TypeError):
        TrainConfig(epochs=1, batch_size=16, packing=True)
