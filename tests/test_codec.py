"""Wire-codec conformance: decode(encode(x)) is bit-identical, sizes honest.

The codec is the trust boundary — these tests pin three things:

* **Round-trip fidelity** (property loops over dtypes, shapes and key
  sizes): every payload type that crosses ``Channel.send`` survives
  ``encode -> decode`` bit-identically, including the packed tensors'
  five-integer ``SlotLayout`` header, ``seg_cols`` and the canonicalised
  ``value_bits``, and empty/scalar edge shapes.
* **Loud failure**: unknown payload types, malformed/truncated/
  wrong-version frames and ciphertexts naming a key the ring does not
  hold raise immediately, never mis-decode.
* **Honest sizes**: the ``payload_nbytes`` estimator agrees with real
  encoded frames up to a small fixed framing overhead, so wire-byte
  accounting on the in-memory tier is a faithful stand-in for measured
  frames.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import codec
from repro.comm.channel import Channel, SerializingChannel, payload_nbytes
from repro.comm.message import Message, MessageKind
from repro.crypto.crypto_tensor import CryptoTensor
from repro.crypto.packing import PackedCryptoTensor, SlotLayout, protocol_layout
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair

KEY_GRID = [128, 192, 256]


@pytest.fixture(scope="module")
def keys():
    """One seeded key pair per grid size (shared across this module)."""
    return {bits: generate_paillier_keypair(bits, seed=bits) for bits in KEY_GRID}


def ring_for(pk):
    return {pk.n: pk}


# ---------------------------------------------------------------------------
# Primitives and containers.


PRIMITIVES = [
    None,
    True,
    False,
    0,
    -1,
    12345678901234567890123456789,
    -(2**200),
    0.0,
    -1.5,
    2.0**-40,
    float(np.finfo(np.float64).max),
    "tag.step.payload",
    "",
    b"\x00\xffraw",
    b"",
]


@pytest.mark.parametrize("value", PRIMITIVES, ids=[repr(v)[:28] for v in PRIMITIVES])
def test_primitive_round_trip(value):
    decoded = codec.decode_payload(codec.encode_payload(value))
    assert type(decoded) is type(value)
    assert decoded == value


def test_container_round_trip():
    payload = [1, 2.5, "s", None, [True, b"x"], (3, (4.0,))]
    decoded = codec.decode_payload(codec.encode_payload(payload))
    assert decoded == payload
    assert isinstance(decoded[5], tuple) and isinstance(decoded[4], list)


NDARRAY_CASES = [
    np.zeros((0,), dtype=np.float64),  # empty
    np.float64(3.25),  # scalar -> 0-d
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.arange(6, dtype=np.int32).reshape(2, 3),
    np.random.default_rng(0).normal(size=(5, 2)),
    np.array([True, False, True]),
    np.arange(4, dtype=np.uint8),
    np.zeros((2, 0, 3), dtype=np.float32),
]


@pytest.mark.parametrize("arr", NDARRAY_CASES, ids=[
    f"{np.asarray(a).dtype}-{np.asarray(a).shape}" for a in NDARRAY_CASES
])
def test_ndarray_round_trip_bit_identical(arr):
    decoded = codec.decode_payload(codec.encode_payload(arr))
    arr = np.asarray(arr)
    assert decoded.dtype == arr.dtype.newbyteorder("<") or decoded.dtype == arr.dtype
    assert decoded.shape == arr.shape
    assert decoded.tobytes() == np.ascontiguousarray(arr).tobytes()
    if decoded.size:  # decoded arrays must be writable (gradients get used)
        decoded.ravel()[0] = decoded.ravel()[0]


def test_big_endian_array_canonicalised():
    arr = np.arange(4, dtype=">f8")
    decoded = codec.decode_payload(codec.encode_payload(arr))
    assert decoded.dtype == np.dtype("<f8")
    np.testing.assert_array_equal(decoded, arr)


# ---------------------------------------------------------------------------
# Crypto payloads across the key grid.


@pytest.mark.parametrize("bits", KEY_GRID)
@pytest.mark.parametrize(
    "shape", [(1,), (3,), (2, 3), (1, 1), (4, 1), (0, 3)], ids=str
)
def test_crypto_tensor_round_trip(keys, bits, shape):
    pk, sk = keys[bits]
    rng = np.random.default_rng(bits + len(shape))
    values = rng.normal(size=shape)
    whole = CryptoTensor.encrypt(pk, values)
    # The tensor itself, a transposed (non-contiguous) view of it, and a
    # fancy-indexed copy with a repeated leading index.
    picks = [0] * min(shape[0], 1) + list(range(shape[0]))[::-1]
    for tensor in (whole, whole.T, whole[picks]):
        decoded = codec.decode_payload(codec.encode_payload(tensor), ring_for(pk))
        assert decoded.public_key is pk  # key ring resolves to the live object
        assert decoded.shape == tensor.shape
        assert np.array_equal(decoded.residues, tensor.residues)
        assert np.array_equal(decoded.exponents, tensor.exponents)
        if values.size:
            np.testing.assert_array_equal(decoded.decrypt(sk), tensor.decrypt(sk))


def test_crypto_tensor_mixed_exponents_round_trip(keys):
    pk, sk = keys[128]
    a = CryptoTensor.encrypt(pk, np.ones((2, 2)), exponent=-40)
    b = CryptoTensor.encrypt(pk, np.ones((2, 2)), exponent=-20)
    mixed = CryptoTensor.vstack([a, b])
    for tensor in (mixed, mixed.T, mixed[[3, 0, 3]]):
        decoded = codec.decode_payload(codec.encode_payload(tensor), ring_for(pk))
        assert np.array_equal(decoded.residues, tensor.residues)
        assert np.array_equal(decoded.exponents, tensor.exponents)
        np.testing.assert_array_equal(decoded.decrypt(sk), tensor.decrypt(sk))
    assert mixed.exponents.ravel().tolist() == [-40] * 4 + [-20] * 4
    assert isinstance(mixed.to_wire()[2], list)  # ragged: one exponent each
    assert a.to_wire()[2] == -40  # uniform: collapsed to one int on the wire


def _layout(pk) -> SlotLayout:
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=1024)
    assert layout is not None
    return layout


def test_slot_layout_wire_tuple_round_trip(keys):
    pk, _ = keys[256]
    layout = _layout(pk)
    fields = layout.to_wire()
    assert fields == (
        layout.slot_bits,
        layout.slots,
        layout.key_bits,
        layout.base_value_bits,
        layout.acc_depth,
    )
    assert SlotLayout.from_wire(fields) == layout


@pytest.mark.parametrize("shape", [(2, 4), (3, 2), (1, 6), (5, 4)], ids=str)
@pytest.mark.parametrize("contiguous", [False, True], ids=["rows", "contig"])
def test_packed_tensor_round_trip(keys, shape, contiguous):
    pk, sk = keys[256]
    layout = _layout(pk)
    rng = np.random.default_rng(sum(shape))
    values = rng.normal(size=shape)
    tensor = PackedCryptoTensor.encrypt(pk, values, layout, contiguous=contiguous)
    decoded = codec.decode_payload(codec.encode_payload(tensor), ring_for(pk))
    assert decoded.public_key is pk
    assert decoded.cts == tensor.cts  # ciphertexts bit-identical
    assert decoded.shape == tensor.shape
    assert decoded.layout == tensor.layout
    assert decoded.contiguous == tensor.contiguous
    assert decoded.seg_cols == tensor.seg_cols
    assert decoded.exponent == tensor.exponent
    # value_bits crosses canonicalised to the layout constant the header
    # advertises — never the private magnitude-derived bound.
    assert decoded.value_bits == tensor.wire_value_bits
    assert decoded.value_bits in (layout.base_value_bits, layout.lane_cap_bits)
    np.testing.assert_array_equal(decoded.decrypt(sk), tensor.decrypt(sk))


def test_packed_tensor_segmented_reshape_survives_wire(keys):
    """A take_rows -> reshape pipeline's segment metadata crosses intact."""
    pk, sk = keys[256]
    layout = _layout(pk)
    table = PackedCryptoTensor.encrypt(
        pk, np.random.default_rng(5).normal(size=(6, 4)), layout
    )
    looked_up = table.take_rows(np.array([1, 3, 5, 0])).reshape(2, 8)
    decoded = codec.decode_payload(codec.encode_payload(looked_up), ring_for(pk))
    assert decoded.seg_cols == looked_up.seg_cols
    assert decoded.shape == (2, 8)
    np.testing.assert_array_equal(decoded.decrypt(sk), looked_up.decrypt(sk))


def test_scalar_tensor_and_public_key_round_trip(keys):
    """A scalar ciphertext is a 0-d tensor: shape ``()``, one residue."""
    pk, sk = keys[192]
    enc = CryptoTensor.encrypt(pk, -3.75)
    decoded = codec.decode_payload(codec.encode_payload(enc), ring_for(pk))
    assert decoded.shape == ()
    assert decoded.residues == enc.residues and decoded.exponents == enc.exponents
    assert decoded.decrypt(sk) == -3.75
    key_back = codec.decode_payload(codec.encode_payload(pk))
    assert isinstance(key_back, PaillierPublicKey) and key_back == pk


def test_unknown_fingerprint_is_refused_by_name(keys):
    """A ciphertext header names its key by fingerprint; a ring that does
    not hold that key refuses the frame instead of inventing a key."""
    pk, _ = keys[128]
    other, _ = keys[192]
    blobs = [
        codec.encode_payload(CryptoTensor.encrypt(pk, np.ones((2, 2)))),
        codec.encode_payload(CryptoTensor.encrypt(pk, 1.5)),
    ]
    for blob in blobs:
        for ring in ({}, None, ring_for(other)):
            with pytest.raises(codec.WireFormatError, match=pk.fingerprint.hex()):
                codec.decode_payload(blob, ring)


def test_ciphertext_headers_carry_the_fingerprint_not_the_modulus(keys):
    pk, _ = keys[256]
    assert len(pk.fingerprint) == codec.FINGERPRINT_SIZE
    modulus = pk.n.to_bytes((pk.key_bits + 7) // 8, "big")
    for payload in (
        CryptoTensor.encrypt(pk, np.ones((2, 3))),
        PackedCryptoTensor.encrypt(pk, np.ones((2, 3)), _layout(pk)),
        CryptoTensor.encrypt(pk, 2.0),
    ):
        _, header, _ = codec.split_payload(codec.encode_payload(payload))
        assert header.startswith(pk.fingerprint)
        assert modulus not in codec.encode_payload(payload)
    assert modulus in codec.encode_payload(pk)  # public-key payloads carry n


def test_ring_refuses_two_keys_under_one_fingerprint(keys):
    pk, _ = keys[128]
    impostor = PaillierPublicKey(keys[192][0].n)
    impostor.fingerprint = pk.fingerprint
    ring = ring_for(pk)
    with pytest.raises(codec.WireFormatError, match=pk.fingerprint.hex()):
        codec.register_key(ring, impostor)
    channel = SerializingChannel()
    channel.register_public_key(pk)
    with pytest.raises(codec.WireFormatError, match="fingerprint"):
        channel.register_public_key(impostor)
    assert ring == {pk.n: pk} and channel.key_ring == {pk.n: pk}
    # Re-registering the same modulus replaces the object, as before.
    fresh = PaillierPublicKey(pk.n)
    codec.register_key(ring, fresh)
    assert ring[pk.n] is fresh


def test_hello_carries_keys_and_adds_only_missing_ones(keys):
    pk, _ = keys[128]
    other, _ = keys[256]
    frame = codec.encode_hello(["B", "A"], [pk, other])
    ring = ring_for(pk)
    parties, carried = codec.decode_hello(frame, key_ring=ring)
    assert parties == ["A", "B"]
    assert carried[0] is pk  # the registered, seeded object is kept
    assert set(ring) == {pk.n, other.n} and ring[pk.n] is pk
    assert ring[other.n] is carried[1] and ring[other.n] is not other
    # The learned key now resolves that party's ciphertext frames.
    tensor = CryptoTensor.encrypt(other, np.ones(2))
    assert codec.decode_payload(codec.encode_payload(tensor), ring).public_key is ring[other.n]


# A wire-version-2 frame (a PUBLIC message carrying the int 1), as the
# previous codec wrote it: refused by its version byte, never half-decoded.
V2_FRAME = bytes.fromhex(
    "4246024d0000001d04000000000000000100014100014200017402000000060000000001016005db00"
)


def test_v2_frame_is_refused_by_version():
    with pytest.raises(codec.WireFormatError, match="wire version 2 not supported"):
        codec.decode_message(V2_FRAME)
    with pytest.raises(codec.WireFormatError, match="wire version 2"):
        list(codec.iter_frames(V2_FRAME))


@pytest.mark.parametrize("seq", [0, 127, 128, 16383, 16384, 2**63 + 5])
def test_varint_counts_round_trip_and_grow_by_seven_bits(seq):
    msg = Message("A", "B", "x" * 130, MessageKind.PUBLIC, [None] * 200, seq=seq)
    frame = codec.encode_message(msg)
    back = codec.decode_message(frame)
    assert (back.seq, back.tag, back.payload) == (seq, msg.tag, msg.payload)
    base = len(codec.encode_message(Message("A", "B", msg.tag, msg.kind, msg.payload, seq=0)))
    assert len(frame) - base == max(1, -(-seq.bit_length() // 7)) - 1


@pytest.mark.parametrize(
    "raw", [b"\x80\x00", b"\xff" * 10 + b"\x01", b"\x80"], ids=["overlong", "65-bit", "cut"]
)
def test_malformed_varints_raise(raw):
    blob = bytes([codec.T_LIST]) + raw
    with pytest.raises(codec.WireFormatError):
        codec.decode_payload(blob)


@pytest.mark.bigkey
def test_round_trip_at_production_key_size():
    """The 2048-bit production setting: same codec, same bit-fidelity."""
    pk, sk = generate_paillier_keypair(2048, seed=7)
    ring = ring_for(pk)
    values = np.random.default_rng(9).normal(size=(2, 36))
    tensor = CryptoTensor.encrypt(pk, values, obfuscate=False)
    decoded = codec.decode_payload(codec.encode_payload(tensor), ring)
    np.testing.assert_array_equal(decoded.decrypt(sk), tensor.decrypt(sk))
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=4096)
    assert layout.slots >= 16  # the ~18-lane production layout
    packed = PackedCryptoTensor.encrypt(pk, values, layout, obfuscate=False)
    back = codec.decode_payload(codec.encode_payload(packed), ring)
    assert back.cts == packed.cts
    np.testing.assert_array_equal(back.decrypt(sk), packed.decrypt(sk))
    # One 2048-bit ciphertext costs 512 wire bytes, as accounted.
    blob = codec.encode_payload(packed)
    _, _, body = codec.split_payload(blob)
    assert len(body) == packed.n_ciphertexts * 512
    # ...and the header does not grow with the key.
    for payload in (tensor, packed, CryptoTensor.encrypt(pk, 2.0)):
        _assert_reconciled(payload)


# ---------------------------------------------------------------------------
# Loud errors.


class _Opaque:
    pass


def test_unknown_payload_type_raises_loudly():
    with pytest.raises(codec.UnsupportedWireType, match="_Opaque"):
        codec.encode_payload(_Opaque())


def test_object_dtype_array_rejected(keys):
    pk, _ = keys[128]
    tensor = CryptoTensor.encrypt(pk, np.ones(2))
    with pytest.raises(codec.UnsupportedWireType, match="object-dtype"):
        codec.encode_payload(tensor.residues)  # the raw residue array, not the tensor


def test_serializing_channel_rejects_unknown_payloads():
    ch = SerializingChannel()
    with pytest.raises(codec.UnsupportedWireType):
        ch.send("A", "B", "t", _Opaque(), MessageKind.PUBLIC)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda f: f[:-1],  # truncated
        lambda f: b"XX" + f[2:],  # bad magic
        lambda f: f[:2] + bytes([99]) + f[3:],  # unknown version
        lambda f: f[:3] + bytes([0x7A]) + f[4:],  # unknown frame kind
        lambda f: f + b"\x00",  # trailing bytes
    ],
    ids=["truncated", "magic", "version", "frame-kind", "trailing"],
)
def test_malformed_frames_raise(mutate):
    frame = codec.encode_message(
        Message("A", "B", "t", MessageKind.PUBLIC, 1, seq=1)
    )
    with pytest.raises(codec.WireFormatError):
        codec.decode_message(mutate(frame))


def test_wrong_residue_count_raises(keys):
    pk, _ = keys[128]
    tensor = CryptoTensor.encrypt(pk, np.ones((2, 2)))
    blob = codec.encode_payload(tensor)
    with pytest.raises(codec.WireFormatError):
        codec.decode_payload(blob[:-16], ring_for(pk))


def test_residues_outside_the_ring_are_refused(keys):
    """One ciphertext, one encoding: a residue ``c + n^2`` would decrypt
    like ``c``, and ``0`` or ``n^2`` is no ciphertext at all — each is
    refused at decode, in per-element and packed frames alike."""
    pk, sk = keys[256]
    width = codec._residue_width(pk.n)
    ring = ring_for(pk)
    for payload in (
        CryptoTensor.encrypt(pk, np.ones(3), obfuscate=False),
        PackedCryptoTensor.encrypt(pk, np.ones((1, 3)), _layout(pk), obfuscate=False),
    ):
        blob = codec.encode_payload(payload)
        last = int.from_bytes(blob[-width:], "big")  # the body ends in a residue
        assert last + pk.nsquare < 1 << (8 * width)  # the forgery fits its slot
        for bad in (last + pk.nsquare, 0, pk.nsquare):
            forged = blob[:-width] + bad.to_bytes(width, "big")
            with pytest.raises(codec.WireFormatError, match=r"not a residue in \[1, n\^2\)"):
                codec.decode_payload(forged, ring)
        np.testing.assert_array_equal(
            codec.decode_payload(blob, ring).decrypt(sk), payload.decrypt(sk)
        )


def _bigint_blob(code: int, sign: int, magnitude: bytes) -> bytes:
    """A payload blob whose header is one hand-built bigint field."""
    header = bytes([sign]) + len(magnitude).to_bytes(4, "big") + magnitude
    return bytes([code]) + codec._uvar(len(header)) + header


def test_non_canonical_bigints_are_refused(keys):
    """``_bigint`` writes one encoding per integer; ``-0``, an empty
    magnitude and a leading zero byte are refused, in ``T_INT`` values and
    ``T_PUBLIC_KEY`` moduli alike."""
    pk, _ = keys[128]
    modulus = pk.n.to_bytes((pk.key_bits + 7) // 8, "big")
    for code, canonical, value in (
        (codec.T_INT, b"\x05", 5),
        (codec.T_INT, b"\x00", 0),
        (codec.T_PUBLIC_KEY, modulus, pk),
    ):
        assert codec.decode_payload(_bigint_blob(code, 0, canonical)) == value
        for sign, magnitude in ((1, b"\x00"), (0, b""), (0, b"\x00" + canonical)):
            with pytest.raises(codec.WireFormatError):
                codec.decode_payload(_bigint_blob(code, sign, magnitude))
    assert codec.decode_payload(_bigint_blob(codec.T_INT, 1, b"\x05")) == -5


# ---------------------------------------------------------------------------
# payload_nbytes vs measured frames (the estimator-drift satellite).
#
# The estimator prices payload *bodies*; the codec adds framing (type byte,
# lengths, key fingerprint, shapes, exponents).  For every payload type the
# body must match the estimate exactly, and the header must stay within a
# small bound that depends only on public structure (shape rank), never on
# the data — nor on the key size, since headers name the key by fingerprint.

HEADER_ALLOWANCE = 96  # type byte + lengths + shape + layout + exponent slack


def _assert_reconciled(payload):
    est = payload_nbytes(payload)
    blob = codec.encode_payload(payload)
    _, header, body = codec.split_payload(blob)
    assert len(body) == est
    assert len(blob) - est <= HEADER_ALLOWANCE


def test_estimator_matches_frames_for_arrays():
    _assert_reconciled(np.random.default_rng(0).normal(size=(7, 3)))
    _assert_reconciled(np.arange(11, dtype=np.int64))
    _assert_reconciled(np.zeros((0, 4)))


@pytest.mark.parametrize("bits", KEY_GRID)
def test_estimator_matches_frames_for_cipher_payloads(keys, bits):
    pk, _ = keys[bits]
    tensor = CryptoTensor.encrypt(pk, np.random.default_rng(1).normal(size=(4, 3)))
    _assert_reconciled(tensor)
    _assert_reconciled(CryptoTensor.encrypt(pk, 2.0))


def test_estimator_matches_frames_for_packed_payloads(keys):
    pk, _ = keys[256]
    layout = _layout(pk)
    packed = PackedCryptoTensor.encrypt(
        pk, np.random.default_rng(2).normal(size=(4, 6)), layout
    )
    _assert_reconciled(packed)
    contig = PackedCryptoTensor.encrypt(
        pk, np.random.default_rng(3).normal(size=(4, 6)), layout, contiguous=True
    )
    _assert_reconciled(contig)


def test_serializing_channel_records_measured_bytes(keys):
    """The honest-bytes tier accounts len(frame), not the estimate."""
    pk, _ = keys[128]
    ch = SerializingChannel()
    ch.register_public_key(pk)
    tensor = CryptoTensor.encrypt(pk, np.ones((3, 2)))
    frame_len = len(
        codec.encode_message(
            Message("A", "B", "t", MessageKind.CIPHERTEXT, tensor, seq=1)
        )
    )
    ch.send("A", "B", "t", tensor, MessageKind.CIPHERTEXT)
    assert ch.bytes_by_sender["A"] == frame_len
    assert ch.total_bytes() > payload_nbytes(tensor)  # framing is real bytes
    received = ch.recv("B", "t")
    assert received.public_key is pk
    # In-memory tier on the same message still uses the estimator.
    mem = Channel()
    mem.send("A", "B", "t", tensor, MessageKind.CIPHERTEXT)
    assert mem.bytes_by_sender["A"] == payload_nbytes(tensor)
