"""Fuzz/property suite for the wire codec's failure behaviour.

The property under test: *no* malformed frame — truncated, bit-flipped,
length-lied, wrong-magic — is ever decoded into a partial payload or
causes a hang.  Every mutation must raise :class:`WireFormatError` (with
CRC disagreements classified as :class:`FrameIntegrityError`), across all
three frame kinds (message, bare payload, hello).

The schedules are seeded, so a failing case replays exactly.
"""

import zlib
from functools import partial

import numpy as np
import pytest

from repro.comm import codec
from repro.comm.message import Message, MessageKind
from repro.crypto.crypto_tensor import CryptoTensor
from repro.crypto.paillier import generate_paillier_keypair

PK, _SK = generate_paillier_keypair(128, seed=77)


@pytest.fixture(scope="module")
def frames():
    """One representative frame per kind, with crypto-bearing payloads."""
    ct = CryptoTensor.encrypt(PK, np.arange(4.0).reshape(2, 2))
    message = codec.encode_message(
        Message(
            sender="A", receiver="B", tag="fuzz.t", kind=MessageKind.CIPHERTEXT,
            payload=[ct, np.arange(3.0), ("nested", 7, None)], seq=9,
        )
    )
    payload = codec.encode_payload_frame((True, 2.5, b"\x00\x01", [1, 2, 3]))
    hello = codec.encode_hello(["A", "B"], [PK])
    return {"message": message, "payload": payload, "hello": hello}


def _decoders(kind):
    """Every decode entry point that accepts this frame kind, against a
    ring that knows the frames' key (so only the mutation can fail them)."""
    decode = {
        "message": codec.decode_message,
        "payload": codec.decode_payload_frame,
        "hello": codec.decode_hello,
    }[kind]
    return [partial(decode, key_ring={PK.n: PK})]


def test_unmutated_frames_decode(frames):
    for kind, frame in frames.items():
        for decode in _decoders(kind):
            decode(frame)


def _assert_rejected(kind, frame):
    """The frame must raise WireFormatError from every relevant decoder."""
    for decode in _decoders(kind):
        with pytest.raises(codec.WireFormatError):
            decode(frame)
    with pytest.raises(codec.WireFormatError):
        codec.check_frame(frame)


@pytest.mark.parametrize("kind", ["message", "payload", "hello"])
def test_truncation_at_every_boundary_raises(frames, kind):
    """Prefixes cut inside the preamble, body and CRC trailer all raise."""
    frame = frames[kind]
    cuts = {0, 1, codec.PREAMBLE_SIZE - 1, codec.PREAMBLE_SIZE,
            codec.PREAMBLE_SIZE + 1, len(frame) // 2,
            len(frame) - codec.CRC_SIZE - 1, len(frame) - codec.CRC_SIZE,
            len(frame) - 1}
    rng = np.random.default_rng(101)
    cuts |= set(int(x) for x in rng.integers(0, len(frame), size=32))
    for cut in sorted(cuts):
        if cut >= len(frame):
            continue
        _assert_rejected(kind, frame[:cut])


@pytest.mark.parametrize("kind", ["message", "payload", "hello"])
def test_seeded_bit_flips_always_raise(frames, kind):
    """A single flipped bit anywhere in the frame is always detected.

    Body and trailer flips break the CRC (FrameIntegrityError); preamble
    flips break magic/version/kind/length first — either way the decode
    raises instead of returning garbage.
    """
    frame = frames[kind]
    rng = np.random.default_rng(202)
    positions = {(int(o), int(b)) for o, b in zip(
        rng.integers(0, len(frame), size=96), rng.integers(0, 8, size=96)
    )}
    # Force coverage of every structural region regardless of the draw.
    positions |= {(0, 0), (2, 0), (3, 1), (5, 7),
                  (codec.PREAMBLE_SIZE, 0), (len(frame) - 1, 3)}
    for offset, bit in sorted(positions):
        mutated = bytearray(frame)
        mutated[offset] ^= 1 << bit
        _assert_rejected(kind, bytes(mutated))


@pytest.mark.parametrize("kind", ["message", "payload", "hello"])
def test_body_corruption_is_classified_as_integrity_error(frames, kind):
    """Flips strictly inside the body are CRC failures, i.e. retryable."""
    frame = frames[kind]
    rng = np.random.default_rng(303)
    body_span = len(frame) - codec.PREAMBLE_SIZE - codec.CRC_SIZE
    for offset in rng.integers(0, body_span, size=16):
        mutated = bytearray(frame)
        mutated[codec.PREAMBLE_SIZE + int(offset)] ^= 0x10
        for decode in _decoders(kind):
            with pytest.raises(codec.FrameIntegrityError):
                decode(bytes(mutated))


@pytest.mark.parametrize("kind", ["message", "payload", "hello"])
def test_length_field_lies_raise(frames, kind):
    """A length field that disagrees with the byte count is structural."""
    frame = frames[kind]
    true_len = len(frame) - codec.PREAMBLE_SIZE - codec.CRC_SIZE
    for lied in (0, true_len - 1, true_len + 1, true_len + 4096, 0xFFFFFFFF):
        if lied == true_len:
            continue
        mutated = bytearray(frame)
        mutated[4:8] = int(lied).to_bytes(4, "big")
        with pytest.raises(codec.WireFormatError):
            codec.check_frame(bytes(mutated))


@pytest.mark.parametrize("kind", ["message", "payload", "hello"])
def test_consistent_length_lie_with_fixed_crc_still_raises(frames, kind):
    """The adversarial case: truncate the body AND repair length + CRC.

    The frame-level checks now pass, so the *payload* parser must reject
    it — the partially-decoded payload is never returned.
    """
    frame = frames[kind]
    true_len = len(frame) - codec.PREAMBLE_SIZE - codec.CRC_SIZE
    cut = true_len - 3
    head = bytearray(frame[: codec.PREAMBLE_SIZE + cut])
    head[4:8] = cut.to_bytes(4, "big")
    forged = bytes(head) + (zlib.crc32(bytes(head)) & 0xFFFFFFFF).to_bytes(4, "big")
    codec.check_frame(forged)  # frame-level checks cannot see this one
    for decode in _decoders(kind):
        with pytest.raises(codec.WireFormatError):
            decode(forged)


@pytest.mark.parametrize("kind", ["message", "payload", "hello"])
def test_wrong_magic_version_and_kind_raise(frames, kind):
    frame = frames[kind]
    for mutate, pattern in (
        (lambda f: b"XX" + f[2:], "magic"),
        (lambda f: f[:2] + bytes([99]) + f[3:], "version"),
        (lambda f: f[:3] + bytes([0x5A]) + f[4:], "kind"),
    ):
        with pytest.raises(codec.WireFormatError, match=pattern):
            codec.check_frame(mutate(frame))


def test_kind_cross_decoding_rejected(frames):
    """Each decoder refuses the other kinds' (well-formed) frames."""
    with pytest.raises(codec.WireFormatError, match="not a protocol message"):
        codec.decode_message(frames["hello"])
    with pytest.raises(codec.WireFormatError, match="not a bare payload"):
        codec.decode_payload_frame(frames["message"])
    with pytest.raises(codec.WireFormatError, match="not a handshake"):
        codec.decode_hello(frames["payload"])


def test_iter_frames_round_trips_and_rejects_truncated_tail(frames):
    stream = frames["payload"] + frames["hello"] + frames["message"]
    kinds = [kind for kind, _ in codec.iter_frames(stream)]
    assert kinds == [codec.FRAME_PAYLOAD, codec.FRAME_HELLO, codec.FRAME_MESSAGE]
    with pytest.raises(codec.WireFormatError, match="truncated frame stream"):
        list(codec.iter_frames(stream[:-2]))
    with pytest.raises(codec.WireFormatError, match="truncated frame stream"):
        list(codec.iter_frames(stream + frames["payload"][:5]))


def test_wire_corruption_detected_at_read_frame():
    """The transport read site classifies corruption before any decode."""
    import socket

    from repro.comm.transport import read_frame

    frame = codec.encode_payload_frame([1.0, 2.0, 3.0])
    corrupted = bytearray(frame)
    corrupted[codec.PREAMBLE_SIZE + 2] ^= 0x40
    left, right = socket.socketpair()
    left.settimeout(1.0)
    right.settimeout(1.0)
    try:
        left.sendall(bytes(corrupted))
        with pytest.raises(codec.FrameIntegrityError, match="CRC32"):
            read_frame(right)
        left.sendall(frame)
        assert read_frame(right) == frame
    finally:
        left.close()
        right.close()


def _uvar(x):
    out = bytearray()
    while x >= 0x80:
        out.append((x & 0x7F) | 0x80)
        x >>= 7
    return bytes(out + bytes((x,)))


@pytest.mark.parametrize(
    "code", [codec.T_NDARRAY, codec.T_CRYPTO_TENSOR], ids=["ndarray", "crypto_tensor"]
)
def test_shape_whose_element_count_overflows_int64_raises(code):
    """``(2**32, 2**32)`` has 2**64 elements, which an int64 product wraps
    to 0 — matching an empty body.  Exact counting refuses it."""
    shape = _uvar(2) + _uvar(2**32) * 2
    if code == codec.T_NDARRAY:
        header = _uvar(3) + b"<f8" + shape
    else:
        header = PK.fingerprint + shape + b"\x01" + (-40).to_bytes(4, "big", signed=True)
    blob = bytes([code]) + _uvar(len(header)) + header
    with pytest.raises(codec.WireFormatError, match="expected"):
        codec.decode_payload(blob, {PK.n: PK})


def _hello_frame(payload):
    """A CRC-valid hello frame around an arbitrary payload."""
    body = codec.encode_payload(payload)
    head = b"BF" + bytes((codec.WIRE_VERSION, codec.FRAME_HELLO)) + len(body).to_bytes(4, "big")
    return head + body + (zlib.crc32(head + body) & 0xFFFFFFFF).to_bytes(4, "big")


@pytest.mark.parametrize(
    "payload, pattern",
    [
        (5, "triple"),
        (("blindfl-wire", ["A"]), "triple"),
        (("blindfl-wire", ["A"], [], "extra"), "triple"),
        (("blindfl-wire", "AB", []), "list of party names"),
        (("blindfl-wire", ["A", 7], []), "list of party names"),
        (("blindfl-wire", ["A"], [PK.n]), "Paillier public keys"),
        (("blindfl-wire", ["A"], PK), "Paillier public keys"),
        (("other-wire", ["A"], []), "unknown protocol"),
    ],
    ids=["scalar", "pair", "quad", "str-parties", "int-party", "int-key", "bare-key", "protocol"],
)
def test_malformed_hello_is_a_wire_format_error(payload, pattern):
    ring = {}
    with pytest.raises(codec.WireFormatError, match=pattern):
        codec.decode_hello(_hello_frame(payload), key_ring=ring)
    assert ring == {}  # a refused hello registers nothing
    parties, keys = codec.decode_hello(_hello_frame(("blindfl-wire", ["A"], [PK])), ring)
    assert (parties, keys, ring) == (["A"], [PK], {PK.n: PK})
