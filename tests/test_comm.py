"""Tests for the channel/party runtime."""

import dataclasses

import numpy as np
import pytest

from repro.comm import codec
from repro.comm.channel import (
    Channel,
    SerializingChannel,
    make_channel,
    payload_nbytes,
)
from repro.comm.message import Message, MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.crypto.crypto_tensor import CryptoTensor


def test_send_recv_fifo():
    ch = Channel()
    ch.send("A", "B", "t1", 1, MessageKind.PUBLIC)
    ch.send("A", "B", "t2", 2, MessageKind.PUBLIC)
    assert ch.recv("B", "t1") == 1
    assert ch.recv("B", "t2") == 2


def test_recv_empty_raises():
    ch = Channel()
    with pytest.raises(LookupError):
        ch.recv("B")


def test_recv_tag_mismatch_raises():
    ch = Channel()
    ch.send("A", "B", "x", 1, MessageKind.PUBLIC)
    with pytest.raises(LookupError, match="desync"):
        ch.recv("B", "y")


def test_self_send_rejected():
    ch = Channel()
    with pytest.raises(ValueError):
        ch.send("A", "A", "t", 1, MessageKind.PUBLIC)


def test_transcript_and_views():
    ch = Channel()
    ch.send("A", "B", "t", 1, MessageKind.SHARE)
    ch.send("B", "A", "u", 2, MessageKind.CIPHERTEXT)
    assert len(ch.transcript) == 2
    assert [m.tag for m in ch.view_of("B")] == ["t"]
    assert [m.tag for m in ch.view_of("A")] == ["u"]
    assert ch.messages_by_kind[MessageKind.SHARE] == 1
    ch.recv("B")
    ch.recv("A")


def test_byte_accounting(ctx):
    # Ciphertext bytes derive from the *actual* key: a ciphertext lives mod
    # n^2, i.e. 2 * key_bits / 8 bytes (the test context uses short keys).
    # The in-memory tier charges exactly the estimator; the serializing
    # tier charges the measured frame (estimate + small framing overhead).
    cipher_bytes = 2 * ctx.B.public_key.key_bits // 8
    serializing = isinstance(ctx.channel, SerializingChannel)
    arr = np.ones((4, 4))
    ctx.channel.send("A", "B", "t", arr, MessageKind.SHARE)
    sent = ctx.channel.bytes_by_sender["A"]
    if serializing:
        assert arr.nbytes < sent <= arr.nbytes + 128
    else:
        assert sent == arr.nbytes
    ct = CryptoTensor.encrypt(ctx.B.public_key, np.ones(3))
    ctx.channel.send("A", "B", "c", ct, MessageKind.CIPHERTEXT)
    estimate = arr.nbytes + 3 * cipher_bytes
    if serializing:
        assert estimate < ctx.channel.total_bytes() <= estimate + 256
    else:
        assert ctx.channel.total_bytes() == estimate
    ctx.channel.recv("B")
    ctx.channel.recv("B")


def test_payload_nbytes_variants(ctx):
    assert payload_nbytes(3) == 8
    assert payload_nbytes([np.ones(2), 1.0]) == 16 + 8
    # Strings/bytes are priced at their body size; None carries nothing.
    assert payload_nbytes("metadata") == len(b"metadata")
    assert payload_nbytes(b"\x00\x01") == 2
    assert payload_nbytes(True) == 1
    assert payload_nbytes(None) == 0
    enc = CryptoTensor.encrypt(ctx.A.public_key, 1.0)  # one ciphertext
    # Derived from the key (128-bit test keys here)...
    assert payload_nbytes(enc) == 2 * ctx.A.public_key.key_bits // 8
    # ... unless the caller pins an explicit per-ciphertext size.
    assert payload_nbytes(enc, cipher_bytes=512) == 512


def test_payload_nbytes_numpy_scalars():
    """Regression: numpy scalars are priced at their storage width.

    ``np.int64`` is *not* a Python ``int`` subclass, so an integer that
    came off an ndarray (``arr[0]``, ``arr.sum()``) used to fall through
    every branch and raise the unpriceable-payload TypeError."""
    assert payload_nbytes(np.int64(7)) == 8
    assert payload_nbytes(np.int32(7)) == 4
    assert payload_nbytes(np.float64(1.5)) == 8
    assert payload_nbytes(np.float32(1.5)) == 4
    assert payload_nbytes(np.bool_(True)) == 1
    # The exact shapes that bit in practice: values plucked off arrays.
    arr = np.arange(5, dtype=np.int64)
    assert payload_nbytes(arr[0]) == 8
    assert payload_nbytes(arr.sum()) == 8
    assert payload_nbytes([arr[0], arr[1]]) == 16


def test_payload_nbytes_prices_exactly_what_the_codec_encodes():
    """Regression: the estimator priced a ``dict``, which the codec refuses,
    so a dict crossed ``channel="memory"`` and failed only on bytes.  A
    payload kind is priced if and only if ``encode_payload`` accepts it, so
    the memory tier refuses at the send site what the wire would."""
    from repro.crypto.packing import PackedCryptoTensor, protocol_layout

    ctx = VFLContext(VFLConfig(key_bits=256), seed=1)
    pk = ctx.A.public_key
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=16)
    kinds = {
        "none": None, "bool": True, "int": 3, "float": 1.5, "str": "tag",
        "bytes": b"\x01", "bytearray": bytearray(b"\x01"), "list": [1.0, np.ones(2)],
        "tuple": (1, "a"), "ndarray": np.ones((2, 3)), "numpy scalar": np.int64(7),
        "structured array": np.zeros(2, dtype=[("a", "<f8")]),
        "scalar tensor": CryptoTensor.encrypt(pk, 1.0),
        "tensor": CryptoTensor.encrypt(pk, np.ones((2, 2))),
        "packed tensor": PackedCryptoTensor.encrypt(pk, np.ones((2, 2)), layout),
        "public key": pk,
        "dict": {"k": 1.0}, "empty dict": {}, "dict in a list": [{"k": 1.0}],
        "object array": np.array([object()]), "private key": ctx.A.private_key,
        "party": ctx.A, "object": object(),
    }

    def works(fn, payload) -> bool:
        try:
            fn(payload)
        except TypeError:  # UnsupportedWireType is one
            return False
        return True

    verdicts = {
        name: (works(codec.encode_payload, p), works(payload_nbytes, p))
        for name, p in kinds.items()
    }
    assert [name for name, (encoded, priced) in verdicts.items() if encoded != priced] == []
    assert [name for name, (encoded, _) in verdicts.items() if not encoded] == [
        "dict", "empty dict", "dict in a list", "object array", "private key",
        "party", "object",
    ]
    with pytest.raises(TypeError, match="cannot price payload type dict"):
        Channel().send("A", "B", "t", {"k": 1.0}, MessageKind.PUBLIC)


def test_bytes_by_sender_probe_does_not_mutate_ledger():
    """Regression: the ledger was a ``defaultdict(int)``, so a
    reconciliation probe of a never-sent party *planted a zero entry on
    read* — masking a missing sender from byte-equality checks."""
    ch = Channel()
    ch.send("A", "B", "t", 1.0, MessageKind.PUBLIC)
    assert "B" not in ch.bytes_by_sender
    with pytest.raises(KeyError):
        ch.bytes_by_sender["B"]  # probing must not invent a zero entry
    assert "B" not in ch.bytes_by_sender
    assert ch.bytes_by_sender.get("B", 0) == 0
    assert set(ch.bytes_by_sender) == {"A"}
    ch.recv("B")


def test_payload_nbytes_production_key_is_512():
    """At the paper's 2048-bit deployment keys the old constant is exact."""
    from repro.crypto.paillier import PaillierPublicKey

    pk = PaillierPublicKey((1 << 2047) + 1)  # any 2048-bit modulus will do
    enc = CryptoTensor.zeros(pk, ())  # one ciphertext, no encryption needed
    assert payload_nbytes(enc) == 512


def test_payload_nbytes_rejects_unpriceable_payloads():
    """An unknown payload type fails at the accounting site, not with a
    silent 0-byte undercount (the codec refuses to serialise it anyway)."""

    class Opaque:
        pass

    with pytest.raises(TypeError, match="cannot price"):
        payload_nbytes(Opaque())
    with pytest.raises(TypeError, match="cannot price"):
        payload_nbytes([1.0, Opaque()])  # nested inside a container too


def test_reset_stats_requires_drained_queues():
    ch = Channel()
    ch.send("A", "B", "t", 1, MessageKind.PUBLIC)
    with pytest.raises(RuntimeError):
        ch.reset_stats()
    ch.recv("B")
    ch.reset_stats()
    assert ch.transcript == [] and ch.total_bytes() == 0


def test_context_two_party_default(ctx):
    assert ctx.A.name == "A" and ctx.B.name == "B"
    assert ctx.A.peer_key("B") == ctx.B.public_key
    assert ctx.B.peer_key("A") == ctx.A.public_key
    assert ctx.A.public_key != ctx.B.public_key


def test_context_multi_party():
    mctx = VFLContext(VFLConfig(key_bits=128), seed=3, n_a_parties=3)
    names = [p.name for p in mctx.a_parties()]
    assert names == ["A1", "A2", "A3"]
    assert mctx.parties["A2"].peer_key("B") == mctx.B.public_key
    assert mctx.parties["A1"].public_key != mctx.parties["A2"].public_key


def test_context_validation():
    with pytest.raises(ValueError):
        VFLContext(n_a_parties=0)
    with pytest.raises(ValueError):
        VFLConfig(share_refresh="bogus")


def test_peer_key_unknown_party(ctx):
    with pytest.raises(KeyError):
        ctx.A.peer_key("C")


# ---------------------------------------------------------------------------
# Channel tiers (factory, serializing semantics, context plumbing).


def test_make_channel_factory():
    assert type(make_channel("memory")) is Channel
    assert type(make_channel("serializing")) is SerializingChannel
    with pytest.raises(ValueError, match="unknown channel kind"):
        make_channel("carrier-pigeon")
    with pytest.raises(ValueError, match="channel must be one of"):
        VFLConfig(channel="carrier-pigeon")


def test_config_channel_knob_selects_tier():
    mem = VFLContext(VFLConfig(key_bits=128), seed=1)
    ser = VFLContext(VFLConfig(key_bits=128, channel="serializing"), seed=1)
    assert type(mem.channel) is Channel
    assert type(ser.channel) is SerializingChannel
    # The context registered its party keys with the codec ring.
    assert set(ser.channel.key_ring) == {
        p.public_key.n for p in ser.parties.values()
    }


def test_serializing_channel_delivers_decoded_objects(ctx):
    """What the receiver gets is rebuilt from bytes, not the sent object."""
    if not isinstance(ctx.channel, SerializingChannel):
        pytest.skip("serializing tier only")
    ct = CryptoTensor.encrypt(ctx.A.public_key, np.ones((2, 2)))
    ctx.channel.send("B", "A", "t", ct, MessageKind.CIPHERTEXT)
    received = ctx.channel.recv("A", "t")
    assert received is not ct  # a new object decoded from the frame...
    assert received.public_key is ctx.A.public_key  # ...on the live key
    assert np.array_equal(received.residues, ct.residues)


def test_serializing_transcript_frames_reencode_identically(ctx):
    """Transcript messages re-encode to the exact nbytes they recorded."""
    if not isinstance(ctx.channel, SerializingChannel):
        pytest.skip("serializing tier only")
    ctx.channel.send("A", "B", "x", np.arange(5.0), MessageKind.SHARE)
    ctx.channel.send("B", "A", "y", 7, MessageKind.PUBLIC)
    for msg in ctx.channel.transcript:
        assert len(codec.encode_message(msg)) == msg.nbytes
    ctx.channel.recv("B")
    ctx.channel.recv("A")


def test_channel_is_fixed_at_context_construction():
    """The tier comes from ``VFLConfig.channel`` or a ready instance handed
    to the constructor (which wins, and gets the party keys registered);
    the built context has no way to swap it."""
    ready = make_channel("serializing")
    ctx = VFLContext(VFLConfig(key_bits=128), seed=5, channel=ready)
    assert ctx.channel is ready
    assert set(ready.key_ring) == {p.public_key.n for p in ctx.parties.values()}
    assert not hasattr(ctx, "set_channel")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.config.channel = "memory"


def test_message_kind_wire_codes_round_trip():
    for kind in MessageKind:
        assert MessageKind.from_wire(kind.wire_code) is kind
    with pytest.raises(ValueError):
        MessageKind.from_wire(0)
