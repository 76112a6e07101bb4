"""Duplex channels between federated parties — the three transport tiers.

The paper runs each party on its own server over a 10 Gbps link.  Three
interchangeable channel tiers model that link:

1. :class:`Channel` — in-memory reference passing inside one process.
   Fastest, but payloads cross as live Python objects; byte counts are
   *estimates* (:func:`payload_nbytes`).  What matters for fidelity is that
   (a) *every* cross-party value goes through ``send``/``recv`` — protocol
   code never reads the other party's state directly — and (b) the channel
   records a complete transcript, which is exactly the "view" the
   ideal-real security analysis (and our empirical attack suite) reasons
   about.
2. :class:`SerializingChannel` — same process, but every payload round-trips
   through the wire codec (``encode -> decode``) on each send.  The
   receiver only ever sees what the bytes carry, ``nbytes`` is the
   *measured* frame length, and an unserialisable payload fails loudly at
   the send site.  This is the honest-bytes tier the protocol tests run
   against.
3. :class:`~repro.comm.fabric.FabricChannel` — one OS process per
   endpoint, real TCP links between them (see :mod:`repro.comm.fabric`).
   Same codec; each endpoint runs, sends and receives for its own parties
   only, and frames actually cross the kernel's network stack.

All tiers share transcript capture, FIFO-per-receiver delivery, tag-checked
receives and per-sender byte accounting, so protocol code and the security
test-suite are transport-agnostic.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

from repro.comm import codec
from repro.comm.message import Message, MessageKind
from repro.obs import tracer as _obs

__all__ = [
    "Channel",
    "CodecChannel",
    "SerializingChannel",
    "make_channel",
    "payload_nbytes",
]


def payload_nbytes(payload: object, cipher_bytes: int | None = None) -> int:
    """Estimate the wire size of a payload.

    A Paillier ciphertext lives mod ``n**2``, so it costs ``2 * key_bits /
    8`` bytes — derived from the *actual* public key the payload carries
    (512 B for the paper's 2048-bit production keys).  Callers may pin an
    explicit ``cipher_bytes``; 512 B is only the fallback for payloads
    that carry no key.  Encrypted tensors are charged per *ciphertext*
    (``n_ciphertexts``), not per logical element — the ``slots``-fold
    bandwidth saving the packing subsystem exists for.  Numpy arrays cost
    their buffer size.

    This estimator prices payload *bodies* only; the codec adds a small
    fixed framing overhead (preamble, routing strings, shape/exponent
    headers) on top.  ``tests/test_codec.py`` pins the two against each
    other, and :class:`SerializingChannel` records the measured frame
    length instead of calling this at all.  It prices exactly the payloads
    the codec encodes and refuses the rest (a ``dict``, an object array),
    so the in-memory tier carries nothing the wire would not.
    """
    # Local import: crypto depends on comm for HE2SS, so keep this lazy.
    from repro.crypto.crypto_tensor import CryptoTensor
    from repro.crypto.packing import PackedCryptoTensor
    from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey

    def _ct_bytes(public_key: object) -> int:
        if cipher_bytes is not None:
            return cipher_bytes
        key_bits = getattr(public_key, "key_bits", None)
        if key_bits is None:
            return 512  # no key in sight: assume the production key size
        return 2 * ((key_bits + 7) // 8)

    if isinstance(payload, (CryptoTensor, PackedCryptoTensor)):
        return payload.n_ciphertexts * _ct_bytes(payload.public_key)
    if isinstance(payload, EncryptedNumber):
        return _ct_bytes(payload.public_key)
    if isinstance(payload, PaillierPublicKey):
        return (payload.key_bits + 7) // 8  # the modulus n
    if isinstance(payload, (np.ndarray, np.generic)) and not payload.dtype.hasobject:
        # Numpy *scalars* (np.int64 off an ndarray, np.float32, np.bool_)
        # are not Python int/float subclasses across the board, so they
        # must be priced before the builtin branches — at their actual
        # storage width, which numpy exposes directly.
        return payload.nbytes
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(p, cipher_bytes) for p in payload)
    if isinstance(payload, bool):  # before int: bool is an int subclass
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if payload is None:
        return 0
    # Anything else used to be silently priced at 0 bytes — an unpriceable
    # payload now fails at the accounting site, mirroring the codec's
    # UnsupportedWireType refusal at the serialisation site.
    raise TypeError(
        f"cannot price payload type {type(payload).__name__}: it has no "
        f"known wire size (and no wire format — see repro.comm.codec)"
    )


class Channel:
    """FIFO message transport with transcript capture and byte accounting.

    Subclasses customise two hooks: :meth:`_transcode` (what happens to a
    message between send and delivery — the serializing tier round-trips
    it through the wire codec here) and :meth:`_deliver` (how the message
    reaches the receiver — the fabric writes frames to a link).
    """

    def __init__(self, record_transcript: bool = True):
        self.record_transcript = record_transcript
        self.transcript: list[Message] = []
        # Plain dict on purpose: the ledger is read by reconciliation
        # probes (telemetry byte-equality, bench gates), and a defaultdict
        # would *mutate on read* — probing a never-sent party must not
        # plant a zero entry that masks the sender being missing.
        self.bytes_by_sender: dict[str, int] = {}
        self.messages_by_kind: dict[MessageKind, int] = defaultdict(int)
        self._queues: dict[str, deque[Message]] = defaultdict(deque)
        self._seq = 0

    def send(
        self,
        sender: str,
        receiver: str,
        tag: str,
        payload: object,
        kind: MessageKind,
    ) -> None:
        """Enqueue a message for ``receiver``."""
        if sender == receiver:
            raise ValueError("a party cannot message itself")
        self._seq += 1
        msg = Message(
            sender=sender,
            receiver=receiver,
            tag=tag,
            kind=kind,
            payload=payload,
            seq=self._seq,
        )
        trc = _obs.get_tracer()
        with (
            _obs._NULL_SPAN
            if trc is None
            else trc.span("send", party=sender, tag=tag, to=receiver)
        ):
            msg = self._transcode(msg)
            self._account(msg)
            if self.record_transcript:
                self.transcript.append(msg)
            self._deliver(msg)
        # The traced byte counters mirror bytes_by_sender exactly (same
        # nbytes, same send site), attributed to the span in flight around
        # the call — the ``send`` span itself is closed again, so the
        # per-phase byte rows of a fold stay where they were.
        if trc is not None:
            trc.add("frames.sent", 1)
            trc.add("bytes.sent", msg.nbytes)
            trc.add("bytes.sent." + sender, msg.nbytes)

    def _account(self, msg: Message) -> None:
        """Hook: record a message in the byte/kind ledgers.

        Kept separate from :meth:`send` so tiers whose frames arrive on
        background threads (the N-party fabric) can lock the same ledger
        for inbound traffic.
        """
        self.bytes_by_sender[msg.sender] = (
            self.bytes_by_sender.get(msg.sender, 0) + msg.nbytes
        )
        self.messages_by_kind[msg.kind] += 1

    def _transcode(self, msg: Message) -> Message:
        """Hook: transform a message before accounting and delivery.

        The base tier prices the payload with the estimator here; tiers
        that encode real frames replace this wholesale with the measured
        frame length, so the O(size) estimate is never computed for them.
        """
        msg.nbytes = payload_nbytes(msg.payload)
        return msg

    def _deliver(self, msg: Message) -> None:
        """Hook: hand a transcoded message to its receiver."""
        self._queues[msg.receiver].append(msg)

    def register_public_key(self, public_key: object) -> None:
        """Hook: tiers with a codec key ring register party keys here.

        The in-memory tier passes objects by reference and needs no ring;
        this no-op lets :class:`~repro.comm.party.VFLContext` register its
        keys unconditionally.
        """

    def recv(self, receiver: str, tag: str | None = None) -> object:
        """Dequeue the next message addressed to ``receiver``.

        When ``tag`` is given, the protocol asserts it expects that step —
        a mismatch means two protocol sides ran out of sync, which we want
        to fail loudly rather than mis-deliver.
        """
        with _obs.span("recv", party=receiver, tag=tag):
            queue = self._queues[receiver]
            if not queue:
                raise LookupError(f"no pending message for party {receiver!r}")
            msg = queue.popleft()
            if tag is not None and msg.tag != tag:
                raise LookupError(
                    f"protocol desync: party {receiver!r} expected tag {tag!r} "
                    f"but next message is {msg.tag!r}"
                )
            return msg.payload

    def pending(self, receiver: str) -> int:
        """Number of undelivered messages for a party."""
        return len(self._queues[receiver])

    def view_of(self, party: str) -> list[Message]:
        """All messages a party received — its protocol 'view'."""
        return [m for m in self.transcript if m.receiver == party]

    def total_bytes(self) -> int:
        return sum(self.bytes_by_sender.values())

    def reset_stats(self) -> None:
        """Clear transcript and counters (queues must already be drained)."""
        for receiver, queue in self._queues.items():
            if queue:
                raise RuntimeError(
                    f"cannot reset channel with {len(queue)} undelivered "
                    f"messages for {receiver!r}"
                )
        self.transcript.clear()
        self.bytes_by_sender.clear()
        self.messages_by_kind.clear()
        self._seq = 0


class CodecChannel(Channel):
    """Shared base for the tiers that move real frames through the codec.

    Holds the key ring decoded payloads are resolved against: ciphertext
    headers name their key by fingerprint, and party keys registered via
    :meth:`register_public_key` are what those fingerprints resolve to, so
    decoded tensors share the original seeded key objects and whole
    training trajectories stay bit-identical to the in-memory tier.
    """

    def __init__(self, record_transcript: bool = True):
        super().__init__(record_transcript)
        self.key_ring: dict[int, object] = {}

    def register_public_key(self, public_key: object) -> None:
        codec.register_key(self.key_ring, public_key)


class SerializingChannel(CodecChannel):
    """In-process channel that forces every payload through honest bytes.

    Each ``send`` encodes the full message to a wire frame and delivers
    the *decoded* frame: the receiver's object is reconstructed purely
    from bytes, ``nbytes`` is the measured ``len(frame)``, and a payload
    the codec cannot express raises at the send site.
    """

    def _transcode(self, msg: Message) -> Message:
        frame = codec.encode_message(msg)
        return codec.decode_message(frame, key_ring=self.key_ring)


CHANNEL_KINDS = ("memory", "serializing")


def make_channel(kind: str, record_transcript: bool = True) -> Channel:
    """Channel factory for the in-process tiers.

    ``"memory"`` passes objects by reference (fastest); ``"serializing"``
    round-trips every payload through the wire codec (honest bytes,
    measured sizes).  The fabric tier is not constructible here — it is one
    process per endpoint; see :func:`repro.comm.fabric.run_federation`.
    """
    if kind == "memory":
        return Channel(record_transcript=record_transcript)
    if kind == "serializing":
        return SerializingChannel(record_transcript=record_transcript)
    raise ValueError(
        f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}"
    )
