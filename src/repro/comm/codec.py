"""Deterministic wire codec: every cross-party payload as honest bytes.

The in-memory :class:`~repro.comm.channel.Channel` passes live Python
objects by reference, which proves nothing about what actually crosses the
trust boundary.  This module is the single place where protocol payloads
become bytes — the *transcript a party receives* in the sense of the
ideal-real security analysis — and back.  Three properties are load-bearing:

* **Deterministic**: ``encode(x)`` is a pure function of the payload's
  public wire representation (``to_wire()`` on the crypto types), so golden
  transcripts and cross-process runs are byte-reproducible.
* **Complete**: every type that today crosses ``Channel.send`` has a frame
  — tensors of Paillier ciphertexts (per-element and SIMD-packed, with the
  full five-integer :class:`~repro.crypto.packing.SlotLayout` plus
  ``seg_cols`` in the header), numpy arrays, public keys
  (handshake only) and plain Python scalars/containers.  Anything else
  raises :class:`UnsupportedWireType` loudly — an unknown object silently
  crossing the boundary is exactly the bug this module exists to prevent.
  ``PaillierPrivateKey`` (and any carrier exposing one, e.g. a ``Party``)
  is refused by name: there is deliberately *no* wire format for ``(p, q)``
  — private keys must never leave the key owner's process.
* **Non-leaky headers**: packed-tensor headers carry only canonicalised
  layout constants (see ``PackedCryptoTensor.wire_value_bits``); the
  security suite asserts header byte-equality across batches with different
  private magnitudes.

Frame layout (all integers big-endian)::

    preamble   magic   2  b"BF"
               version 1  WIRE_VERSION
               kind    1  frame kind: 0x4D message, 0x50 payload, 0x48 hello
               length  4  body bytes (the CRC trailer is not counted)
    body       ...        frame-kind specific
    trailer    crc32   4  CRC32 over preamble + body

A frame whose stored checksum disagrees with its bytes raises
:class:`FrameIntegrityError` (a classified :class:`WireFormatError`) at the
decode site — a flipped bit on a real link is *detected* instead of
decoding to garbage, and the transport's retransmission sublayer can treat
it as a retryable fault.  Only :data:`WIRE_VERSION` is spoken: a frame of
any other version is refused by its preamble.

A *message* body is ``msg-kind(1) | seq | sender | receiver | tag |
payload-blob`` with strings varint-length-prefixed UTF-8.  A *payload blob*
is ``type(1) | header-length | header | body``; the header holds all
structural metadata (key fingerprint, shapes, exponents, slot layout), the
body the raw fixed-width ciphertext residues or array buffer.  Ciphertext
residues live mod ``n**2`` and are written at the fixed width
``ceil(bitlen(n**2) / 8)`` — the honest wire cost ``payload_nbytes``
estimates.  Decoding is as strict as encoding is deterministic: a residue
outside ``[1, n**2)``, a big integer with a leading zero byte or a ``-0``,
and a varint with a trailing zero group are refused, so every value has
exactly one encoding.

Public counts — ``seq``, string lengths, header lengths, container counts
and item lengths, shape dimensions and the packed ciphertext count — are
unsigned LEB128 varints (canonical: no trailing zero group, at most 64
bits).  Every other field keeps its fixed width (exponents ``i32``, the
five ``SlotLayout`` integers, ``seg_cols``, ``value_bits``, flags), so a
frame's length is a function of public shape alone.

Ciphertext headers name their key by its 8-byte fingerprint
(:attr:`~repro.crypto.paillier.PaillierPublicKey.fingerprint`); the
modulus itself travels only in public-key payloads.  Decoding resolves the
fingerprint against a ``key_ring`` (a mapping ``n -> PaillierPublicKey``):
channels register their parties' key objects, so decoded tensors reference
the *same* seeded key instances, keeping blinding streams — and therefore
whole ciphertext transcripts — bit-reproducible across channel
implementations.  A frame decodes only against a ring that knows its key:
an unknown fingerprint is a :class:`WireFormatError` naming it, and a
hello carries the public keys its sender's channel has registered so that
a peer's ring learns them before the first ciphertext arrives
(:func:`decode_hello` adds only keys the ring lacks).
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.comm.message import Message, MessageKind

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "PREAMBLE_SIZE",
    "CRC_SIZE",
    "FRAME_MESSAGE",
    "FRAME_PAYLOAD",
    "FRAME_HELLO",
    "WireFormatError",
    "FrameIntegrityError",
    "UnsupportedWireType",
    "encode_payload",
    "decode_payload",
    "encode_message",
    "decode_message",
    "encode_payload_frame",
    "encode_hello",
    "decode_hello",
    "register_key",
    "parse_preamble",
    "check_frame",
    "iter_frames",
]

WIRE_MAGIC = b"BF"
WIRE_VERSION = 3
PREAMBLE_SIZE = 8
CRC_SIZE = 4
FINGERPRINT_SIZE = 8  # bytes of PaillierPublicKey.fingerprint in a header

# Frame kinds (the byte after the version).
FRAME_MESSAGE = 0x4D  # "M": a routed protocol message
FRAME_PAYLOAD = 0x50  # "P": a bare payload blob (checkpoint sections)
FRAME_HELLO = 0x48  # "H": transport handshake

# Payload type codes.
T_NONE = 0x00
T_BOOL = 0x01
T_INT = 0x02
T_FLOAT = 0x03
T_STR = 0x04
T_BYTES = 0x05
T_LIST = 0x06
T_TUPLE = 0x07
T_NDARRAY = 0x10
T_PUBLIC_KEY = 0x20
# 0x21 was a scalar ciphertext; it is retired and never reused, so a frame
# carrying it is refused as an unknown type.
T_CRYPTO_TENSOR = 0x22
T_PACKED_TENSOR = 0x23

_TYPE_NAMES = {
    T_NONE: "none",
    T_BOOL: "bool",
    T_INT: "int",
    T_FLOAT: "float",
    T_STR: "str",
    T_BYTES: "bytes",
    T_LIST: "list",
    T_TUPLE: "tuple",
    T_NDARRAY: "ndarray",
    T_PUBLIC_KEY: "public_key",
    T_CRYPTO_TENSOR: "crypto_tensor",
    T_PACKED_TENSOR: "packed_crypto_tensor",
}


class WireFormatError(ValueError):
    """A frame is malformed, truncated, or from an unknown protocol version."""


# repro: api-ok what check_frame / iter_frames raise on a failed CRC
class FrameIntegrityError(WireFormatError):
    """A frame's CRC32 trailer disagrees with its bytes — corruption in
    transit.  Classified separately from structural :class:`WireFormatError`
    so the transport's retransmission sublayer can treat it as retryable
    (ask the peer to resend) instead of a protocol bug."""


class UnsupportedWireType(TypeError):
    """A payload type has no wire representation — it must never be sent."""


def _crypto():
    """Crypto types, imported lazily (comm <-> crypto import order)."""
    global _CRYPTO
    if _CRYPTO is None:
        from repro.crypto.crypto_tensor import CryptoTensor
        from repro.crypto.packing import PackedCryptoTensor, SlotLayout
        from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey

        _CRYPTO = (
            CryptoTensor, PackedCryptoTensor, SlotLayout,
            PaillierPublicKey, PaillierPrivateKey,
        )
    return _CRYPTO


_CRYPTO = None


# ---------------------------------------------------------------------------
# Primitive writers/readers.


def _u8(x: int) -> bytes:
    return struct.pack(">B", x)


def _u32(x: int) -> bytes:
    return struct.pack(">I", x)


def _u64(x: int) -> bytes:
    return struct.pack(">Q", x)


def _i32(x: int) -> bytes:
    return struct.pack(">i", x)


def _uvar(x: int) -> bytes:
    """Unsigned LEB128: seven bits a byte, low group first."""
    if x < 0x80:
        return bytes((x,))
    out = bytearray()
    while x >= 0x80:
        out.append((x & 0x7F) | 0x80)
        x >>= 7
    out.append(x)
    return bytes(out)


def _str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _uvar(len(raw)) + raw


def _bigint(x: int) -> bytes:
    """Sign byte + u32 length + big-endian magnitude (arbitrary precision)."""
    x = int(x)
    sign = 1 if x < 0 else 0
    mag = abs(x)
    raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
    return _u8(sign) + _u32(len(raw)) + raw


def _shape(shape: tuple[int, ...]) -> bytes:
    return _uvar(len(shape)) + b"".join(_uvar(int(dim)) for dim in shape)


class _Reader:
    """Strict cursor over a byte buffer; every read is bounds-checked."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.buf):
            raise WireFormatError(
                f"truncated frame: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def uvar(self) -> int:
        """A canonical unsigned LEB128 varint of at most 64 bits."""
        value = shift = 0
        while True:
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if byte < 0x80 or shift >= 63:
                break
            shift += 7
        if byte >= 0x80 or value >> 64:
            raise WireFormatError(f"varint ending at offset {self.pos} exceeds 64 bits")
        if byte == 0 and shift:
            raise WireFormatError(f"non-canonical varint ending at offset {self.pos}")
        return value

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def i32(self) -> int:
        return struct.unpack(">i", self.take(4))[0]

    def str(self) -> str:
        return self.take(self.uvar()).decode("utf-8")

    def bigint(self) -> int:
        """The one encoding :func:`_bigint` writes: no empty magnitude, no
        leading zero byte, and no ``-0``."""
        sign = self.u8()
        if sign not in (0, 1):
            raise WireFormatError(f"bad bigint sign byte {sign}")
        raw = self.take(self.u32())
        if not raw or (raw[0] == 0 and (len(raw) > 1 or sign)):
            raise WireFormatError(f"non-canonical bigint ending at offset {self.pos}")
        mag = int.from_bytes(raw, "big")
        return -mag if sign else mag

    def shape(self) -> tuple[int, ...]:
        return tuple(self.uvar() for _ in range(self.uvar()))

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise WireFormatError(
                f"{len(self.buf) - self.pos} trailing bytes after a complete frame"
            )


# ---------------------------------------------------------------------------
# Ciphertext residue batches: fixed width derived from the modulus.


def _residue_width(n: int) -> int:
    """Bytes per ciphertext residue mod ``n**2`` — the honest wire cost."""
    return ((n * n).bit_length() + 7) // 8


def _pack_residues(cts: list[int], width: int) -> bytes:
    out = bytearray(len(cts) * width)
    pos = 0
    for c in cts:
        out[pos : pos + width] = int(c).to_bytes(width, "big")
        pos += width
    return bytes(out)


def _unpack_residues(raw: bytes, key, count: int) -> list[int]:
    """``count`` ciphertexts under ``key``, each a canonical residue in
    ``[1, n^2)``: ``c + n^2`` would be a second encoding of ``c``, and ``0``
    or ``n^2`` no ciphertext at all."""
    width = _residue_width(key.n)
    if len(raw) != width * count:
        raise WireFormatError(
            f"ciphertext body holds {len(raw)} bytes, expected {count} x {width}"
        )
    cts = [int.from_bytes(raw[i * width : (i + 1) * width], "big") for i in range(count)]
    if cts and (min(cts) < 1 or max(cts) >= key.nsquare):
        bad = next(i for i, c in enumerate(cts) if not 1 <= c < key.nsquare)
        raise WireFormatError(f"ciphertext {bad} is not a residue in [1, n^2)")
    return cts


def register_key(key_ring: dict, key, *, replace: bool = True) -> None:
    """Add ``key`` to a ``{n: key}`` ring, refusing a fingerprint clash.

    Two moduli under one fingerprint would make every ciphertext frame
    under either ambiguous, so the ring refuses the second loudly.  With
    ``replace=False`` a key already registered for ``n`` is kept — a hello
    never displaces a party's seeded key object.
    """
    for other in tuple(key_ring.values()):  # a snapshot: receiver threads add keys
        if other.fingerprint == key.fingerprint and other.n != key.n:
            raise WireFormatError(
                f"key ring already holds a different modulus under fingerprint "
                f"{key.fingerprint.hex()}; refusing to register a second one"
            )
    if replace:
        key_ring[key.n] = key
    else:
        key_ring.setdefault(key.n, key)


def _key_for(fingerprint: bytes, key_ring: dict | None):
    """The registered key a ciphertext header names by fingerprint.

    Resolving to the registered object matters beyond speed: it carries
    the party's seeded blinding RNG, so operating on decoded tensors draws
    the same obfuscation stream as operating on the originals —
    transcripts stay bit-reproducible across channel tiers.
    """
    for key in tuple((key_ring or {}).values()):  # a snapshot, as in register_key
        if key.fingerprint == fingerprint:
            return key
    raise WireFormatError(
        f"ciphertext names key fingerprint {fingerprint.hex()}, but no key in "
        f"the ring has it; a frame decodes only against a ring that knows its key"
    )


# ---------------------------------------------------------------------------
# Payload encoding.


def _encode_parts(payload: object) -> tuple[int, bytes, bytes]:
    """Lower a payload to ``(type_code, header, body)``."""
    CryptoTensor, PackedCryptoTensor, _, PaillierPublicKey, PaillierPrivateKey = _crypto()
    if isinstance(payload, PaillierPrivateKey) or (
        isinstance(getattr(payload, "private_key", None), PaillierPrivateKey)
    ):
        # The custody boundary of the whole protocol: there is deliberately
        # no wire format for private-key material, because any party that
        # learns (p, q) can decrypt every ciphertext under the key.  Private
        # keys stay inside the key-owning process, which runs every
        # decryption itself.
        raise UnsupportedWireType(
            f"refusing to serialise {type(payload).__name__}: Paillier "
            f"private-key material (p, q) must never leave the key owner's "
            f"process. Send the public key for encryption, or HE2SS shares "
            f"for values the peer needs in the clear."
        )
    if payload is None:
        return T_NONE, b"", b""
    if isinstance(payload, np.generic):
        # numpy scalars travel as 0-d arrays so the dtype survives exactly
        # (np.float64 subclasses float, so this must precede the float case).
        return _encode_ndarray(np.asarray(payload))
    if isinstance(payload, bool):  # before int: bool is an int subclass
        return T_BOOL, _u8(1 if payload else 0), b""
    if isinstance(payload, int):
        return T_INT, _bigint(payload), b""
    if isinstance(payload, float):
        return T_FLOAT, struct.pack(">d", payload), b""
    if isinstance(payload, str):
        return T_STR, b"", payload.encode("utf-8")
    if isinstance(payload, (bytes, bytearray)):
        return T_BYTES, b"", bytes(payload)
    if isinstance(payload, (list, tuple)):
        # Each item travels as a length-prefixed blob so containers nest
        # without any type-specific length arithmetic.
        blobs = [encode_payload(item) for item in payload]
        body = b"".join(_uvar(len(blob)) + blob for blob in blobs)
        code = T_LIST if isinstance(payload, list) else T_TUPLE
        return code, _uvar(len(payload)), body
    if isinstance(payload, np.ndarray):
        return _encode_ndarray(payload)
    if isinstance(payload, CryptoTensor):
        return _encode_crypto_tensor(payload)
    if isinstance(payload, PackedCryptoTensor):
        return _encode_packed_tensor(payload)
    if isinstance(payload, PaillierPublicKey):
        return T_PUBLIC_KEY, _bigint(payload.to_wire()), b""
    raise UnsupportedWireType(
        f"no wire format for payload type {type(payload).__name__}; every "
        f"object crossing the party boundary must be byte-serialisable"
    )


def _encode_ndarray(arr: np.ndarray) -> tuple[int, bytes, bytes]:
    if arr.dtype == object:
        raise UnsupportedWireType("object-dtype arrays have no wire format")
    if arr.dtype.hasobject:
        raise UnsupportedWireType("structured arrays have no wire format")
    # Canonical little-endian, C-order buffer (asarray keeps 0-d shapes,
    # unlike ascontiguousarray which would promote them to 1-d).
    canonical = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
    data = np.asarray(arr, dtype=canonical, order="C")
    header = _str(data.dtype.str) + _shape(data.shape)
    return T_NDARRAY, header, data.tobytes()


def _decode_ndarray(header: _Reader, body: bytes) -> np.ndarray:
    dtype = np.dtype(header.str())
    shape = header.shape()
    size = math.prod(shape)  # exact: an int64 product can wrap to a small count
    if dtype.itemsize * size != len(body):
        raise WireFormatError(
            f"array body holds {len(body)} bytes, expected {size} x {dtype.itemsize}"
        )
    # bytearray keeps the decoded array writable without an extra copy.
    return np.frombuffer(bytearray(body), dtype=dtype).reshape(shape)


def _encode_crypto_tensor(tensor) -> tuple[int, bytes, bytes]:
    shape, cts, exponents = tensor.to_wire()
    key = tensor.public_key
    header = key.fingerprint + _shape(shape)
    if isinstance(exponents, int):
        header += _u8(1) + _i32(exponents)
    else:
        header += _u8(0) + b"".join(_i32(e) for e in exponents)
    return T_CRYPTO_TENSOR, header, _pack_residues(cts, _residue_width(key.n))


def _decode_crypto_tensor(header: _Reader, body: bytes, key_ring: dict | None):
    CryptoTensor = _crypto()[0]
    key = _key_for(header.take(FINGERPRINT_SIZE), key_ring)
    shape = header.shape()
    size = math.prod(shape)  # exact: an int64 product can wrap to a small count
    uniform = header.u8()
    if uniform not in (0, 1):
        raise WireFormatError(f"bad exponent-uniformity flag {uniform}")
    exponents: int | list[int]
    if uniform:
        exponents = header.i32()
    else:
        exponents = [header.i32() for _ in range(size)]
    cts = _unpack_residues(body, key, size)
    return CryptoTensor.from_wire(key, shape, cts, exponents)


def _encode_packed_tensor(tensor) -> tuple[int, bytes, bytes]:
    wire = tensor.to_wire()
    key = tensor.public_key
    layout = wire["layout"]
    header = (
        key.fingerprint
        + _u32(layout[0])  # slot_bits
        + _u32(layout[1])  # slots
        + _u32(layout[2])  # key_bits
        + _u32(layout[3])  # base_value_bits
        + _u64(layout[4])  # acc_depth
        + _u8(1 if wire["contiguous"] else 0)
        + _u32(wire["seg_cols"])
        + _shape(wire["shape"])
        + _i32(wire["exponent"])
        + _u32(wire["value_bits"])
        + _uvar(len(wire["cts"]))
    )
    return T_PACKED_TENSOR, header, _pack_residues(wire["cts"], _residue_width(key.n))


def _decode_packed_tensor(header: _Reader, body: bytes, key_ring: dict | None):
    PackedCryptoTensor, SlotLayout = _crypto()[1], _crypto()[2]
    key = _key_for(header.take(FINGERPRINT_SIZE), key_ring)
    layout_fields = (header.u32(), header.u32(), header.u32(), header.u32(), header.u64())
    contiguous = header.u8()
    if contiguous not in (0, 1):
        raise WireFormatError(f"bad contiguity flag {contiguous}")
    seg_cols = header.u32()
    shape = header.shape()
    exponent = header.i32()
    value_bits = header.u32()
    count = header.uvar()
    cts = _unpack_residues(body, key, count)
    try:
        return PackedCryptoTensor.from_wire(
            key,
            SlotLayout.from_wire(layout_fields),
            cts,
            shape,
            exponent,
            value_bits,
            contiguous=bool(contiguous),
            seg_cols=seg_cols or None,
        )
    except (ValueError, OverflowError) as exc:
        raise WireFormatError(f"packed tensor header contradicts itself: {exc}") from exc


def encode_payload(payload: object) -> bytes:
    """Serialise one payload to a self-describing blob (no preamble)."""
    code, header, body = _encode_parts(payload)
    return _u8(code) + _uvar(len(header)) + header + body


def decode_payload(blob: bytes, key_ring: dict | None = None) -> object:
    """Inverse of :func:`encode_payload`; strict about every byte.

    A blob is a type code, a varint header length, the header — every
    piece of structural metadata the receiver needs before touching
    ciphertext bytes — and the body.
    """
    reader = _Reader(blob)
    code = reader.u8()
    if code not in _TYPE_NAMES:
        raise WireFormatError(f"unknown payload type code 0x{code:02x}")
    header = _Reader(reader.take(reader.uvar()))
    payload = _decode_typed(code, header, reader.take(len(blob) - reader.pos), key_ring)
    header.done()
    return payload


def _decode_typed(code: int, header: _Reader, body: bytes, key_ring: dict | None):
    if code == T_NONE:
        return None
    if code == T_BOOL:
        flag = header.u8()
        if flag not in (0, 1):
            raise WireFormatError(f"bad bool byte {flag}")
        return bool(flag)
    if code == T_INT:
        return header.bigint()
    if code == T_FLOAT:
        return struct.unpack(">d", header.take(8))[0]
    if code == T_STR:
        return body.decode("utf-8")
    if code == T_BYTES:
        return bytes(body)
    if code in (T_LIST, T_TUPLE):
        count = header.uvar()
        items = []
        reader = _Reader(body)
        for _ in range(count):
            items.append(decode_payload(reader.take(reader.uvar()), key_ring))
        reader.done()
        return items if code == T_LIST else tuple(items)
    if code == T_NDARRAY:
        return _decode_ndarray(header, body)
    if code == T_CRYPTO_TENSOR:
        return _decode_crypto_tensor(header, body, key_ring)
    if code == T_PACKED_TENSOR:
        return _decode_packed_tensor(header, body, key_ring)
    if code == T_PUBLIC_KEY:
        n = header.bigint()
        if n <= 0:
            raise WireFormatError("public modulus on the wire must be positive")
        known = None if key_ring is None else key_ring.get(n)
        return known if known is not None else _crypto()[3].from_wire(n)
    raise WireFormatError(f"unknown payload type code 0x{code:02x}")


# ---------------------------------------------------------------------------
# Frames: preamble + typed body.


def _frame(kind: int, body: bytes) -> bytes:
    head = WIRE_MAGIC + bytes((WIRE_VERSION, kind)) + _u32(len(body)) + body
    return head + _u32(zlib.crc32(head) & 0xFFFFFFFF)


def parse_preamble(preamble: bytes) -> tuple[int, int]:
    """Validate an 8-byte preamble; returns ``(frame_kind, body_length)``.

    ``body_length`` excludes the :data:`CRC_SIZE`-byte trailer, so a full
    frame occupies ``PREAMBLE_SIZE + body_length + CRC_SIZE`` bytes.
    """
    if len(preamble) != PREAMBLE_SIZE:
        raise WireFormatError(f"preamble must be {PREAMBLE_SIZE} bytes")
    if preamble[:2] != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {preamble[:2]!r}; not a BlindFL frame")
    version = preamble[2]
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"wire version {version} not supported (speaking {WIRE_VERSION})"
        )
    kind = preamble[3]
    if kind not in (FRAME_MESSAGE, FRAME_PAYLOAD, FRAME_HELLO):
        raise WireFormatError(f"unknown frame kind 0x{kind:02x}")
    return kind, struct.unpack(">I", preamble[4:8])[0]


def check_frame(frame: bytes) -> tuple[int, bytes]:
    """Validate one complete frame; returns ``(frame_kind, body)``.

    Checks the preamble, the length field against the actual byte count,
    and the CRC32 trailer against the preamble + body.  Integrity failures
    raise :class:`FrameIntegrityError`; structural ones, the base
    :class:`WireFormatError`.
    """
    kind, length = parse_preamble(frame[:PREAMBLE_SIZE])
    if len(frame) != PREAMBLE_SIZE + length + CRC_SIZE:
        raise WireFormatError(
            f"frame length field says {length} body bytes (+{CRC_SIZE} CRC), "
            f"have {len(frame) - PREAMBLE_SIZE}"
        )
    stored = struct.unpack(">I", frame[-CRC_SIZE:])[0]
    actual = zlib.crc32(frame[:-CRC_SIZE]) & 0xFFFFFFFF
    if stored != actual:
        raise FrameIntegrityError(
            f"frame failed its CRC32 integrity check (stored 0x{stored:08x}, "
            f"computed 0x{actual:08x}) — corrupted in transit"
        )
    return kind, frame[PREAMBLE_SIZE:-CRC_SIZE]


def iter_frames(data: bytes):
    """Yield ``(frame_kind, body)`` for each frame in a concatenated stream.

    Every frame is CRC-validated; a truncated tail or corrupted frame
    raises rather than yielding partial data.  This is the reader for
    checkpoint files, which are plain concatenations of payload frames.
    """
    pos = 0
    while pos < len(data):
        if pos + PREAMBLE_SIZE > len(data):
            raise WireFormatError(
                f"truncated frame stream: {len(data) - pos} bytes of preamble"
            )
        _, length = parse_preamble(data[pos : pos + PREAMBLE_SIZE])
        end = pos + PREAMBLE_SIZE + length + CRC_SIZE
        if end > len(data):
            raise WireFormatError(
                f"truncated frame stream: frame at offset {pos} wants "
                f"{end - pos} bytes, have {len(data) - pos}"
            )
        yield check_frame(data[pos:end])
        pos = end


def encode_message(msg: Message) -> bytes:
    """Serialise a routed protocol message to one framed byte string."""
    body = (
        _u8(msg.kind.wire_code)
        + _uvar(msg.seq)
        + _str(msg.sender)
        + _str(msg.receiver)
        + _str(msg.tag)
        + encode_payload(msg.payload)
    )
    return _frame(FRAME_MESSAGE, body)


def decode_message(frame: bytes, key_ring: dict | None = None) -> Message:
    """Inverse of :func:`encode_message`.

    The returned message's ``nbytes`` is the *measured* frame length — what
    actually crossed (or would cross) the wire, not an estimate.
    """
    kind_code, length = parse_preamble(frame[:PREAMBLE_SIZE])
    if kind_code != FRAME_MESSAGE:
        raise WireFormatError("frame is not a protocol message")
    _, body = check_frame(frame)
    reader = _Reader(body)
    kind = MessageKind.from_wire(reader.u8())
    seq = reader.uvar()
    sender = reader.str()
    receiver = reader.str()
    tag = reader.str()
    payload = decode_payload(reader.take(len(reader.buf) - reader.pos), key_ring)
    return Message(
        sender=sender,
        receiver=receiver,
        tag=tag,
        kind=kind,
        payload=payload,
        nbytes=len(frame),
        seq=seq,
    )


def encode_payload_frame(payload: object) -> bytes:
    """Serialise one bare payload as a complete CRC-trailed frame.

    This is the persistence format for checkpoint sections: each section is
    one ``FRAME_PAYLOAD`` frame, so a checkpoint file inherits the wire
    codec's integrity checking and its custody refusals (no frame exists
    for private-key material) for free.
    """
    return _frame(FRAME_PAYLOAD, encode_payload(payload))


def encode_hello(parties: list[str], public_keys=()) -> bytes:
    """Transport handshake: version check, party ownership, and the public
    keys the sender's channel has registered (what its ciphertext frames
    will name by fingerprint)."""
    return _frame(
        FRAME_HELLO,
        encode_payload(("blindfl-wire", sorted(parties), list(public_keys))),
    )


def decode_hello(frame: bytes, key_ring: dict | None = None) -> tuple[list[str], list]:
    """Inverse of :func:`encode_hello`; returns ``(parties, public_keys)``.

    Every key the hello carries that ``key_ring`` lacks is added to it; a
    key the ring already holds is left as registered.
    """
    kind_code, _ = parse_preamble(frame[:PREAMBLE_SIZE])
    if kind_code != FRAME_HELLO:
        raise WireFormatError("frame is not a handshake hello")
    _, body = check_frame(frame)
    hello = decode_payload(body, key_ring)
    if not isinstance(hello, (tuple, list)) or len(hello) != 3:
        raise WireFormatError(
            "hello must carry a (protocol, parties, public keys) triple, "
            f"got {type(hello).__name__}"
        )
    proto, parties, keys = hello
    if proto != "blindfl-wire":
        raise WireFormatError(f"handshake names unknown protocol {proto!r}")
    if not isinstance(parties, list) or not all(isinstance(p, str) for p in parties):
        raise WireFormatError("hello parties must be a list of party names")
    PaillierPublicKey = _crypto()[3]
    if not isinstance(keys, list) or not all(isinstance(k, PaillierPublicKey) for k in keys):
        raise WireFormatError("hello keys must be a list of Paillier public keys")
    if key_ring is not None:
        for key in keys:
            register_key(key_ring, key, replace=False)
    return parties, keys
