"""Cross-process socket transport: parties in separate PIDs, bytes on a wire.

This is the third channel tier (see :mod:`repro.comm.channel`): a
:class:`NetworkChannel` carries protocol frames over a real TCP connection
between two OS processes, so the only thing that ever crosses the trust
boundary is what the wire codec can express as bytes.

Execution model — deterministic lockstep mirroring
--------------------------------------------------
The protocol layers are written as a single interleaved control flow that
performs *both* parties' steps (the in-process fidelity trick the seed repo
started from).  The socket tier keeps that code unchanged by running the
**same seeded program in both processes** and splitting *ownership*:

* each endpoint owns a subset of parties (``local_parties``);
* a ``send`` whose receiver is **remote** writes the encoded frame to the
  socket, and also delivers the locally *decoded* copy so the mirrored
  simulation of the remote party continues — from exactly the bytes the
  real remote receives;
* a ``send`` whose receiver is **local** transmits nothing (the peer's
  mirror performs the real transmission) and instead records what frame the
  wire must produce next;
* a ``recv`` for a **local** party blocks on the socket, decodes the
  incoming frame, and verifies it against that recorded expectation —
  sender, receiver, tag, kind, sequence number and frame length must all
  match, otherwise the endpoints desynchronised and we fail loudly.

Because every RNG in the federation is seeded (party RNGs, key generation,
blinding pools), the two mirrored processes draw identical randomness, so a
local party's state is *driven entirely by decoded wire bytes* while
remaining bit-identical to a single-process run — which is precisely the
protocol-conformance property the test-suite pins: byte-real transport with
zero protocol drift.

Reliable delivery — the link sublayer
-------------------------------------
Codec frames do not touch the socket directly: :class:`ReliableLink` wraps
each one in a small link envelope ``BL | type | seq | ack | length |
payload | crc32`` and implements receiver-driven ARQ on top:

* every DATA envelope carries the sender's next sequence number and a
  *piggybacked* cumulative ack of everything delivered in order so far —
  on a clean link the reliability layer adds **zero extra frames**;
* sent frames stay in a bounded resend buffer until the peer's acks prune
  them;
* the receiver always knows which frame it expects next (lockstep
  mirroring), so a CRC-corrupted envelope or a sequence gap triggers an
  immediate NAK, and a read timeout triggers NAK + exponential backoff
  with seeded jitter (:class:`RetryPolicy`) — the sender replays the
  requested frames from its buffer, and duplicates (a replayed frame that
  did arrive, or an injected duplicate) are discarded by sequence number;
* a dropped connection is *retryable* when a ``reconnect`` callable is
  configured: the endpoint re-establishes the socket, re-runs the hello
  handshake, exchanges RESUME envelopes carrying each side's delivery
  watermark, and replays every buffered frame above the peer's watermark —
  training continues bit-identically through a mid-epoch disconnect.

Errors are classified: :class:`RetryableTransportError` (timeouts, drops,
corruption — the link retries these itself and only surfaces them once the
retry budget is spent) versus :class:`FatalTransportError` (mirror
divergence, ownership overlap, link desync — retrying cannot help).  Both
subclass :class:`TransportError`, which existing callers catch.

Deadlock safety: every socket read honours a hard ``timeout``, and the
:func:`run_two_party` driver enforces an overall deadline and *polls child
liveness* — a crashed endpoint fails the run as soon as its death is
observed instead of burning the full deadline.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import random
import socket
import struct
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.comm import codec
from repro.comm.channel import CodecChannel
from repro.comm.message import Message
from repro.obs import tracer as _obs

__all__ = [
    "TransportError",
    "RetryableTransportError",
    "FatalTransportError",
    "TransportTimeout",
    "TransportDisconnected",
    "LinkCorruptionError",
    "RetryPolicy",
    "LinkStats",
    "ReliableLink",
    "NetworkChannel",
    "read_frame",
    "run_two_party",
]


class TransportError(RuntimeError):
    """Socket-level failure: timeout, truncated frame, or peer desync."""


class RetryableTransportError(TransportError):
    """A transient fault (timeout, drop, corruption, disconnect).

    The link layer handles these internally — retransmission, backoff,
    reconnect — and only lets one escape once the retry budget is spent.
    """


class FatalTransportError(TransportError):
    """A non-transient failure: protocol desync, ownership overlap, or
    link-layer framing loss.  Retrying cannot help; the run must abort."""


class TransportTimeout(RetryableTransportError):
    """No frame arrived within the socket timeout."""


class TransportDisconnected(RetryableTransportError):
    """The connection dropped mid-run (EOF, reset, or injected)."""


class LinkCorruptionError(RetryableTransportError):
    """A link envelope failed its CRC — corrupted in transit."""


# ---------------------------------------------------------------------------
# Link envelope: the ARQ sublayer's unit of transmission.
#
#   magic   2  b"BL"
#   type    1  0x44 DATA | 0x4E NAK | 0x52 RESUME
#   seq     8  DATA: this frame's sequence number (1-based)
#              NAK: first sequence number the receiver is missing
#              RESUME: sender's highest assigned sequence number
#   ack     8  cumulative ack: highest seq delivered in order by the sender
#   length  4  payload length (the codec frame; 0 for control envelopes)
#   payload ...
#   crc32   4  over everything above

ENV_MAGIC = b"BL"
ENV_DATA = 0x44
ENV_NAK = 0x4E
ENV_RESUME = 0x52
ENV_FIN = 0x46
ENV_HEADER_SIZE = 23
ENV_OVERHEAD = ENV_HEADER_SIZE + 4


def encode_envelope(etype: int, seq: int, ack: int, payload: bytes = b"") -> bytes:
    head = (
        ENV_MAGIC
        + bytes((etype,))
        + struct.pack(">QQI", seq, ack, len(payload))
        + payload
    )
    import zlib

    return head + struct.pack(">I", zlib.crc32(head) & 0xFFFFFFFF)


def is_data_envelope(data: bytes) -> bool:
    """True when ``data`` is a DATA link envelope (the fault-injection
    target: control envelopes and bare handshake frames are never faulted,
    so injected faults stay frame-granular and deterministic)."""
    return len(data) >= 3 and data[:2] == ENV_MAGIC and data[2] == ENV_DATA


@dataclass
class RetryPolicy:
    """Bounded retransmission: exponential backoff with seeded jitter.

    ``delays()`` yields ``max_retries`` sleep intervals, doubling from
    ``base_delay`` up to ``max_delay``, each scaled by a deterministic
    jitter in ``[1, 1 + jitter)`` drawn from ``random.Random(seed)`` — so
    two mirrored endpoints (different seeds) desynchronise their retries,
    while a re-run of the same test reproduces the exact timing decisions.
    """

    max_retries: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def delays(self):
        rng = random.Random(self.seed)
        for attempt in range(self.max_retries):
            delay = min(self.max_delay, self.base_delay * (2.0**attempt))
            yield delay * (1.0 + self.jitter * rng.random())


@dataclass
class LinkStats:
    """Counters for the reliability layer (the bench gate reads these).

    On a clean link every counter except ``data_sent``/``data_received``
    and ``envelope_bytes`` must stay zero: acks piggyback on DATA, so the
    reliability layer is free apart from the fixed per-frame envelope.
    """

    data_sent: int = 0
    data_received: int = 0
    retransmits: int = 0
    naks_sent: int = 0
    naks_received: int = 0
    duplicates_dropped: int = 0
    corrupt_dropped: int = 0
    timeouts: int = 0
    reconnects: int = 0
    resumes: int = 0
    fins: int = 0
    envelope_bytes: int = 0
    resend_highwater: int = 0

    def extra_frames(self) -> int:
        """Frames beyond the one-envelope-per-codec-frame minimum."""
        return self.retransmits + self.naks_sent + self.resumes

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def no_delay(sock: socket.socket) -> socket.socket:
    """Disable Nagle's algorithm on a freshly connected link socket.

    The links carry request/response protocol rounds of small frames; with
    Nagle on, a sender holding a partial segment waits for the ACK that the
    peer's delayed-ACK timer is itself holding back — tens of milliseconds
    per round trip on loopback, none of it work.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            raise TransportTimeout(
                "timed out waiting for a frame — protocol deadlock or a "
                "crashed peer"
            ) from None
        except OSError as exc:
            raise TransportDisconnected(
                f"connection lost mid-frame ({exc})"
            ) from None
        if not chunk:
            raise TransportDisconnected("peer closed the connection mid-frame")
        buf += chunk
    return bytes(buf)


def read_frame(sock: socket.socket) -> bytes:
    """Read one complete *bare* codec frame from a socket, CRC-verified.

    Used for the hello handshake (which runs below the ARQ sublayer) and
    by tools that speak raw frames.  A corrupted frame raises
    :class:`~repro.comm.codec.FrameIntegrityError` here — at the read
    site — rather than decoding garbage downstream.
    """
    preamble = _recv_exact(sock, codec.PREAMBLE_SIZE)
    _, length = codec.parse_preamble(preamble)
    frame = preamble + _recv_exact(sock, length + codec.CRC_SIZE)
    codec.check_frame(frame)
    return frame


class ReliableLink:
    """Acked, retransmitting frame pipe over one (replaceable) socket.

    ``reconnect`` (optional) returns a fresh connected socket after a drop;
    ``on_reconnect`` (optional) runs protocol re-handshakes on the new
    socket before the RESUME exchange.  Without a reconnector, a drop is
    surfaced as :class:`TransportDisconnected` after the retry budget.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        retry: RetryPolicy | None = None,
        reconnect=None,
        on_reconnect=None,
        resend_capacity: int = 512,
        graceful_close: bool = False,
    ):
        self.sock = sock
        # Socket generation: bumped under the lock on every successful
        # reconnect.  A thread that observed a failure on generation N
        # passes N into _recover_connection; if another thread already
        # swapped in generation N+1, the stale recovery is a no-op
        # instead of tearing down the fresh socket.
        self.sock_gen = 0
        self.retry = retry or RetryPolicy()
        self.reconnect = reconnect
        self.on_reconnect = on_reconnect
        self.resend_capacity = resend_capacity
        self.graceful_close = graceful_close
        self.stats = LinkStats()
        self.send_seq = 0  # last sequence number assigned to a sent frame
        self.recv_seq = 0  # highest seq delivered in order to the channel
        self.peer_ack = 0  # highest cumulative ack received from the peer
        self._peer_fin: int | None = None  # peer's announced final watermark
        self._resend: OrderedDict[int, bytes] = OrderedDict()
        # Serialises every outbound write and the send-side bookkeeping
        # (resend buffer, ack watermark): the fabric drives one link from
        # a protocol/sender thread *and* a receiver thread (whose NAK
        # handling retransmits), so envelopes must never interleave
        # mid-write.  Reentrant because send paths nest (send_frame ->
        # _send_env, _retransmit_from -> _send_env).
        self._lock = threading.RLock()

    def _count(self, stat: str, n: int = 1) -> None:
        """Bump a LinkStats counter and its traced ``link.<name>`` mirror.

        Routing every counter (except the ``resend_highwater`` gauge)
        through this one helper makes the trace reconcile with
        ``stats.as_dict()`` by construction.
        """
        setattr(self.stats, stat, getattr(self.stats, stat) + n)
        trc = _obs.get_tracer()
        if trc is not None:
            trc.add("link." + stat, n)

    # ------------------------------------------------------------------ send

    def send_frame(self, frame: bytes) -> None:
        """Transmit one codec frame with at-least-once delivery."""
        with self._lock:
            self.send_seq += 1
            self._resend[self.send_seq] = frame
            self.stats.resend_highwater = max(
                self.stats.resend_highwater, len(self._resend)
            )
            self._prune_resend()
            env = encode_envelope(ENV_DATA, self.send_seq, self.recv_seq, frame)
            self._count("data_sent")
            self._send_env(env, replayable=True)

    def _send_env(self, env: bytes, replayable: bool = False) -> None:
        with self._lock:
            try:
                self.sock.sendall(env)
                self._count("envelope_bytes", ENV_OVERHEAD)
            except socket.timeout:
                raise TransportTimeout(
                    "timed out writing a frame — peer stopped draining the "
                    "link"
                ) from None
            except OSError as exc:
                # A DATA envelope is already in the resend buffer: the
                # RESUME replay after reconnect retransmits it, so nothing
                # is lost.  Control envelopes are regenerated by their send
                # sites.
                self._recover_connection(exc)
                if not replayable:
                    return

    def _prune_resend(self) -> None:
        while self._resend and next(iter(self._resend)) <= self.peer_ack:
            self._resend.popitem(last=False)
        # The capacity bound is soft: unacked frames are never evicted
        # (they may still be NAKed), but the high-water mark records any
        # excursion so tests can pin the bound on clean runs.

    def _note_ack(self, ack: int) -> None:
        with self._lock:
            if ack > self.peer_ack:
                self.peer_ack = ack
                self._prune_resend()

    # ------------------------------------------------------------------ recv

    def recv_frame(self) -> bytes:
        """Deliver the next in-order codec frame, retrying through faults."""
        delays = self.retry.delays()
        while True:
            try:
                etype, seq, ack, payload = self._read_envelope()
            except LinkCorruptionError:
                # Corruption is detected immediately — NAK the frame we
                # are missing rather than waiting for a timeout.
                self._count("corrupt_dropped")
                self._send_nak()
                continue
            except TransportTimeout:
                self._count("timeouts")
                try:
                    delay = next(delays)
                except StopIteration:
                    raise TransportTimeout(
                        "timed out waiting for a frame — protocol deadlock "
                        "or a crashed peer (retry budget spent)"
                    ) from None
                self._send_nak()
                time.sleep(delay)
                continue
            except TransportDisconnected as exc:
                self._recover_connection(exc)
                continue
            self._note_ack(ack)
            if etype == ENV_NAK:
                self._count("naks_received")
                self._retransmit_from(seq)
                continue
            if etype == ENV_RESUME:
                # Peer reconnected and announced its watermark mid-stream.
                self._replay_unacked()
                continue
            if etype == ENV_FIN:
                # Peer's program finished and it announced its final send
                # watermark before closing; NAK any gap so the tail gets
                # retransmitted while the peer is still draining.
                self._peer_fin = seq
                if seq > self.recv_seq:
                    self._send_nak()
                continue
            # DATA
            if seq == self.recv_seq + 1:
                self.recv_seq = seq
                self._count("data_received")
                return payload
            if seq <= self.recv_seq:
                self._count("duplicates_dropped")
                continue
            # Sequence gap: the frames in between were dropped in transit.
            self._send_nak()

    def recv_frame_idle(
        self,
        should_stop,
        *,
        recover_ok=None,
        idle_nak_polls: int | None = None,
    ) -> bytes | None:
        """Deliver the next in-order frame on a link with no lockstep clock.

        Fabric receiver threads cannot read meaning into a socket timeout
        — an idle link between protocol steps is normal, not a crashed
        peer — so a timeout here just polls ``should_stop`` and keeps
        listening: no NAK, no counter bump, the clean-link ledger stays
        untouched.  On a fault-armed link, ``idle_nak_polls`` bounds that
        patience: after that many *consecutive* idle poll slices the
        receiver NAKs its next expected sequence number (and counts a
        timeout), so a tail-dropped frame — a loss no later frame's
        sequence gap will ever reveal — gets retransmitted instead of
        deadlocking the protocol.  Corruption and sequence gaps still NAK
        immediately, and NAK/RESUME/FIN control traffic is serviced in
        place.  Returns ``None`` when ``should_stop()`` turns true while
        idle.  A dropped connection recovers in place (bounded reconnect
        under the link's retry policy) when ``recover_ok`` allows it;
        otherwise — no recover predicate, recovery declined, or the
        reconnect budget spent — it surfaces as
        :class:`TransportDisconnected` for the caller to classify (clean
        peer exit vs. mid-protocol death).
        """
        idle_polls = 0
        while True:
            if should_stop():
                return None
            # Snapshot socket + generation under the lock: recovery holds
            # it for the whole reconnect, so a reader never starts a read
            # mid-swap and never consumes the replacement socket's RESUME
            # exchange; a read that outlives a swap fails on the closed
            # socket and the stale generation makes its recovery a no-op.
            with self._lock:
                gen = self.sock_gen
                sock = self.sock
            try:
                etype, seq, ack, payload = self._read_envelope(sock)
            except TransportTimeout:
                # Idle link: poll the stop flag, keep listening.
                idle_polls += 1
                if idle_nak_polls is not None and idle_polls >= idle_nak_polls:
                    idle_polls = 0
                    self._count("timeouts")
                    self._send_nak()
                continue
            except LinkCorruptionError:
                idle_polls = 0
                self._count("corrupt_dropped")
                self._send_nak()
                continue
            except TransportDisconnected as exc:
                idle_polls = 0
                if should_stop() or recover_ok is None or not recover_ok():
                    raise
                self._recover_connection(exc, gen=gen)
                continue
            idle_polls = 0
            self._note_ack(ack)
            if etype == ENV_NAK:
                self._count("naks_received")
                self._retransmit_from(seq)
                continue
            if etype == ENV_RESUME:
                self._replay_unacked()
                continue
            if etype == ENV_FIN:
                self._peer_fin = seq
                if seq > self.recv_seq:
                    self._send_nak()
                continue
            # DATA
            if seq == self.recv_seq + 1:
                self.recv_seq = seq
                self._count("data_received")
                return payload
            if seq <= self.recv_seq:
                self._count("duplicates_dropped")
                continue
            self._send_nak()

    def _read_envelope(self, sock=None) -> tuple[int, int, int, bytes]:
        # Readers that run concurrently with reconnects (the fabric's
        # receiver threads) pass an explicit socket snapshot, so a
        # recovery that swaps self.sock mid-read errors the stale reader
        # instead of letting it consume the new socket's RESUME exchange.
        sock = self.sock if sock is None else sock
        header = _recv_exact(sock, ENV_HEADER_SIZE)
        if header[:2] != ENV_MAGIC:
            raise FatalTransportError(
                f"link-layer desync: expected envelope magic {ENV_MAGIC!r}, "
                f"got {header[:2]!r} — the byte stream lost framing"
            )
        etype = header[2]
        if etype not in (ENV_DATA, ENV_NAK, ENV_RESUME, ENV_FIN):
            raise FatalTransportError(f"unknown link envelope type 0x{etype:02x}")
        seq, ack, length = struct.unpack(">QQI", header[3:ENV_HEADER_SIZE])
        rest = _recv_exact(sock, length + 4)
        payload, stored = rest[:length], struct.unpack(">I", rest[length:])[0]
        import zlib

        actual = zlib.crc32(header + payload) & 0xFFFFFFFF
        if stored != actual:
            raise LinkCorruptionError(
                f"link envelope seq {seq} failed its CRC32 check "
                f"(stored 0x{stored:08x}, computed 0x{actual:08x})"
            )
        return etype, seq, ack, payload

    def _send_nak(self) -> None:
        """Ask the peer to retransmit from the first frame we are missing."""
        self._count("naks_sent")
        self._send_env(encode_envelope(ENV_NAK, self.recv_seq + 1, self.recv_seq))

    def _retransmit_from(self, seq: int) -> None:
        with self._lock:
            if seq > self.send_seq:
                # The peer is ahead of us (it NAKed a frame we have not
                # produced yet — e.g. its read timed out while we were
                # still computing).  Nothing to replay; our next send
                # satisfies it.
                return
            missing = [s for s in self._resend if s >= seq]
            if not missing and seq > self.peer_ack:
                raise FatalTransportError(
                    f"peer requested retransmission from seq {seq} but the "
                    f"resend buffer no longer holds it (acked through "
                    f"{self.peer_ack}) — ack bookkeeping diverged"
                )
            for s in sorted(missing):
                self._count("retransmits")
                self._send_env(
                    encode_envelope(
                        ENV_DATA, s, self.recv_seq, self._resend[s]
                    ),
                    replayable=True,
                )

    # ------------------------------------------------------------- reconnect

    def _recover_connection(
        self, cause: BaseException, gen: int | None = None
    ) -> None:
        """Re-establish the socket, re-handshake, and replay unacked frames.

        The whole recovery sequence — dial/accept, protocol re-hello,
        RESUME watermark exchange — retries as a unit: a connection that
        dies *during* recovery (a raced redial, a stale backlog accept, a
        reset mid-hello) burns one more retry instead of surfacing
        half-recovered state to the caller.  The abandoned socket is
        closed first so a peer still reading it gets a prompt EOF and
        starts (or restarts) its own recovery.

        Recovery is single-flight: the link lock is held for the whole
        sequence (reentrantly safe under the send path, which already
        owns it), and a caller that saw the failure on socket generation
        ``gen`` returns immediately if another thread has already swapped
        in a newer socket — tearing down a freshly recovered connection
        because of a stale error would turn one fault into two.
        """
        if self.reconnect is None:
            raise TransportDisconnected(
                f"connection lost mid-run and no reconnector is configured "
                f"({cause})"
            ) from None
        with self._lock:
            if gen is not None and gen != self.sock_gen:
                return  # another thread already recovered this socket
            with _obs.span("link_recovery", cause=type(cause).__name__):
                self._count("reconnects")
                last_error: BaseException = cause
                for delay in self.retry.delays():
                    try:
                        try:
                            self.sock.close()
                        except OSError:
                            pass
                        self.sock = self.reconnect()
                        if self.on_reconnect is not None:
                            self.on_reconnect()
                        # RESUME exchange: announce our watermarks, learn the
                        # peer's, then replay everything it has not
                        # acknowledged.  The envelope goes out raw —
                        # _send_env's own recovery hook would recurse into
                        # this method.
                        env = encode_envelope(
                            ENV_RESUME, self.send_seq, self.recv_seq
                        )
                        self.sock.sendall(env)
                        self._count("envelope_bytes", ENV_OVERHEAD)
                        etype, seq, ack, _ = self._read_envelope()
                        if etype != ENV_RESUME:
                            raise FatalTransportError(
                                f"expected a RESUME envelope after reconnect, "
                                f"got type 0x{etype:02x} seq {seq}"
                            )
                        self._note_ack(ack)
                    except (OSError, RetryableTransportError) as exc:
                        last_error = exc
                        time.sleep(delay)
                        continue
                    self.sock_gen += 1
                    self._count("resumes")
                    self._replay_unacked()
                    return
                raise TransportDisconnected(
                    f"could not re-establish the connection within "
                    f"{self.retry.max_retries} attempts ({last_error})"
                ) from None

    def _replay_unacked(self) -> None:
        with self._lock:
            for s in sorted(self._resend):
                if s > self.peer_ack:
                    self._count("retransmits")
                    self._send_env(
                        encode_envelope(
                            ENV_DATA, s, self.recv_seq, self._resend[s]
                        ),
                        replayable=True,
                    )

    def close(self) -> None:
        """Close the link; with ``graceful_close``, drain first.

        The graceful path prevents the last-frame-lost race: an endpoint
        whose final DATA envelopes were dropped in transit must not
        vanish (taking its listener with it) while the peer is still
        NAKing for the tail.  FIN announces our final send watermark; we
        then keep servicing NAKs until the peer has announced (or
        implicitly confirmed, by EOF) that it is complete too.
        """
        if self.graceful_close:
            try:
                self._drain_close()
            except Exception:  # best-effort: close never masks the run
                pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - best-effort close
            pass

    def _send_fin(self) -> None:
        with self._lock:
            # Raw send: _send_env's recovery hook has no place at close time.
            self.sock.sendall(
                encode_envelope(ENV_FIN, self.send_seq, self.recv_seq)
            )
            self._count("fins")
            self._count("envelope_bytes", ENV_OVERHEAD)

    def _drain_close(self) -> None:
        """FIN handshake: stay up until the peer is demonstrably done.

        Exit when the peer's FIN has been seen and covers everything we
        received (mirrored programs both finish, so both sides send FIN),
        or on EOF/reset (peer already closed — nothing left to protect),
        or when the retry budget of *consecutive unproductive reads* is
        spent (peer died silently).  Every serviced envelope resets that
        budget: a peer slowly NAKing its way to completeness keeps this
        endpoint alive as long as it keeps making progress.
        """
        self._send_fin()
        delays = self.retry.delays()
        while self._peer_fin is None or self._peer_fin > self.recv_seq:
            try:
                etype, seq, ack, _payload = self._read_envelope()
            except TransportTimeout:
                self._count("timeouts")
                try:
                    time.sleep(next(delays))
                except StopIteration:
                    return  # silent peer: give up, close anyway
                self._send_fin()  # re-announce (the first may predate peer reads)
                continue
            except (TransportDisconnected, OSError):
                return  # EOF/reset: the peer is already gone
            except LinkCorruptionError:
                self._count("corrupt_dropped")
                self._send_nak()
                continue
            delays = self.retry.delays()  # progress resets patience
            self._note_ack(ack)
            if etype == ENV_NAK:
                self._count("naks_received")
                self._retransmit_from(seq)
                self._send_fin()  # refreshed watermark + ack for the peer
            elif etype == ENV_FIN:
                self._peer_fin = seq
                if seq > self.recv_seq:
                    self._send_nak()
            elif etype == ENV_DATA:
                # Lockstep means no *new* in-order data can exist once the
                # program finished; anything here is a retransmit surplus.
                self._count("duplicates_dropped")


@dataclass
class _Expectation:
    """What the mirror predicts the next incoming frame must contain."""

    sender: str
    receiver: str
    tag: str
    kind: object
    seq: int
    nbytes: int


class NetworkChannel(CodecChannel):
    """A :class:`Channel` whose remote hop is a real TCP connection.

    ``local_parties`` declares which parties live in this process; the
    complement lives at the peer.  Transcript capture and byte accounting
    cover *all* messages (the full mirrored protocol), with ``nbytes``
    measured from encoded codec frames — link-envelope overhead is *not*
    charged to the protocol (it lives in ``link.stats``), so
    ``total_bytes`` agrees across endpoints and with the in-process
    serializing tier.
    """

    def __init__(
        self,
        sock: socket.socket,
        local_parties: set[str] | frozenset[str] | list[str],
        record_transcript: bool = True,
        retry: RetryPolicy | None = None,
        reconnect=None,
        graceful_close: bool = False,
    ):
        super().__init__(record_transcript)
        self.local_parties = frozenset(local_parties)
        if not self.local_parties:
            raise ValueError("a network endpoint must own at least one party")
        self.link = ReliableLink(
            sock, retry=retry, reconnect=reconnect, on_reconnect=self._rehello,
            graceful_close=graceful_close,
        )

    @property
    def sock(self) -> socket.socket:
        """The link's current socket (replaced transparently on reconnect)."""
        return self.link.sock

    # ------------------------------------------------------------- handshake

    def handshake(self) -> frozenset[str]:
        """Exchange hellos: version check + disjoint party ownership.

        Returns the peer's party set.  Each hello carries the public keys
        this channel has registered (none before the federation context is
        built — both endpoints derive identical seeded keys then), and
        decoding one adds only keys the ring lacks; the version and
        ownership checks make a mis-paired launch fail before any protocol
        byte.
        """
        return self._hello_exchange()

    def _hello_exchange(self) -> frozenset[str]:
        self.link.sock.sendall(
            codec.encode_hello(sorted(self.local_parties), self.key_ring.values())
        )
        frame = read_frame(self.link.sock)
        peer_parties, _keys = codec.decode_hello(frame, key_ring=self.key_ring)
        overlap = self.local_parties & set(peer_parties)
        if overlap:
            raise FatalTransportError(
                f"both endpoints claim ownership of parties {sorted(overlap)}"
            )
        return frozenset(peer_parties)

    def _rehello(self) -> None:
        """Re-run the hello on a fresh socket (version + ownership re-pinned)."""
        self._hello_exchange()

    # ------------------------------------------------------------ send/recv

    def _dispatch_frame(self, msg: Message) -> Message:
        frame = codec.encode_message(msg)
        # One FIFO queue per receiver holds *either* delivered messages
        # (local hops and mirrored remote deliveries) or socket
        # expectations, so ordering between the two is preserved exactly.
        if msg.receiver in self.local_parties and msg.sender not in self.local_parties:
            # The authoritative bytes come from the peer's socket write;
            # predict what they must decode to (routing fields + frame
            # length — the peer's frame is bit-identical to our mirror's,
            # so no throwaway payload decode is needed here; recv() does
            # the one real decode when the frame arrives).
            msg.nbytes = len(frame)
            self._queues[msg.receiver].append(
                _Expectation(
                    sender=msg.sender,
                    receiver=msg.receiver,
                    tag=msg.tag,
                    kind=msg.kind,
                    seq=msg.seq,
                    nbytes=msg.nbytes,
                )
            )
            return msg
        decoded = codec.decode_message(frame, key_ring=self.key_ring)
        if msg.sender in self.local_parties and msg.receiver not in self.local_parties:
            # Remote receiver: this endpoint performs the real
            # transmission; the mirrored decoded copy continues the remote
            # party's simulation from exactly the bytes the peer receives.
            self.link.send_frame(frame)
        # Remote-to-remote mirrors and purely local hops (e.g. two
        # co-located A parties) deliver the decoded copy like the
        # serializing tier.
        self._queues[msg.receiver].append(decoded)
        return decoded

    def _transcode(self, msg: Message) -> Message:
        return self._dispatch_frame(msg)

    def _deliver(self, msg: Message) -> None:
        # Delivery happened in _dispatch_frame (queue or expectation).
        return None

    def recv(self, receiver: str, tag: str | None = None) -> object:
        queue = self._queues[receiver]
        if not queue:
            raise LookupError(f"no pending message for party {receiver!r}")
        entry = queue.popleft()
        if isinstance(entry, _Expectation):
            frame = self.link.recv_frame()
            msg = codec.decode_message(frame, key_ring=self.key_ring)
            observed = (
                msg.sender, msg.receiver, msg.tag, msg.kind, msg.seq, msg.nbytes,
            )
            predicted = (
                entry.sender, entry.receiver, entry.tag, entry.kind,
                entry.seq, entry.nbytes,
            )
            if observed != predicted:
                raise FatalTransportError(
                    f"wire frame diverged from the mirrored protocol: "
                    f"expected {predicted}, decoded {observed}"
                )
        else:
            msg = entry
        if tag is not None and msg.tag != tag:
            raise LookupError(
                f"protocol desync: party {receiver!r} expected tag {tag!r} "
                f"but next message is {msg.tag!r}"
            )
        return msg.payload

    def shutdown(self) -> None:
        """Verify the protocol drained cleanly, then close the socket.

        Both unread wire frames (expectations) and unconsumed mirrored
        deliveries count as an undrained protocol — either means this
        endpoint's recv sequence fell short of its send sequence.
        """
        leftovers = {
            party: len(q) for party, q in self._queues.items() if q
        }
        try:
            if leftovers:
                raise FatalTransportError(
                    f"protocol ended with undelivered messages pending for "
                    f"{leftovers}"
                )
        finally:
            self.link.close()


# ---------------------------------------------------------------------------
# Two-process party runner.


def _endpoint_main(
    role: str,
    listen: bool,
    local_parties: frozenset[str],
    program,
    args: tuple,
    port_queue,
    result_queue,
    timeout: float,
    record_transcript: bool,
    sock_timeout: float | None = None,
    retry: RetryPolicy | None = None,
    fault_plan=None,
) -> None:
    """Child-process entry: wire up the socket, run the program, report.

    Exactly one endpoint of the pair passes ``listen=True`` (it binds an
    ephemeral port and publishes it on ``port_queue``); the other dials.
    """
    sock = None
    listener = None
    per_read = sock_timeout if sock_timeout is not None else timeout
    try:
        if listen:
            listener = socket.create_server(("127.0.0.1", 0))
            listener.settimeout(timeout)
            port = listener.getsockname()[1]
            port_queue.put(port)
            sock, _ = listener.accept()
        else:
            port = port_queue.get(timeout=timeout)
            sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        no_delay(sock).settimeout(per_read)
        endpoint_sock = sock
        if fault_plan is not None:
            from repro.comm.faults import FaultySocket

            endpoint_sock = FaultySocket(sock, fault_plan)

        def _reconnect() -> socket.socket:
            # The listener endpoint keeps its server socket open for the
            # run's lifetime and re-accepts; the dialer redials the same
            # port.  The fault wrapper is rebound so the seeded plan keeps
            # counting frames across the new connection.
            if listen:
                fresh, _ = listener.accept()
            else:
                fresh = socket.create_connection(
                    ("127.0.0.1", port), timeout=timeout
                )
            no_delay(fresh).settimeout(per_read)
            if fault_plan is not None:
                return endpoint_sock.rebind(fresh)
            return fresh

        channel = NetworkChannel(
            endpoint_sock,
            local_parties,
            record_transcript=record_transcript,
            retry=retry,
            reconnect=_reconnect,
            # Endpoints that exit take their listener/port with them: drain
            # the link (FIN + NAK service) so a peer chasing dropped tail
            # frames is never left redialing a dead port.
            graceful_close=True,
        )
        channel.handshake()
        result = program(channel, *args)
        channel.shutdown()
        # Snapshot *after* shutdown so the graceful-close FIN traffic is
        # included: this is the endpoint's final reliability ledger.
        result_queue.put((role, True, result, channel.link.stats.as_dict()))
    except BaseException:
        result_queue.put((role, False, traceback.format_exc(), None))
    finally:
        for s in (sock, listener):
            if s is not None:
                try:
                    s.close()
                except OSError:
                    pass


def _await_results(
    children: dict[str, object],
    result_queue,
    timeout: float,
    what: str = "run",
) -> tuple[dict[str, object], dict[str, object]]:
    """Collect every child's report under a hard deadline.

    Shared by the two-party and fabric drivers.  Returns
    ``(results, link_stats)`` keyed by role; raises
    :class:`FatalTransportError` on deadline expiry, on a child dying
    before reporting (with its exit code), or on any reported failure
    (with the child's traceback).  Children are always joined/terminated
    before returning.
    """
    results: dict[str, object] = {}
    link_stats: dict[str, object] = {}
    failures: dict[str, str] = {}
    # repro: nondeterministic-ok driver watchdog deadline — the parent
    # process's kill-switch clock, outside the protocol state
    deadline = time.monotonic() + timeout
    grace_deadline: float | None = None
    dead: dict[str, int | None] = {}
    try:
        while len(results) + len(failures) < len(children):
            # repro: nondeterministic-ok watchdog countdown (driver only)
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise FatalTransportError(
                    f"{what} produced no result within {timeout}s — "
                    f"protocol deadlock; terminating all endpoints"
                )
            # Poll in short slices so child deaths are observed promptly.
            try:
                role, ok, payload, stats = result_queue.get(
                    timeout=min(0.25, remaining)
                )
            except queue_mod.Empty:
                pass
            else:
                if ok:
                    results[role] = payload
                    link_stats[role] = stats
                else:
                    failures[role] = payload
                continue
            # Liveness check: a child that exited without reporting is dead.
            # A short grace period lets an already-queued result drain (the
            # queue feeder can lag the exit notification).
            dead = {
                role: child.exitcode
                for role, child in children.items()
                if child.exitcode is not None
                and role not in results
                and role not in failures
            }
            if dead:
                if grace_deadline is None:
                    # repro: nondeterministic-ok child-death grace timer (driver only)
                    grace_deadline = time.monotonic() + 2.0
                # repro: nondeterministic-ok child-death grace timer (driver only)
                elif time.monotonic() > grace_deadline:
                    detail = ", ".join(
                        f"{role} (exit code {code})" for role, code in dead.items()
                    )
                    raise FatalTransportError(
                        f"endpoint died before reporting a result: {detail}"
                    )
    finally:
        for child in children.values():
            child.join(timeout=5.0)
            if child.is_alive():
                child.terminate()
                child.join(timeout=5.0)
    if failures:
        detail = "\n\n".join(
            f"--- {role} endpoint failed ---\n{tb}" for role, tb in failures.items()
        )
        raise FatalTransportError(f"{what} failed:\n{detail}")
    return results, link_stats


def run_two_party(
    program,
    args: tuple = (),
    *,
    guest_parties: tuple[str, ...] = ("A",),
    host_parties: tuple[str, ...] = ("B",),
    timeout: float = 120.0,
    record_transcript: bool = True,
    start_method: str | None = None,
    sock_timeout: float | None = None,
    retry: RetryPolicy | None = None,
    fault_plans: dict | None = None,
) -> dict[str, object]:
    """Run ``program`` as guest and host in separate OS processes.

    A thin wrapper over :func:`repro.comm.fabric.run_federation` in
    mirrored lockstep mode (the original two-party execution model:
    ``program(channel, *args)`` must be deterministic given its
    arguments, and both endpoints execute it in lockstep over a loopback
    TCP connection).  Returns ``run_federation``'s dict —
    ``{"results": {"guest": ..., "host": ...}, "link_stats": {...}}`` —
    where ``link_stats`` maps each role to its endpoint's final
    :class:`LinkStats` dict (snapshotted after the graceful close), so
    chaos tests and benches read recovery counters from the return value.

    ``sock_timeout`` bounds each socket read (defaults to ``timeout``):
    chaos runs set it low so dropped frames are NAKed quickly while the
    overall deadline stays generous.  ``fault_plans`` maps a role
    (``"guest"``/``"host"``) to a seeded
    :class:`~repro.comm.faults.FaultPlan` applied to that endpoint's
    outbound DATA envelopes.  ``retry`` overrides the link's
    :class:`RetryPolicy`.

    A hard deadline of ``timeout`` seconds covers connection setup, every
    socket read, and the overall run, and child liveness is polled while
    waiting: an endpoint that dies before reporting (OOM, SIGKILL, crash)
    fails the run as soon as the death is observed — with its exit code —
    instead of burning the full deadline.
    """
    # Late import: fabric builds on this module's link layer.
    from repro.comm.fabric import run_federation

    return run_federation(
        program,
        args,
        roles={"host": tuple(host_parties), "guest": tuple(guest_parties)},
        mirror=True,
        timeout=timeout,
        record_transcript=record_transcript,
        start_method=start_method,
        sock_timeout=sock_timeout,
        retry=retry,
        fault_plans=fault_plans,
    )
