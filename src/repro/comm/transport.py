"""The reliable link: codec frames over one socket, exactly once, in order.

Every link of the federation fabric (:mod:`repro.comm.fabric`) is a
:class:`ReliableLink`.  Codec frames do not touch the socket directly: each
one is wrapped in a small link envelope ``BL | type | seq | ack | length |
payload | crc32`` and the link implements receiver-driven ARQ on top:

* every DATA envelope carries the sender's next sequence number and a
  *piggybacked* cumulative ack of everything delivered in order so far —
  on a clean link the reliability layer adds **zero extra frames**;
* sent frames stay in a resend buffer until the peer's acks prune them;
* a CRC-corrupted envelope or a sequence gap triggers an immediate NAK,
  and the link's one reader (:meth:`ReliableLink.recv_frame`) NAKs after a
  bounded silence on fault-armed links, so a tail-dropped frame is
  recovered too.  The sender replays the requested frames from its
  buffer, and duplicates (a replayed frame that did arrive, or an injected
  duplicate) are discarded by sequence number;
* a write never blocks the reader: socket writes are serialised under
  their own lock, and reading and acking take only a short bookkeeping
  lock, so two ends that both send large frames at once still drain each
  other;
* a dropped connection is *retryable* when a ``reconnect`` callable is
  configured: the endpoint re-establishes the socket, re-runs the hello
  handshake, exchanges RESUME envelopes carrying each side's delivery
  watermark, and replays every buffered frame above the peer's watermark —
  training continues bit-identically through a mid-epoch disconnect.  The
  reconnect budget is the link's :class:`RetryPolicy`.

Errors are classified: :class:`RetryableTransportError` (timeouts, drops,
corruption — the link retries these itself and only surfaces them once the
retry budget is spent) versus :class:`FatalTransportError` (link desync,
mis-wired topology, a dead peer — retrying cannot help).  Both subclass
:class:`TransportError`, which callers catch.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.comm import codec
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
    "read_frame",
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


# repro: api-ok what a link raises on an envelope that fails its CRC
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


def _encode_envelope(etype: int, seq: int, ack: int, payload: bytes = b"") -> bytes:
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
    """Bounded reconnection: exponential backoff with seeded jitter.

    ``delays()`` yields ``max_retries`` sleep intervals, doubling from
    ``base_delay`` up to ``max_delay``, each scaled by a deterministic
    jitter in ``[1, 1 + jitter)`` drawn from ``random.Random(seed)`` — so
    the two ends of a link (different seeds) desynchronise their retries,
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


# repro: api-ok the ledger every ReliableLink keeps as .stats
@dataclass
class LinkStats:
    """Counters for the reliability layer (the link tests read these).

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

    ``reconnect`` (optional) returns a fresh connected socket after a drop,
    its hello handshake already re-run.  Without a reconnector, a drop is
    surfaced as :class:`TransportDisconnected` after the retry budget.
    Sent frames stay in the resend buffer until the peer acknowledges
    them; the buffer is unbounded by design, and
    ``LinkStats.resend_highwater`` gauges its depth.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        retry: RetryPolicy | None = None,
        reconnect=None,
    ):
        self.sock = sock
        # Socket generation: bumped on every successful reconnect.  A
        # thread that observed a failure on generation N passes N into
        # _recover_connection; if another thread already swapped in
        # generation N+1, the stale recovery is a no-op instead of tearing
        # down the fresh socket.
        self.sock_gen = 0
        self.retry = retry or RetryPolicy()
        self.reconnect = reconnect
        self.stats = LinkStats()
        self.send_seq = 0  # last sequence number assigned to a sent frame
        self.recv_seq = 0  # highest seq delivered in order to the channel
        self.peer_ack = 0  # highest cumulative ack received from the peer
        self._peer_fin: int | None = None  # peer's announced final watermark
        self._resend: OrderedDict[int, bytes] = OrderedDict()
        # The fabric drives one link from the program thread (sends) and a
        # receiver thread (reads, acks, and writes NAKs/retransmissions).
        # ``_write`` serialises every socket write, so envelopes never
        # interleave mid-write.  ``_state`` guards the sequence, resend and
        # ack bookkeeping and the socket snapshot, and is held only for a
        # few assignments.  Reading and acking never take ``_write``: if
        # they did, two ends each in a ``sendall`` larger than the socket
        # buffers would stop draining each other and both writes would
        # time out.  A reconnect holds both for its whole sequence, so it
        # is single-flight, a RESUME is the first envelope on a fresh
        # socket, and no reader starts on a socket mid-swap.  Lock order:
        # ``_write`` before ``_state``; both reentrant because the send
        # paths nest (send_frame -> _send_env -> _recover_connection).
        self._write = threading.RLock()
        self._state = threading.RLock()

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
        with self._write:
            with self._state:
                self.send_seq += 1
                self._resend[self.send_seq] = frame
                self.stats.resend_highwater = max(
                    self.stats.resend_highwater, len(self._resend)
                )
                self._prune_resend()
                env = _encode_envelope(ENV_DATA, self.send_seq, self.recv_seq, frame)
            self._count("data_sent")
            self._send_env(env, replayable=True)

    def _send_env(self, env: bytes, replayable: bool = False) -> None:
        with self._write:
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
        # Callers hold self._state.
        while self._resend and next(iter(self._resend)) <= self.peer_ack:
            self._resend.popitem(last=False)
        # Unacked frames are never evicted (they may still be NAKed); the
        # high-water mark records the buffer's depth.

    def _note_ack(self, ack: int) -> None:
        with self._state:
            if ack > self.peer_ack:
                self.peer_ack = ack
                self._prune_resend()

    # ------------------------------------------------------------------ recv

    def recv_frame(
        self,
        should_stop=lambda: False,
        *,
        recover_ok=lambda: True,
        idle_nak_polls: int | None = None,
    ) -> bytes | None:
        """Deliver the next in-order frame; the link's one reader.

        A socket timeout means nothing by itself — an idle link between
        protocol steps is normal, not a crashed peer — so a timeout here
        just polls ``should_stop`` and keeps listening: no NAK, no counter
        bump, the clean-link ledger stays untouched.  On a fault-armed
        link, ``idle_nak_polls`` bounds that patience: after that many
        *consecutive* idle poll slices the receiver NAKs its next expected
        sequence number (and counts a timeout), so a tail-dropped frame — a
        loss no later frame's sequence gap will ever reveal — gets
        retransmitted instead of deadlocking the protocol.  Corruption and sequence gaps still NAK
        immediately, and NAK/RESUME/FIN control traffic is serviced in
        place.  Returns ``None`` when ``should_stop()`` turns true while
        idle.  A dropped connection recovers in place (bounded reconnect
        under the link's retry policy) when ``recover_ok()`` allows it;
        otherwise — recovery declined, no reconnector, or the reconnect
        budget spent — it surfaces as :class:`TransportDisconnected` for
        the caller to classify (clean peer exit vs. mid-protocol death).
        A silent peer is the caller's deadline to enforce (the fabric's
        ``FabricChannel.recv``).
        """
        idle_polls = 0
        while True:
            if should_stop():
                return None
            # Snapshot socket + generation under the state lock: recovery
            # holds it for the whole reconnect, so a reader never starts a
            # read mid-swap and never consumes the replacement socket's
            # RESUME exchange; a read that outlives a swap fails on the
            # closed socket and the stale generation makes its recovery a
            # no-op.
            with self._state:
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
                if should_stop() or not recover_ok():
                    raise
                self._recover_connection(exc, gen=gen)
                continue
            idle_polls = 0
            frame = self._service(etype, seq, ack, payload)
            if frame is not None:
                return frame

    def _service(self, etype: int, seq: int, ack: int, payload: bytes) -> bytes | None:
        """Act on one envelope; the payload when it is the next in-order DATA."""
        self._note_ack(ack)
        if etype == ENV_NAK:
            self._count("naks_received")
            self._retransmit_from(seq)
        elif etype == ENV_RESUME:
            # Peer reconnected and announced its watermark mid-stream.
            self._replay_unacked()
        elif etype == ENV_FIN:
            # Peer's program finished and it announced its final send
            # watermark; NAK any gap so the tail gets retransmitted while
            # the peer is still draining.
            self._peer_fin = seq
            if seq > self.recv_seq:
                self._send_nak()
        elif seq == self.recv_seq + 1:
            self.recv_seq = seq
            self._count("data_received")
            return payload
        elif seq <= self.recv_seq:
            self._count("duplicates_dropped")
        else:
            # Sequence gap: the frames in between were dropped in transit.
            self._send_nak()
        return None

    def _read_envelope(self, sock=None) -> tuple[int, int, int, bytes]:
        # The reader passes an explicit socket snapshot, so a recovery
        # that swaps self.sock mid-read errors the stale reader instead of
        # letting it consume the new socket's RESUME exchange.
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
        self._send_env(_encode_envelope(ENV_NAK, self.recv_seq + 1, self.recv_seq))

    def _retransmit_from(self, seq: int) -> None:
        with self._write:
            with self._state:
                if seq > self.send_seq:
                    # The peer is ahead of us (it NAKed a frame we have not
                    # produced yet — e.g. its idle patience ran out while
                    # we were still computing).  Nothing to replay; our
                    # next send satisfies it.
                    return
                missing = sorted(
                    (s, frame) for s, frame in self._resend.items() if s >= seq
                )
                if not missing and seq > self.peer_ack:
                    raise FatalTransportError(
                        f"peer requested retransmission from seq {seq} but the "
                        f"resend buffer no longer holds it (acked through "
                        f"{self.peer_ack}) — ack bookkeeping diverged"
                    )
            for s, frame in missing:
                self._count("retransmits")
                self._send_env(
                    _encode_envelope(ENV_DATA, s, self.recv_seq, frame),
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

        Recovery is single-flight: both link locks are held for the whole
        sequence (reentrantly safe under the send path, which already
        owns the write lock), and a caller that saw the failure on socket
        generation ``gen`` returns immediately if another thread has
        already swapped in a newer socket — tearing down a freshly
        recovered connection because of a stale error would turn one fault
        into two.
        """
        if self.reconnect is None:
            raise TransportDisconnected(
                f"connection lost mid-run and no reconnector is configured "
                f"({cause})"
            ) from None
        with self._write, self._state:
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
                        # RESUME exchange: announce our watermarks, learn the
                        # peer's, then replay everything it has not
                        # acknowledged.  The envelope goes out raw —
                        # _send_env's own recovery hook would recurse into
                        # this method.
                        env = _encode_envelope(
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
        with self._write:
            with self._state:
                unacked = sorted(
                    (s, frame) for s, frame in self._resend.items()
                    if s > self.peer_ack
                )
            for s, frame in unacked:
                self._count("retransmits")
                self._send_env(
                    _encode_envelope(ENV_DATA, s, self.recv_seq, frame),
                    replayable=True,
                )

    def _send_fin(self) -> None:
        with self._write:
            # Raw send: _send_env's recovery hook has no place at close time.
            self.sock.sendall(
                _encode_envelope(ENV_FIN, self.send_seq, self.recv_seq)
            )
            self._count("fins")
            self._count("envelope_bytes", ENV_OVERHEAD)
