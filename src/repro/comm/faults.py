"""Deterministic fault injection for the federation transport.

Chaos testing is only useful when it is *reproducible*: a fault schedule
that depends on wall-clock timing or un-seeded randomness produces
unrepeatable failures.  This module schedules faults **by frame index**
from a seeded plan, so a failing chaos run replays bit-identically.

Two injection points cover the channel tiers:

* :class:`FaultySocket` wraps a fabric link's socket and
  perturbs *outbound DATA link envelopes* (see
  :mod:`repro.comm.transport`): drop, duplicate, corrupt (one bit in the
  payload region, so link framing survives and the CRC catches it), delay,
  and a full injected disconnect.  Control envelopes (NAK/RESUME) and bare
  handshake frames pass through untouched — faults stay frame-granular and
  the recovery machinery itself is never sabotaged, which is what makes
  the deterministic replay argument go through.
* :class:`FaultyChannel` applies the same plan to encoded codec frames on
  the in-process serializing tier, for fast detection tests that need no
  sockets: a corrupted frame must raise
  :class:`~repro.comm.codec.FrameIntegrityError` at the send site, a
  dropped frame must surface as a protocol desync, never as silent
  mis-delivery.

The plan itself is a picklable value object, so
:func:`~repro.comm.fabric.run_federation` can ship per-link plans to its
child processes.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass

from repro.comm import codec
from repro.comm.channel import SerializingChannel
from repro.comm.message import Message

__all__ = [
    "FAULT_ACTIONS",
    "FaultEvent",
    "FaultPlan",
    "FaultySocket",
    "FaultyChannel",
    "per_link_plans",
]

FAULT_ACTIONS = ("drop", "duplicate", "corrupt", "delay", "disconnect")


def _flip_bit(data: bytes, offset: int, mask: int = 0x01) -> bytes:
    """Return ``data`` with ``mask`` XORed into the byte at ``offset``."""
    out = bytearray(data)
    out[offset] ^= mask
    return bytes(out)


def _corrupt_codec_frame(frame: bytes, salt: int = 0) -> bytes:
    """Flip one deterministic bit inside a codec frame's *body* region.

    The preamble is left intact so the frame still parses as a frame — the
    corruption must be caught by the CRC32 trailer
    (:func:`repro.comm.codec.check_frame`), not by a length accident.
    """
    body_len = len(frame) - codec.PREAMBLE_SIZE - codec.CRC_SIZE
    if body_len <= 0:  # pragma: no cover - every real frame has a body
        return _flip_bit(frame, len(frame) - 1)
    offset = codec.PREAMBLE_SIZE + (salt * 13) % body_len
    return _flip_bit(frame, offset, 0x01 << (salt % 8))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: apply ``action`` to the ``frame``-th DATA frame.

    Frame indices are 1-based and count only faultable frames (DATA
    envelopes on the socket tier, protocol frames on the channel tier).
    ``delay`` is the sleep in seconds for ``action == "delay"``.
    """

    frame: int
    action: str
    delay: float = 0.05

    def __post_init__(self):
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if self.frame < 1:
            raise ValueError("fault frame indices are 1-based")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of transport faults.

    Build one explicitly from :class:`FaultEvent` entries, or use
    :meth:`seeded` to draw a schedule from rates — same seed, same rates,
    same schedule, every run.  The plan is immutable and picklable.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        frames: int,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay: float = 0.02,
        disconnect_at: int | None = None,
    ) -> "FaultPlan":
        """Draw at most one fault per frame index from ``random.Random(seed)``.

        Rates are per-frame probabilities, evaluated in a fixed order
        (drop, duplicate, corrupt, delay) so the schedule is a pure
        function of ``(seed, frames, rates)``.  ``disconnect_at`` adds a
        single injected disconnect at that frame index.
        """
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        for index in range(1, frames + 1):
            if disconnect_at is not None and index == disconnect_at:
                events.append(FaultEvent(index, "disconnect"))
                continue
            draw = rng.random()
            threshold = 0.0
            for action, rate in (
                ("drop", drop_rate),
                ("duplicate", duplicate_rate),
                ("corrupt", corrupt_rate),
                ("delay", delay_rate),
            ):
                threshold += rate
                if draw < threshold:
                    events.append(FaultEvent(index, action, delay=delay))
                    break
        return cls(events=tuple(events), seed=seed)

    def events_for(self, index: int) -> tuple[FaultEvent, ...]:
        """All scheduled faults for the ``index``-th faultable frame."""
        return tuple(ev for ev in self.events if ev.frame == index)

    def __bool__(self) -> bool:
        return bool(self.events)


def per_link_plans(
    fault_plans: dict,
    roles,
    aliases: dict[str, str] | None = None,
) -> dict[str, dict[str, "FaultPlan"]]:
    """Normalise fabric fault addressing to ``{sender: {receiver: plan}}``.

    ``fault_plans`` keys address *directed* fabric links: a
    ``(sender_role, receiver_role)`` pair faults that one outbound
    direction, while a bare sender role is shorthand for every outbound
    link of that role.  ``aliases`` maps alternate names onto roles (the
    fabric passes its party→home-role map, so ``("A1", "B")`` addresses
    the link between those parties' endpoints).  Explicit pairs win over
    the shorthand for the same link.  Faults are injected on the sender's
    side of the duplex socket, so each direction of a link carries its
    own independent schedule (and frame counter).
    """
    roles = sorted(roles)
    role_set = set(roles)
    aliases = aliases or {}
    if len(role_set) < 2:
        raise ValueError("per-link fault plans need at least two fabric roles")
    plans: dict[str, dict[str, FaultPlan]] = {role: {} for role in roles}

    def _check(key, name) -> str:
        role = name if name in role_set else aliases.get(name)
        if role is None:
            raise ValueError(
                f"fault plan key {key!r} names unknown fabric role {name!r}; "
                f"roles are {roles}"
            )
        return role

    pairs: list[tuple[tuple[str, str], FaultPlan]] = []
    for key, plan in sorted(fault_plans.items(), key=lambda kv: str(kv[0])):
        if not isinstance(plan, FaultPlan):
            raise ValueError(
                f"fault plan for {key!r} must be a FaultPlan, "
                f"got {type(plan).__name__}"
            )
        if isinstance(key, str):
            sender = _check(key, key)
            for receiver in roles:
                if receiver != sender:
                    plans[sender][receiver] = plan
            continue
        if isinstance(key, tuple) and len(key) == 2:
            sender, receiver = (_check(key, r) for r in key)
            if sender == receiver:
                raise ValueError(
                    f"fault plan key {key!r} must name two distinct roles"
                )
            pairs.append(((sender, receiver), plan))
            continue
        raise ValueError(
            f"fault plan key {key!r} must be a role name or a "
            "(sender_role, receiver_role) pair"
        )
    for (sender, receiver), plan in pairs:
        plans[sender][receiver] = plan
    return {role: links for role, links in plans.items() if links}


class FaultySocket:
    """A socket wrapper that perturbs outbound DATA envelopes per plan.

    Only DATA link envelopes advance the frame counter and are eligible
    for faults; handshake frames and NAK/RESUME control envelopes are
    forwarded verbatim.  ``applied`` logs ``(frame_index, action)`` for
    every fault actually injected, so tests can assert the schedule fired.

    The wrapper survives reconnects: :meth:`rebind` swaps in the fresh
    socket while the frame counter (and therefore the remaining schedule)
    keeps counting — an injected disconnect at frame 40 still leaves a
    corrupt scheduled for frame 55 armed on the new connection.
    """

    def __init__(self, sock: socket.socket, plan: FaultPlan):
        self._sock = sock
        self.plan = plan
        self.data_frames = 0
        self.applied: list[tuple[int, str]] = []

    def rebind(self, sock: socket.socket) -> "FaultySocket":
        """Point the wrapper at a fresh socket after a reconnect."""
        self._sock = sock
        return self

    def sendall(self, data: bytes) -> None:
        from repro.comm.transport import is_data_envelope

        if not is_data_envelope(data):
            return self._sock.sendall(data)
        self.data_frames += 1
        index = self.data_frames
        out = data
        for event in self.plan.events_for(index):
            self.applied.append((index, event.action))
            if event.action == "drop":
                return None  # swallow the envelope entirely
            if event.action == "duplicate":
                self._sock.sendall(out)
            elif event.action == "corrupt":
                out = self._corrupt_envelope(out, salt=index)
            elif event.action == "delay":
                time.sleep(event.delay)
            elif event.action == "disconnect":
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                self._sock.close()
                raise ConnectionResetError(
                    f"injected disconnect at DATA frame {index}"
                )
        return self._sock.sendall(out)

    @staticmethod
    def _corrupt_envelope(env: bytes, salt: int) -> bytes:
        """Flip one bit in the envelope's payload region.

        The link header and length field stay intact, so the receiver
        still reads a complete envelope and the CRC check — not a framing
        accident — detects the corruption and triggers a NAK.
        """
        from repro.comm.transport import ENV_HEADER_SIZE

        payload_len = len(env) - ENV_HEADER_SIZE - 4
        if payload_len <= 0:  # pragma: no cover - DATA always has a payload
            return _flip_bit(env, len(env) - 1)
        offset = ENV_HEADER_SIZE + (salt * 13) % payload_len
        return _flip_bit(env, offset, 0x01 << (salt % 8))

    # Everything else behaves like the wrapped socket (recv, settimeout,
    # close, getsockname, ...), so the link layer never needs to know it
    # is being sabotaged.
    def __getattr__(self, name: str):
        return getattr(self._sock, name)


# repro: api-ok the in-process fault harness for detection tests
class FaultyChannel(SerializingChannel):
    """Serializing channel with plan-scheduled faults on encoded frames.

    The in-process twin of :class:`FaultySocket`, for detection tests that
    need no sockets.  Here there is no reliability sublayer, so injected
    faults must *surface*, never be masked:

    * ``corrupt`` — the decoded-from-bytes delivery raises
      :class:`~repro.comm.codec.FrameIntegrityError` at the send site;
    * ``drop`` — delivery is skipped, so the receiver's next ``recv``
      fails loudly (empty queue or tag desync);
    * ``duplicate`` — the frame is delivered twice, surfacing as a tag
      desync at the receiver;
    * ``disconnect`` — the send raises :class:`BrokenPipeError`;
    * ``delay`` — sleeps (the only masked fault: in-process delivery has
      no timeout to trip).
    """

    def __init__(self, plan: FaultPlan, record_transcript: bool = True):
        super().__init__(record_transcript)
        self.plan = plan
        self.data_frames = 0
        self.applied: list[tuple[int, str]] = []
        self._suppress_delivery = False
        self._duplicate_delivery = False

    def _transcode(self, msg: Message) -> Message:
        frame = codec.encode_message(msg)
        self.data_frames += 1
        index = self.data_frames
        self._suppress_delivery = False
        self._duplicate_delivery = False
        for event in self.plan.events_for(index):
            self.applied.append((index, event.action))
            if event.action == "corrupt":
                frame = _corrupt_codec_frame(frame, salt=index)
            elif event.action == "drop":
                self._suppress_delivery = True
            elif event.action == "duplicate":
                self._duplicate_delivery = True
            elif event.action == "delay":
                time.sleep(event.delay)
            elif event.action == "disconnect":
                raise BrokenPipeError(
                    f"injected disconnect at frame {index}"
                )
        # decode_message CRC-checks the frame: a corrupted frame raises
        # FrameIntegrityError right here, at the send site.
        return codec.decode_message(frame, key_ring=self.key_ring)

    def _deliver(self, msg: Message) -> None:
        if self._suppress_delivery:
            return
        super()._deliver(msg)
        if self._duplicate_delivery:
            super()._deliver(msg)
