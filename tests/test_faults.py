"""Fault-injection primitives and the reliable link's recovery behaviour.

Unit-level coverage for :mod:`repro.comm.faults` (seeded fault plans,
socket/channel fault wrappers) and for :class:`repro.comm.transport.
ReliableLink` (ack/NAK retransmission over a socketpair, with faults
injected on the sender's socket).

The link tests follow the protocol's request/response discipline: the sender
finishes its sends and then *blocks in* ``recv_frame`` waiting for a
reply — that is where NAKs from the receiver get serviced.  As on a
fault-armed fabric link, both readers of a faulted link NAK after one idle
poll slice, so a loss no later frame reveals is recovered too.
"""

import socket
import threading

import pytest

from repro.comm import codec
from repro.comm.faults import (
    FaultEvent,
    FaultPlan,
    FaultyChannel,
    FaultySocket,
    _corrupt_codec_frame,
    _flip_bit,
)
from repro.comm.message import MessageKind
from repro.comm.transport import (
    ENV_DATA,
    ENV_OVERHEAD,
    ReliableLink,
    RetryPolicy,
    _encode_envelope,
    is_data_envelope,
    read_frame,
)

# --------------------------------------------------------------------------
# fault plans


def test_fault_plan_seeded_is_deterministic():
    kwargs = dict(frames=200, drop_rate=0.1, duplicate_rate=0.05,
                  corrupt_rate=0.1, delay_rate=0.02, disconnect_at=37)
    a = FaultPlan.seeded(11, **kwargs)
    b = FaultPlan.seeded(11, **kwargs)
    assert a.events == b.events
    assert a.events  # rates this high must schedule something in 200 frames
    c = FaultPlan.seeded(12, **kwargs)
    assert c.events != a.events
    # The requested disconnect is always present, exactly once.
    disconnects = [ev for ev in a.events if ev.action == "disconnect"]
    assert [ev.frame for ev in disconnects] == [37]
    assert a.events_for(37) == tuple(disconnects)


def test_fault_plan_rate_extremes():
    none = FaultPlan.seeded(3, frames=50)
    assert not none and none.events == ()
    everything = FaultPlan.seeded(3, frames=50, drop_rate=1.0)
    assert len(everything.events) == 50
    assert all(ev.action == "drop" for ev in everything.events)


def test_fault_event_validation():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultEvent(1, "explode")
    with pytest.raises(ValueError, match="1-based"):
        FaultEvent(0, "drop")


def test_corrupt_codec_frame_is_detectable_and_seeded():
    frame = codec.encode_payload_frame([1.0, 2.0, 3.0])
    bad = _corrupt_codec_frame(frame, salt=4)
    assert bad != frame and len(bad) == len(frame)
    assert bad == _corrupt_codec_frame(frame, salt=4)  # same salt, same flip
    with pytest.raises(codec.FrameIntegrityError):
        codec.check_frame(bad)
    assert _flip_bit(bad, *_diff_at(frame, bad)) == frame  # exactly one bit


def _diff_at(a, b):
    (offset,) = [i for i in range(len(a)) if a[i] != b[i]]
    return offset, a[offset] ^ b[offset]


# --------------------------------------------------------------------------
# retry policy


def test_retry_policy_delays_deterministic_and_bounded():
    policy = RetryPolicy(max_retries=6, base_delay=0.05, max_delay=0.4,
                         jitter=0.25, seed=9)
    first = list(policy.delays())
    assert first == list(policy.delays())  # fresh generator, same schedule
    assert len(first) == 6
    for attempt, delay in enumerate(first):
        base = min(0.4, 0.05 * 2.0**attempt)
        assert base <= delay < base * 1.25  # backoff floor, jitter ceiling
    assert list(RetryPolicy(max_retries=6, seed=10).delays()) != first


# --------------------------------------------------------------------------
# reliable link over a socketpair


def _paired_links(plan=None, timeout=0.25, max_retries=8):
    """Two ReliableLinks over a socketpair; ``plan`` faults side A's sends."""
    raw_a, raw_b = socket.socketpair()
    raw_a.settimeout(timeout)
    raw_b.settimeout(timeout)
    sock_a = FaultySocket(raw_a, plan) if plan is not None else raw_a
    link_a = ReliableLink(
        sock_a, retry=RetryPolicy(max_retries=max_retries, base_delay=0.02,
                                  max_delay=0.2, jitter=0.1, seed=1))
    link_b = ReliableLink(
        raw_b, retry=RetryPolicy(max_retries=max_retries, base_delay=0.02,
                                 max_delay=0.2, jitter=0.1, seed=2))
    return link_a, link_b


def _frames(n):
    return [codec.encode_payload_frame(("frame", i, [float(i)] * 3))
            for i in range(n)]


DONE = codec.encode_payload_frame("done")


def _exchange(link_a, link_b, frames, faulted=True):
    """A sends ``frames`` then blocks for B's reply; B receives then replies.

    Returns what B received, in order.  A's trailing ``recv_frame`` is the
    window in which it services any NAK/RESUME traffic from B.  A
    ``faulted`` link arms both readers' idle NAK, as the fabric does.
    """
    polls = 1 if faulted else None
    errors = []

    def sender():
        try:
            for frame in frames:
                link_a.send_frame(frame)
            assert link_a.recv_frame(idle_nak_polls=polls) == DONE
        except BaseException as exc:  # surface in the main thread
            errors.append(exc)

    thread = threading.Thread(target=sender, daemon=True)
    thread.start()
    received = [link_b.recv_frame(idle_nak_polls=polls) for _ in frames]
    link_b.send_frame(DONE)
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "sender thread wedged"
    if errors:
        raise errors[0]
    return received


def test_clean_link_delivers_in_order_with_zero_extra_frames():
    link_a, link_b = _paired_links()
    frames = _frames(6)
    assert _exchange(link_a, link_b, frames, faulted=False) == frames
    for stats in (link_a.stats, link_b.stats):
        assert stats.extra_frames() == 0
        assert stats.retransmits == 0
        assert stats.naks_sent == stats.naks_received == 0
        assert stats.duplicates_dropped == stats.corrupt_dropped == 0
        assert stats.timeouts == 0
    assert link_a.stats.data_sent == 6 and link_b.stats.data_received == 6
    # The DONE frame carried ack=6, so A's resend buffer is fully pruned.
    assert not link_a._resend
    assert link_a.stats.envelope_bytes == 6 * ENV_OVERHEAD  # sends only


def test_dropped_frame_is_naked_and_retransmitted():
    plan = FaultPlan(events=(FaultEvent(3, "drop"),))
    link_a, link_b = _paired_links(plan)
    frames = _frames(5)
    assert _exchange(link_a, link_b, frames) == frames
    assert ("drop" in {a for _, a in link_a.sock.applied})
    # The drop shows up as a sequence gap when frame 4 lands, so the NAK
    # fires immediately — no timeout needed to notice it.
    assert link_b.stats.naks_sent >= 1
    assert link_a.stats.naks_received >= 1
    assert link_a.stats.retransmits >= 1


def test_corrupted_frame_is_dropped_and_recovered():
    plan = FaultPlan(events=(FaultEvent(2, "corrupt"),))
    link_a, link_b = _paired_links(plan)
    frames = _frames(4)
    assert _exchange(link_a, link_b, frames) == frames
    assert link_b.stats.corrupt_dropped >= 1
    assert link_b.stats.timeouts == 0  # CRC fails immediately, no timeout
    assert link_b.stats.naks_sent >= 1
    assert link_a.stats.retransmits >= 1


def test_duplicated_frame_is_discarded():
    plan = FaultPlan(events=(FaultEvent(2, "duplicate"),
                             FaultEvent(4, "duplicate")))
    link_a, link_b = _paired_links(plan)
    frames = _frames(5)
    assert _exchange(link_a, link_b, frames) == frames
    assert link_b.stats.duplicates_dropped == 2
    assert link_b.stats.data_received == 5  # delivered exactly once each
    assert link_a.stats.retransmits == 0  # duplicates need no recovery


def test_mixed_fault_schedule_still_delivers_everything():
    plan = FaultPlan(events=(FaultEvent(1, "drop"), FaultEvent(2, "corrupt"),
                             FaultEvent(4, "duplicate"), FaultEvent(5, "drop"),
                             FaultEvent(7, "delay", delay=0.01)))
    link_a, link_b = _paired_links(plan)
    frames = _frames(8)
    assert _exchange(link_a, link_b, frames) == frames
    applied = {action for _, action in link_a.sock.applied}
    assert applied == {"drop", "corrupt", "duplicate", "delay"}


def test_faulty_socket_rebind_preserves_schedule_across_reconnect():
    """The fault-frame counter survives a real reconnect: an injected
    disconnect at frame 2 swaps the socket via ``rebind``, and the
    corrupt scheduled for frame 4 still fires on the *new* connection.
    A counter that reset at the swap would replay frame indices and
    re-fire the disconnect instead."""
    plan = FaultPlan(events=(FaultEvent(2, "disconnect"),
                             FaultEvent(4, "corrupt")))
    raw_a, raw_b = socket.socketpair()
    spare_a, spare_b = socket.socketpair()
    for s in (raw_a, raw_b, spare_a, spare_b):
        s.settimeout(0.25)
    fsock = FaultySocket(raw_a, plan)
    link_a = ReliableLink(
        fsock,
        retry=RetryPolicy(max_retries=8, base_delay=0.02, max_delay=0.2,
                          jitter=0.1, seed=1),
        reconnect=lambda: fsock.rebind(spare_a),
    )
    link_b = ReliableLink(
        raw_b,
        retry=RetryPolicy(max_retries=8, base_delay=0.02, max_delay=0.2,
                          jitter=0.1, seed=2),
        reconnect=lambda: spare_b,
    )
    frames = _frames(5)
    try:
        assert _exchange(link_a, link_b, frames) == frames
    finally:
        for s in (raw_a, raw_b, spare_a, spare_b):
            try:
                s.close()
            except OSError:
                pass
    # The link recovered onto the SAME wrapper, now bound to the spare.
    assert link_a.sock is fsock
    assert fsock._sock is spare_a
    # Exactly one disconnect fired (index 2 never recurred after the
    # swap) and the frame-4 corrupt fired on the new socket.
    assert [a for _, a in fsock.applied if a == "disconnect"] == ["disconnect"]
    assert (2, "disconnect") in fsock.applied
    assert (4, "corrupt") in fsock.applied
    assert link_a.stats.reconnects == 1 and link_a.stats.resumes == 1
    assert link_b.stats.reconnects == 1
    # Full delivery despite the swap and the post-swap corruption.
    assert link_b.stats.data_received == 5
    assert link_b.stats.corrupt_dropped >= 1
    assert link_a.stats.retransmits >= 1


# --------------------------------------------------------------------------
# fault wrappers


def test_faulty_socket_never_touches_control_traffic():
    """Handshake frames and NAK envelopes pass a drop-everything plan."""
    plan = FaultPlan.seeded(0, frames=100, drop_rate=1.0)
    raw_a, raw_b = socket.socketpair()
    raw_a.settimeout(0.5)
    raw_b.settimeout(0.5)
    fsock = FaultySocket(raw_a, plan)
    try:
        hello = codec.encode_hello(["A"])
        fsock.sendall(hello)  # bare codec frame: below the ARQ, unfaulted
        assert read_frame(raw_b) == hello
        nak = _encode_envelope(0x4E, 0, 3)
        fsock.sendall(nak)  # control envelope: forwarded verbatim
        assert raw_b.recv(len(nak)) == nak
        assert fsock.data_frames == 0 and fsock.applied == []
        data = _encode_envelope(ENV_DATA, 1, 0, hello)
        assert is_data_envelope(data)
        fsock.sendall(data)  # DATA: swallowed by the plan
        assert fsock.data_frames == 1 and fsock.applied == [(1, "drop")]
        with pytest.raises(socket.timeout):
            raw_b.recv(1)
    finally:
        raw_a.close()
        raw_b.close()


def _faulty_channel(plan):
    channel = FaultyChannel(plan)
    import numpy as np

    def send(tag="t.step"):
        channel.send("A", "B", tag, np.arange(3.0), MessageKind.SHARE)

    return channel, send


def test_faulty_channel_corruption_surfaces_at_send():
    channel, send = _faulty_channel(FaultPlan(events=(FaultEvent(1, "corrupt"),)))
    with pytest.raises(codec.FrameIntegrityError, match="CRC32"):
        send()


def test_faulty_channel_drop_fails_loudly_at_recv():
    channel, send = _faulty_channel(FaultPlan(events=(FaultEvent(1, "drop"),)))
    send()
    assert channel.pending("B") == 0
    with pytest.raises(LookupError, match="no pending message"):
        channel.recv("B", "t.step")


def test_faulty_channel_duplicate_surfaces_as_desync():
    channel, send = _faulty_channel(FaultPlan(events=(FaultEvent(1, "duplicate"),)))
    send()
    assert channel.pending("B") == 2
    channel.recv("B", "t.step")
    with pytest.raises(LookupError, match="desync"):
        channel.recv("B", "t.other")


def test_faulty_channel_disconnect_raises_broken_pipe():
    channel, send = _faulty_channel(
        FaultPlan(events=(FaultEvent(2, "disconnect"),)))
    send()  # frame 1 passes
    with pytest.raises(BrokenPipeError, match="injected disconnect"):
        send()
