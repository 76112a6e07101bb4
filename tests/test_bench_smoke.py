"""Tier-1 smoke of the gates that count the subsystems' own ledgers.

The counted microbenchmark rows live in ``benchmarks/micro.py`` and are
asserted in ``tests/test_micro.py``.  These three gates need no row: each
runs one sub-second scenario end to end and holds it to a ledger the
subsystem keeps itself — a reliable link's ``LinkStats``, a traced run's
counters against the channel's byte and frame ledgers, the analyzer's
sweep of ``src/repro``.  Every assertion is a count; no wall clock is gated.
"""

from __future__ import annotations

import socket
import threading

import numpy as np

from repro.analysis import RULES, custody
from repro.analysis.engine import _analyze
from repro.comm import codec
from repro.comm.faults import FaultPlan, FaultySocket
from repro.comm.party import VFLConfig, VFLContext
from repro.comm.transport import ENV_OVERHEAD, ReliableLink, RetryPolicy
from repro.core.models import FederatedLR
from repro.core.trainer import TrainConfig, train_federated
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification
from repro.obs.tracer import Tracer, counter_totals, use_tracer, validate_trace

# Everything in LinkStats except the data and envelope ledgers, the FIN
# count and the resend gauge: each must read zero on a clean link.
RELIABILITY_EVENTS = (
    "retransmits", "naks_sent", "naks_received", "duplicates_dropped",
    "corrupt_dropped", "timeouts", "reconnects", "resumes",
)


def _links(plan: FaultPlan | None = None) -> tuple[ReliableLink, ReliableLink, list]:
    raw = socket.socketpair()
    for s in raw:
        s.settimeout(0.5)
    sock_a = FaultySocket(raw[0], plan) if plan is not None else raw[0]
    links = [ReliableLink(s, retry=RetryPolicy(max_retries=8, base_delay=0.02, max_delay=0.2,
                                               jitter=0.1, seed=seed))
             for s, seed in ((sock_a, 1), (raw[1], 2))]
    return *links, list(raw)


def _ping_pong(rounds: int, elems: int, plan: FaultPlan | None = None) -> tuple[int, dict, dict]:
    """A sends a codec frame and waits for the echo, ``rounds`` times; B
    echoes each.  ``plan`` faults A's sends and arms both readers' idle
    NAK, as on a fault-armed fabric link.  Returns the frames A got back
    intact and both sides' ledgers."""
    frame = codec.encode_payload_frame(np.arange(elems, dtype=np.float64))
    link_a, link_b, raw = _links(plan)
    polls = None if plan is None else 1
    errors: list[BaseException] = []

    def echo() -> None:
        try:
            for _ in range(rounds):
                link_b.send_frame(link_b.recv_frame(idle_nak_polls=polls))
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    try:
        echoed = 0
        for _ in range(rounds):
            link_a.send_frame(frame)
            echoed += link_a.recv_frame(idle_nak_polls=polls) == frame
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "echo thread wedged"
        if errors:
            raise errors[0]
        return echoed, link_a.stats.as_dict(), link_b.stats.as_dict()
    finally:
        for s in raw:
            s.close()


def test_transport_gate_holds():
    """At fault rate 0 the reliability layer counts nothing on either side:
    no retransmit, NAK, duplicate or extra frame, exactly one fixed
    envelope per codec frame.  Under a seeded fault plan every frame still
    comes back, with its recovery traffic in the counters."""
    for rounds, elems in ((64, 16), (64, 512)):
        echoed, sender, receiver = _ping_pong(rounds, elems)
        assert echoed == rounds
        for stats in (sender, receiver):
            assert {c: stats[c] for c in RELIABILITY_EVENTS} == dict.fromkeys(RELIABILITY_EVENTS, 0)
            assert stats["data_sent"] == stats["data_received"] == rounds
            assert stats["envelope_bytes"] == stats["data_sent"] * ENV_OVERHEAD
    plan = FaultPlan.seeded(97, frames=128, drop_rate=0.05, corrupt_rate=0.05,
                            duplicate_rate=0.03)
    assert plan.events
    echoed, sender, receiver = _ping_pong(64, 64, plan)
    assert echoed == 64
    assert receiver["data_received"] == 64  # each frame accepted exactly once
    assert sender["retransmits"] + receiver["naks_sent"] > 0


def _traced_train(packing: bool) -> dict:
    """Two traced batches of the 256-bit dense LR on the serializing tier,
    with the channel's ledgers as deltas over the training call."""
    ctx = VFLContext(VFLConfig(key_bits=256, packing=packing, channel="serializing"), seed=3)
    model = FederatedLR(ctx, 3, 3)
    data = split_vertical(make_dense_classification(48, 6, seed=50))
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, momentum=0.9, seed=0,
                      telemetry="memory")
    ch = ctx.channel
    init_bytes, init_messages = dict(ch.bytes_by_sender), len(ch.transcript)
    trace = validate_trace(train_federated(model, data, cfg, max_batches_per_epoch=2).trace)
    messages = ch.transcript[init_messages:]
    return {
        "totals": counter_totals(trace),
        "skeleton": [(sp["phase"], sp["party"], sp["parent"]) for sp in trace],
        "sent": {p: n - init_bytes.get(p, 0) for p, n in ch.bytes_by_sender.items()},
        "frames": len(messages),
        "frame_bytes": sum(m.nbytes for m in messages),
    }


def test_trace_gate_holds():
    """Traced counters reconcile exactly with the channel's own ledgers,
    identically seeded runs trace identically, the packing fold shows in
    ``ct.encrypted``, and a traced clean link mirrors its ``LinkStats``
    with no reliability event."""
    unpacked, repeat, packed = _traced_train(False), _traced_train(False), _traced_train(True)
    for row in (unpacked, packed):
        totals = row["totals"]
        assert row["frames"] and all(row["sent"].values())
        for party, nbytes in row["sent"].items():
            assert totals[f"bytes.sent.{party}"] == nbytes
        assert totals["frames.sent"] == row["frames"]
        assert totals["bytes.sent"] == row["frame_bytes"] == sum(row["sent"].values())
    assert unpacked["totals"] == repeat["totals"]
    assert unpacked["skeleton"] == repeat["skeleton"]
    assert packed["totals"]["ct.encrypted"] < unpacked["totals"]["ct.encrypted"]
    assert "ct.packed" in packed["totals"] and "ct.packed" not in unpacked["totals"]

    # Lockstep over a clean socketpair, one thread: both links' counters
    # land on the tracer's root span.
    frame = codec.encode_payload_frame(np.arange(64, dtype=np.float64))
    link_a, link_b, raw = _links()
    tracer = Tracer()
    try:
        with use_tracer(tracer):
            for _ in range(32):
                link_a.send_frame(frame)
                link_b.send_frame(link_b.recv_frame())
                assert link_a.recv_frame() == frame
            ledgers = (link_a.stats.as_dict(), link_b.stats.as_dict())
    finally:
        for s in raw:
            s.close()
    totals = counter_totals(tracer.to_dicts())
    assert totals["link.data_sent"] == sum(s["data_sent"] for s in ledgers) == 64
    assert totals["link.envelope_bytes"] == sum(s["envelope_bytes"] for s in ledgers)
    assert not {c: totals[f"link.{c}"] for c in RELIABILITY_EVENTS if totals.get(f"link.{c}")}


# One minimal must-flag probe per rule, under the virtual path that puts it
# in the rule's scope; the richer corpus is tests/data/analysis_fixtures/.
# A whole-program rule's probe also carries the checkout around it.
DETECTION_PROBES = {
    "BF001": ("src/repro/core/probe.py",
              "def f(channel, key):\n    channel.send('a', 'b', 't', None, key.hp)\n"),
    "BF002": ("src/repro/crypto/probe.py", "import random\nx = random.random()\n"),
    "BF003": ("src/repro/crypto/probe.py",
              "from repro.obs.tracer import get_tracer\n"
              "def f(items):\n    for it in items:\n        get_tracer().count('x', 1)\n"),
    "BF004": ("src/repro/comm/codec.py",
              "T_INT = 1\n_TYPE_NAMES = {T_INT: 'int'}\n"
              "def encode_payload(obj):\n    return bytes([T_INT])\n"
              "def decode_payload(buf):\n    return 0\n"),
    "BF005": ("src/repro/comm/transport.py", "def f():\n    raise Exception('boom')\n"),
    "BF007": ("src/repro/crypto/probe.py", "def f(c, e, nsq):\n    return pow(c, e, nsq)\n"),
    # A helper kept for tests alone, beside one an example calls.
    "BF008": ("src/repro/crypto/math_utils.py",
              "def invmod(a, n):\n    return a\n\n\ndef lcm(a, b):\n    return a * b\n",
              {"examples/probe.py": "from repro.crypto.math_utils import invmod\n\ninvmod(3, 7)\n"}),
}


def test_analysis_gate_holds(src_sweep):
    """The tree lints clean under ``repro.analysis``, every rule is
    registered, the custody rule allows no sink, and each rule still flags
    its known-bad probe with exactly its own code."""
    findings, files_scanned = src_sweep
    assert sorted(RULES) == ["BF001", "BF002", "BF003", "BF004", "BF005", "BF007", "BF008"]
    assert files_scanned >= 50, "the sweep lost the tree"
    assert [f.format() for f in findings] == []
    assert custody.ALLOWED_SINKS == set()
    for code, (path, source, *callers) in DETECTION_PROBES.items():
        probed = (_analyze([(path, source)], None, callers[0].items(), ()) if callers
                  else _analyze([(path, source)], None))
        assert sorted({f.rule_code for f in probed}) == [code], f"{code} went blind"
