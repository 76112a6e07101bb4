"""Federation telemetry: span tracer, sinks, reports, and reconciliation.

The acceptance properties under test:

* **zero overhead when disabled** — instrumentation sites consult the
  tracer once per kernel/protocol call, never per element (pinned by a
  counting monkeypatch over ``repro.obs.tracer.get_tracer``);
* **exact reconciliation** — a traced run's per-party byte counters equal
  ``Channel.bytes_by_sender`` to the byte on every tier (estimated
  payload bytes on the memory tier, measured frame lengths on the
  serializing tier, real socket frames on the network tier), and traced
  ``link.*`` counters equal the ``LinkStats`` deltas by construction;
* **determinism** — two identically seeded runs produce identical
  counter totals, and parallel execution counts exactly what serial
  does (workers report pow deltas back through the result pipe).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from test_transport import _BUILDERS

from repro.comm.channel import Channel
from repro.comm.message import MessageKind
from repro.comm.party import VFLConfig, VFLContext
from repro.comm.transport import run_two_party
from repro.core.trainer import TrainConfig, train_federated
from repro.crypto.crypto_tensor import CryptoTensor
from repro.crypto.paillier import generate_paillier_keypair
from repro.crypto.parallel import ParallelContext
from repro.obs.report import fold_trace, format_report, report_json, write_report
from repro.obs.sinks import (
    ChromeTraceSink,
    JsonlSink,
    NullSink,
    TeeSink,
    make_sink,
)
from repro.obs.tracer import (
    ROOT_PHASE,
    Tracer,
    counter_totals,
    get_tracer,
    use_tracer,
    validate_trace,
)
from repro.obs import tracer as obs_tracer

SOCKET_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# Tracer core


def test_tracer_nests_spans_and_attributes_counters():
    trc = Tracer()
    with trc.span("epoch", epoch=0) as epoch:
        trc.add("pow.mul", 3)
        with trc.span("encrypt", party="B") as enc:
            trc.add("ct.encrypted", 4)
            assert trc.current is enc
        trc.add("pow.mul", 2)
        assert trc.current is epoch
    trc.close()
    spans = trc.to_dicts()
    validate_trace(spans)
    by_phase = {sp["phase"]: sp for sp in spans}
    assert by_phase["encrypt"]["counters"] == {"ct.encrypted": 4}
    assert by_phase["encrypt"]["party"] == "B"
    assert by_phase["epoch"]["counters"] == {"pow.mul": 5}
    assert by_phase["epoch"]["attrs"] == {"epoch": 0}
    # Nesting: encrypt's parent is epoch, epoch's parent is the root.
    assert by_phase["encrypt"]["parent"] == by_phase["epoch"]["id"]
    assert by_phase["epoch"]["parent"] == by_phase[ROOT_PHASE]["id"]
    assert by_phase["encrypt"]["depth"] == 2
    # Durations come from the nesting-safe Timer and nest sanely.
    assert by_phase["epoch"]["dur_s"] >= by_phase["encrypt"]["dur_s"] >= 0


def test_tracer_out_of_order_close_raises():
    trc = Tracer()
    outer = trc._open("a", None, {})
    trc._open("b", None, {})
    with pytest.raises(RuntimeError, match="out of order"):
        trc._close(outer)


def test_tracer_close_drains_open_spans_root_last():
    trc = Tracer()
    trc._open("epoch", None, {})
    trc._open("batch", None, {})
    trc.close()
    assert [sp.phase for sp in trc.spans] == ["batch", "epoch", ROOT_PHASE]
    validate_trace(trc.to_dicts())


def test_use_tracer_installs_restores_and_closes():
    assert get_tracer() is None
    trc = Tracer()
    with use_tracer(trc) as active:
        assert active is trc and get_tracer() is trc
        with obs_tracer.span("encrypt", party="A"):
            obs_tracer.add("ct.encrypted", 2)
    assert get_tracer() is None
    assert counter_totals(trc.to_dicts()) == {"ct.encrypted": 2}


def test_disabled_module_api_is_inert():
    assert get_tracer() is None
    # span() returns the shared null context; add() is a no-op.
    with obs_tracer.span("encrypt") as sp:
        assert sp is None
        obs_tracer.add("ct.encrypted", 5)
    obs_tracer.add_many({"pow.mul": 3})


def test_validate_trace_rejects_malformed():
    trc = Tracer()
    with trc.span("encrypt"):
        pass
    trc.close()
    good = trc.to_dicts()
    validate_trace(good)

    def corrupted(mutate):
        spans = [dict(sp, counters=dict(sp["counters"])) for sp in good]
        mutate(spans)
        return spans

    cases = [
        lambda s: s[0].__setitem__("id", s[1]["id"]),  # duplicate id
        lambda s: s[0].__setitem__("parent", 999),  # unresolvable parent
        lambda s: s[0]["counters"].__setitem__("pow.mul", -1),
        lambda s: s[0].__setitem__("dur_s", -0.5),
        lambda s: s[0].__setitem__("parent", None),  # two roots
        lambda s: s[0].__setitem__("depth", 7),
        lambda s: s[0].pop("phase"),
    ]
    for mutate in cases:
        with pytest.raises(ValueError):
            validate_trace(corrupted(mutate))
    with pytest.raises(ValueError):
        validate_trace([])


# ---------------------------------------------------------------------------
# Sinks


def test_jsonl_sink_streams_span_dicts(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    trc = Tracer(sink=JsonlSink(path))
    with trc.span("encrypt", party="A"):
        trc.add("ct.encrypted", 3)
    trc.close()
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    validate_trace(lines)
    assert lines[0]["phase"] == "encrypt"
    assert lines[0]["counters"] == {"ct.encrypted": 3}
    assert lines[-1]["phase"] == ROOT_PHASE  # close order: root last


def test_chrome_sink_writes_loadable_trace(tmp_path):
    path = str(tmp_path / "trace.json")
    trc = Tracer(sink=ChromeTraceSink(path))
    with trc.span("decrypt", party="A"):
        trc.add("ct.decrypted", 2)
    with trc.span("encrypt", party="B"):
        pass
    trc.close()
    payload = json.loads(open(path, encoding="utf-8").read())
    events = payload["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in xs} == {"decrypt", "encrypt", ROOT_PHASE}
    # One lane per party, named for the trace viewer.
    assert {m["args"]["name"] for m in metas} == {"A", "B", "-"}
    decrypt = next(e for e in xs if e["name"] == "decrypt")
    assert decrypt["args"]["ct.decrypted"] == 2
    assert decrypt["dur"] >= 0


def test_make_sink_mapping(tmp_path):
    assert make_sink("off") is None
    assert make_sink("memory") is None
    assert isinstance(make_sink("null"), NullSink)
    assert isinstance(make_sink("jsonl", str(tmp_path / "t.jsonl")), JsonlSink)
    assert isinstance(make_sink("chrome", str(tmp_path / "t.json")), ChromeTraceSink)
    with pytest.raises(ValueError, match="telemetry_path"):
        make_sink("jsonl")
    with pytest.raises(ValueError, match="unknown telemetry kind"):
        make_sink("bogus")


def test_tee_sink_fans_out(tmp_path):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    trc = Tracer(sink=TeeSink(JsonlSink(a), JsonlSink(b)))
    with trc.span("pack"):
        pass
    trc.close()
    assert open(a, encoding="utf-8").read() == open(b, encoding="utf-8").read()


# ---------------------------------------------------------------------------
# Report folding


def _traced_run(telemetry="memory", channel="serializing", packing=False,
                key_bits=128, telemetry_path=None, seed=3):
    """A traced run plus the channel's ledger as it stood before training
    (layer init already crossed the channel; the trace covers training)."""
    ctx = VFLContext(
        VFLConfig(key_bits=key_bits, packing=packing, channel=channel), seed=seed
    )
    model, vd = _BUILDERS["lr"](ctx)
    cfg = TrainConfig(
        epochs=1, batch_size=16, lr=0.1, momentum=0.9, seed=0,
        telemetry=telemetry, telemetry_path=telemetry_path,
        blinding_pool_per_epoch=4,
    )
    ch = ctx.channel
    init = (dict(ch.bytes_by_sender), len(ch.transcript))
    history = train_federated(model, vd, cfg, max_batches_per_epoch=2)
    return history, ctx, init


def test_fold_trace_and_report(tmp_path):
    history, *_ = _traced_run()
    folded = fold_trace(history.trace)
    phases = {(r["party"], r["phase"]) for r in folded["rows"]}
    # The span taxonomy shows up with party attribution on the crypto legs.
    assert ("A", "decrypt") in phases and ("B", "decrypt") in phases
    assert ("B", "encrypt") in phases
    assert any(p[1] == "he2ss_send" for p in phases)
    assert ("-", "fw_transfer") in phases and ("-", "bw_transfer") in phases
    assert ("-", "epoch") in phases and ("-", "batch") in phases
    assert ("-", "blinding_refill") in phases
    # own_s never exceeds wall_s, pows/cts are non-negative ints.
    for row in folded["rows"]:
        assert 0 <= row["own_s"] <= row["wall_s"] + 1e-9
        assert row["pows"] >= 0 and row["ct_enc"] >= 0
    # Party summaries classify compute vs comm and attribute bytes.
    assert folded["parties"]["A"]["bytes_sent"] > 0
    assert folded["parties"]["B"]["bytes_sent"] > 0
    assert folded["link_events"] == 0  # no reliable link on this tier
    report = format_report(folded)
    assert "per-party phase costs" in report and "party summary" in report
    assert "he2ss_send" in report
    path = tmp_path / "report.json"
    write_report(folded, str(path))
    assert json.loads(path.read_text()) == json.loads(report_json(folded))


def test_jsonl_telemetry_from_trainer(tmp_path):
    path = tmp_path / "train.jsonl"
    history, *_ = _traced_run(telemetry="jsonl", telemetry_path=str(path))
    exported = [json.loads(line) for line in path.read_text().splitlines()]
    validate_trace(exported)
    # The export is the same trace History carries.
    assert counter_totals(exported) == counter_totals(history.trace)


# ---------------------------------------------------------------------------
# Reconciliation: traced counters == channel accounting, exactly.


@pytest.mark.parametrize("channel", ["memory", "serializing"])
def test_traced_bytes_reconcile_with_channel(channel):
    history, ctx, (init_bytes, init_messages) = _traced_run(channel=channel)
    totals = counter_totals(history.trace)
    ch = ctx.channel
    sent = {p: n - init_bytes.get(p, 0) for p, n in ch.bytes_by_sender.items()}
    messages = ch.transcript[init_messages:]
    assert messages and all(sent.values()), "training must have sent traffic"
    for party, nbytes in sent.items():
        assert totals["bytes.sent." + party] == nbytes
    assert totals["bytes.sent"] == sum(sent.values())
    assert totals["frames.sent"] == len(messages)
    # On the serializing tier nbytes is the measured frame length, so the
    # traced total equals the sum of real encoded frames.
    assert totals["bytes.sent"] == sum(m.nbytes for m in messages)
    # Every message leaves one ``send`` and one ``recv`` span that carry its
    # tag and no counter: the byte rows stay on the span around the call.
    ends = {
        phase: [sp for sp in history.trace if sp["phase"] == phase]
        for phase in ("send", "recv")
    }
    assert [
        (sp["party"], sp["attrs"]["to"], sp["attrs"]["tag"]) for sp in ends["send"]
    ] == [(m.sender, m.receiver, m.tag) for m in messages]
    assert sorted((sp["party"], sp["attrs"]["tag"]) for sp in ends["recv"]) == sorted(
        (m.receiver, m.tag) for m in messages
    )
    assert not any(sp["counters"] for sp in ends["send"] + ends["recv"])


def test_traced_ciphertext_fold_under_packing():
    unpacked, *_ = _traced_run(packing=False, key_bits=256)
    packed, *_ = _traced_run(packing=True, key_bits=256)
    tu, tp = counter_totals(unpacked.trace), counter_totals(packed.trace)
    # Packing folds lanes into shared ciphertexts: fewer fresh encryptions
    # and decrypts, and ``ct.packed`` appears only on the packed run.
    assert tp["ct.encrypted"] < tu["ct.encrypted"]
    assert tp["ct.decrypted"] < tu["ct.decrypted"]
    assert tp.get("ct.packed", 0) > 0
    assert "ct.packed" not in tu


def test_counter_totals_deterministic_across_seeded_runs():
    first, *_ = _traced_run()
    second, *_ = _traced_run()
    assert counter_totals(first.trace) == counter_totals(second.trace)
    # Span structure is deterministic too, not just totals.
    skeleton = lambda trace: [
        (sp["phase"], sp["party"], sp["parent"], sp["counters"])
        for sp in trace
    ]
    assert skeleton(first.trace) == skeleton(second.trace)


def test_parallel_counts_identical_to_serial():
    """Workers report pow deltas through the pool; totals match serial."""
    values = np.arange(1.0, 13.0).reshape(3, 4)

    def run(parallel):
        # Fresh identically-seeded keys per run: the one-time λ-base ``h``
        # pow is cached on the key, so sharing keys would let the first
        # run pay it for both.
        pub, priv = generate_paillier_keypair(128, seed=7)
        trc = Tracer()
        with use_tracer(trc):
            ct = CryptoTensor.encrypt(pub, values, obfuscate=True,
                                      parallel=parallel)
            prod = ct * 3.0
            (prod + ct).decrypt(priv, parallel=parallel)
        return counter_totals(trc.to_dicts())

    serial = run(None)
    with ParallelContext(workers=2, min_jobs=1) as pctx:
        parallel = run(pctx)
    assert serial == parallel
    assert serial["pow.crt"] == 2 * serial["ct.decrypted"]


# ---------------------------------------------------------------------------
# Zero-overhead-when-disabled: tracer consulted per call, never per element.


def test_disabled_tracer_never_consulted_per_element(monkeypatch):
    pub, priv = generate_paillier_keypair(128, seed=9)
    calls = {"n": 0}

    def counting_get_tracer():
        calls["n"] += 1
        return None

    monkeypatch.setattr("repro.obs.tracer.get_tracer", counting_get_tracer)

    def consultations(size):
        calls["n"] = 0
        values = np.arange(1.0, size + 1.0).reshape(1, -1)
        ct = CryptoTensor.encrypt(pub, values, obfuscate=True)
        prod = ct * 3.0
        (prod + ct).decrypt(priv)
        return calls["n"]

    consultations(2)  # warm-up: the one-time λ-base pow consults once
    small, big = consultations(4), consultations(64)
    # The consultation count is a property of the call graph, not of the
    # tensor size: a 16x larger tensor asks exactly as often.
    assert small == big
    assert 0 < big <= 20
    # The channel pays the same price: one consultation per send.
    channel, calls["n"] = Channel(), 0
    channel.send("A", "B", "t", np.zeros(64), MessageKind.PUBLIC)
    channel.recv("B", "t")
    assert calls["n"] == 1


# ---------------------------------------------------------------------------
# Two-party socket run: traced counters reconcile across real processes.


def traced_socket_program(channel):
    """Train two traced batches over the socket tier; return the ledgers.

    Runs in the child process: the tracer is installed there, and the
    link-stats snapshots bracket the traced region so the ``link.*``
    counter deltas are directly comparable.
    """
    ctx = VFLContext(VFLConfig(key_bits=128), seed=3, channel=channel)
    model, vd = _BUILDERS["lr"](ctx)
    # Layer init already sent traffic on this channel (no channel swap on
    # the socket tier), so the reconciliation brackets the traced region
    # with before/after snapshots of every ledger.
    bytes_before = dict(channel.bytes_by_sender)
    frames_before = len(channel.transcript)
    link_before = channel.link.stats.as_dict()
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, momentum=0.9, seed=0,
                      telemetry="memory")
    history = train_federated(model, vd, cfg, max_batches_per_epoch=2)
    link_after = channel.link.stats.as_dict()
    return {
        "totals": counter_totals(history.trace),
        "n_spans": len(history.trace),
        "bytes_by_sender": {
            party: nbytes - bytes_before.get(party, 0)
            for party, nbytes in channel.bytes_by_sender.items()
        },
        "frame_bytes": sum(
            m.nbytes for m in channel.transcript[frames_before:]
        ),
        "n_frames": len(channel.transcript) - frames_before,
        "link_before": link_before,
        "link_after": link_after,
    }


def test_socket_run_traced_counters_reconcile_exactly():
    results = run_two_party(traced_socket_program, (), timeout=SOCKET_TIMEOUT)
    for role in ("guest", "host"):
        r = results["results"][role]
        totals = r["totals"]
        assert r["n_spans"] > 0
        # Byte reconciliation: traced == channel accounting == real frames.
        for party, nbytes in r["bytes_by_sender"].items():
            assert totals["bytes.sent." + party] == nbytes
        assert totals["bytes.sent"] == r["frame_bytes"]
        assert totals["frames.sent"] == r["n_frames"]
        # Link reconciliation: every traced link.* counter equals the
        # LinkStats delta over the traced region, by construction.
        for stat, after in r["link_after"].items():
            if stat == "resend_highwater":  # gauge, not a counter
                continue
            delta = after - r["link_before"][stat]
            assert totals.get("link." + stat, 0) == delta, stat
        assert totals["link.data_sent"] > 0
    # Satellite: run_two_party surfaces the final LinkStats per role, and
    # the post-shutdown snapshot is a superset of the traced region.
    stats = results["link_stats"]
    assert set(stats) == {"guest", "host"}
    for role in ("guest", "host"):
        assert stats[role]["fins"] >= 1
        assert (
            stats[role]["data_sent"]
            >= results["results"][role]["link_after"]["data_sent"]
        )
