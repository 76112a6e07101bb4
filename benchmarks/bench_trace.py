"""Telemetry benchmark: traced training runs that must reconcile exactly.

The trace subsystem's claims are counting-only, so the gate in
``run_bench.check_trace`` asserts them deterministically:

* **schema** — every traced run validates (`repro.obs.validate_trace`);
* **reconciliation** — per-party traced byte counters equal the
  channel's ``bytes_by_sender`` to the byte, ``frames.sent`` equals the
  transcript length, and on the serializing tier the traced byte total
  equals the sum of real encoded frame lengths;
* **determinism** — two identically seeded traced runs produce identical
  counter totals and span skeletons;
* **ciphertext fold** — the packed run encrypts/decrypts strictly fewer
  ciphertexts than the unpacked run at the same key;
* **clean link** — a traced ping-pong over a fault-free reliable link
  records zero reliability events (``link.retransmits`` etc.) while its
  ``link.data_sent`` matches the ``LinkStats`` ledger exactly.

Emits ``BENCH_trace.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_trace.py
    PYTHONPATH=src python benchmarks/bench_trace.py --quick
"""

from __future__ import annotations

import argparse
import json
import socket
from pathlib import Path

import numpy as np

import run_bench
from repro.comm import codec
from repro.comm.party import VFLConfig, VFLContext
from repro.comm.transport import ReliableLink, RetryPolicy
from repro.core.models import FederatedLR
from repro.core.trainer import TrainConfig, train_federated
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification
from repro.obs.report import fold_trace
from repro.obs.tracer import Tracer, counter_totals, use_tracer, validate_trace

REPO_ROOT = Path(__file__).resolve().parent.parent

KEY_BITS = 256  # smallest key whose packed layout fits two product slots

# Reliability-event counters that must stay zero on a clean traced link
# (everything in LinkStats except the data/overhead ledgers and the gauge).
LINK_RELIABILITY_EVENTS = (
    "retransmits", "naks_sent", "naks_received", "duplicates_dropped",
    "corrupt_dropped", "timeouts", "reconnects", "resumes",
)


def _traced_train(packing: bool, batches: int) -> dict:
    """One seeded serializing traced run; returns trace + channel ledgers.

    The tier is chosen where the federation is built, so the channel's
    ledgers also hold the layers' init traffic; the rows below are the
    ledger *deltas* over the training call — what the trace covers.
    """
    ctx = VFLContext(
        VFLConfig(key_bits=KEY_BITS, packing=packing, channel="serializing"), seed=3
    )
    model = FederatedLR(ctx, 3, 3)
    vd = split_vertical(make_dense_classification(48, 6, seed=50))
    cfg = TrainConfig(
        epochs=1, batch_size=16, lr=0.1, momentum=0.9, seed=0,
        telemetry="memory",
    )
    ch = ctx.channel
    init_bytes, init_messages = dict(ch.bytes_by_sender), len(ch.transcript)
    history = train_federated(model, vd, cfg, max_batches_per_epoch=batches)
    trace = history.trace
    validate_trace(trace)
    messages = ch.transcript[init_messages:]
    totals = counter_totals(trace)
    return {
        "packing": packing,
        "n_spans": len(trace),
        "totals": totals,
        "skeleton": [
            [sp["phase"], sp["party"], sp["parent"]] for sp in trace
        ],
        "bytes_by_sender": {
            party: nbytes - init_bytes.get(party, 0)
            for party, nbytes in ch.bytes_by_sender.items()
        },
        "n_messages": len(messages),
        "frame_bytes": sum(m.nbytes for m in messages),
        "fold": {
            "rows": [
                {k: v for k, v in row.items() if k != "counters"}
                for row in fold_trace(trace)["rows"]
            ],
            "parties": fold_trace(trace)["parties"],
        },
    }


def _traced_clean_link(n_rounds: int, payload_elems: int) -> dict:
    """Lockstep ping-pong over a fault-free socketpair, traced end to end.

    Single-threaded: the socketpair buffers one frame easily, so each
    round is send(A) -> recv(B) -> send(B) -> recv(A) with no echo
    thread, and both links' counters land on the tracer's root span.
    """
    frame = codec.encode_payload_frame(np.arange(payload_elems, dtype=np.float64))
    raw_a, raw_b = socket.socketpair()
    raw_a.settimeout(0.5)
    raw_b.settimeout(0.5)
    retry = RetryPolicy(max_retries=4, base_delay=0.02, max_delay=0.2,
                        jitter=0.1, seed=1)
    link_a = ReliableLink(raw_a, retry=retry)
    link_b = ReliableLink(raw_b, retry=retry)
    tracer = Tracer()
    try:
        with use_tracer(tracer):
            for _ in range(n_rounds):
                link_a.send_frame(frame)
                link_b.send_frame(link_b.recv_frame())
                link_a.recv_frame()
            # Snapshot inside the traced region: FIN/close traffic after
            # the tracer exits is deliberately out of scope.
            stats_a = link_a.stats.as_dict()
            stats_b = link_b.stats.as_dict()
    finally:
        for s in (raw_a, raw_b):
            try:
                s.close()
            except OSError:
                pass
    return {
        "rounds": n_rounds,
        "frame_bytes": len(frame),
        "totals": counter_totals(tracer.to_dicts()),
        "sender": stats_a,
        "receiver": stats_b,
    }


def run(quick: bool = False) -> dict:
    """Traced runs for the gate: unpacked x2 (determinism), packed, link."""
    batches = 2 if quick else 3
    link_rounds = 32 if quick else 128
    unpacked = _traced_train(packing=False, batches=batches)
    unpacked_repeat = _traced_train(packing=False, batches=batches)
    packed = _traced_train(packing=True, batches=batches)
    clean_link = _traced_clean_link(link_rounds, 64)
    return {
        "meta": run_bench.bench_meta(quick=quick, key_bits=KEY_BITS, batches=batches),
        "unpacked": unpacked,
        "unpacked_repeat": unpacked_repeat,
        "packed": packed,
        "clean_link": clean_link,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-sized runs")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_trace.json")
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for name in ("unpacked", "packed"):
        row = results[name]
        t = row["totals"]
        print(
            f"{name}: {row['n_spans']} spans, ct_enc {t.get('ct.encrypted', 0)}, "
            f"ct_dec {t.get('ct.decrypted', 0)}, bytes {t.get('bytes.sent', 0)} "
            f"(channel says {sum(row['bytes_by_sender'].values())})"
        )
    link = results["clean_link"]
    print(
        f"clean link: {link['rounds']} rounds, traced data_sent "
        f"{link['totals'].get('link.data_sent', 0)}, reliability events "
        f"{sum(link['totals'].get('link.' + k, 0) for k in LINK_RELIABILITY_EVENTS)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
