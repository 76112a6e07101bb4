"""Trace quickstart: where does federated training actually spend?

Trains the quickstart's federated LR for two batches with telemetry
switched on (``TrainConfig.telemetry="memory"``), then folds the trace
into the paper's computation-vs-communication breakdown (Table 5's
shape): per party and per phase, wall/own seconds, modular
exponentiations, ciphertexts moved, and measured wire bytes.

The counters are exact, not sampled — ``pow.*`` counts every modular
exponentiation by exponent class, ``bytes.sent.<party>`` mirrors the
channel's own ledger byte-for-byte (asserted here), and a re-run with the
same seeds reproduces the same totals.  Set ``telemetry="jsonl"`` or
``"chrome"`` (plus ``telemetry_path``) to export the same spans to a file
instead of memory; chrome traces load in ``chrome://tracing`` / Perfetto
with one lane per party.

Run:  python examples/trace_quickstart.py
"""

from repro.comm import VFLConfig, VFLContext
from repro.core import FederatedLR, TrainConfig, train_federated
from repro.data import make_dense_classification, split_vertical
from repro.obs import counter_totals, fold_trace, format_report


def main() -> None:
    # Same setup as examples/quickstart.py, shrunk to two batches — the
    # point here is the trace, not the model.  The serializing channel
    # makes every traced byte a real encoded wire frame.
    full = make_dense_classification(n=64, dim=24, seed=7, flip=0.05)
    train_vd = split_vertical(full)

    ctx = VFLContext(VFLConfig(key_bits=256, channel="serializing"), seed=0)
    model = FederatedLR(ctx, in_a=12, in_b=12)
    config = TrainConfig(
        epochs=1, batch_size=32, lr=0.1, momentum=0.9, telemetry="memory",
    )
    # The channel already carried the layer's init traffic; the trace covers
    # the training call, so compare it with the ledger's growth over it.
    init_bytes = dict(ctx.channel.bytes_by_sender)
    history = train_federated(model, train_vd, config, max_batches_per_epoch=2)

    # History.trace carries the closed spans; fold them into the paper's
    # per-party phase table and print it.
    print(format_report(fold_trace(history.trace)))

    # The headline property: traced counters ARE the channel's accounting.
    totals = counter_totals(history.trace)
    for party, total in sorted(ctx.channel.bytes_by_sender.items()):
        nbytes = total - init_bytes.get(party, 0)
        traced = totals[f"bytes.sent.{party}"]
        assert traced == nbytes, (party, traced, nbytes)
        print(f"party {party}: traced {traced} B == channel ledger {nbytes} B")
    pows = sum(v for k, v in totals.items() if k.startswith("pow."))
    print(
        f"total modular exponentiations: {pows} "
        f"({totals.get('ct.encrypted', 0)} ct encrypted, "
        f"{totals.get('ct.decrypted', 0)} ct decrypted)"
    )


if __name__ == "__main__":
    main()
