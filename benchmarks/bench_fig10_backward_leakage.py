"""Figure 10: predicting labels from backward derivatives.

Split-learning WDL hands Party A the plaintext ``grad_E_A`` every
iteration; the cosine-direction attack recovers the batch labels at any
depth of hidden layers between the embedding and the loss (the paper's 2 /
3 / 4 hidden-layer curves all reach ~100% training accuracy).

Under BlindFL, Party A receives only ``[[grad_E_A]]`` encrypted under
Party B's key; we additionally run the attack on what A *does* hold — its
random HE2SS mask pieces — to show it degenerates to chance.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.derivative_attack import attack_accuracy_over_batches
from repro.baselines.split_learning import SplitWDL, train_split_wdl
from repro.comm.party import VFLConfig, VFLContext
from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.trainer import TrainConfig
from repro.data.partition import split_vertical
from repro.data.synthetic import make_mixed_classification
from repro.utils.tabulate import format_table

KEY_BITS = 128


def test_fig10_derivative_attack(benchmark, report):
    full = make_mixed_classification(
        256, sparse_dim=40, nnz_per_row=6, n_fields=4, vocab_size=10, seed=70
    )
    vd = split_vertical(full)
    cfg = TrainConfig(epochs=3, batch_size=32, lr=0.1, momentum=0.9)
    rows = []
    curves = {}

    def run():
        for n_hidden in (2, 3, 4):
            model = SplitWDL(
                vd.party("A").vocab_sizes,
                vd.party("B").vocab_sizes,
                emb_dim=8,
                n_hidden=n_hidden,
                hidden_dim=32,
                seed=0,
            )
            record = train_split_wdl(model, vd, cfg)
            per_epoch = []
            batches_per_epoch = len(record.grad_e_a) // cfg.epochs
            for e in range(cfg.epochs):
                sl = slice(e * batches_per_epoch, (e + 1) * batches_per_epoch)
                per_epoch.append(
                    attack_accuracy_over_batches(
                        record.grad_e_a[sl], record.grad_labels[sl]
                    )
                )
            curves[n_hidden] = per_epoch
            rows.append(
                [f"split WDL, #hidden={n_hidden}"]
                + [round(v, 3) for v in per_epoch]
            )

    benchmark.pedantic(run, rounds=1, iterations=1)

    # BlindFL control: attack what Party A actually receives (mask pieces).
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=10)
    layer = EmbedMatMulSource(
        ctx,
        vd.party("A").vocab_sizes,
        vd.party("B").vocab_sizes,
        emb_dim=4,
        out_dim=1,
        name="f10",
    )
    rng = np.random.default_rng(0)
    grads, labels = [], []
    for start in range(0, 96, 32):
        idx = np.arange(start, start + 32)
        batch = vd.take_rows(idx)
        layer.forward(batch.party("A").x_cat, batch.party("B").x_cat)
        y = batch.y.astype(float).reshape(-1, 1)
        layer.backward((0.5 - y) * 0.01)
        # All Party A holds about grad_E_A is psi (its mask-derived share).
        grads.append(layer._a.cross[:, : layer.flat_in_a].copy())
        labels.append(batch.y.copy())
        layer.apply_updates(lr=0.05, momentum=0.9)
    blind_acc = attack_accuracy_over_batches(grads, labels)
    rows.append(["BlindFL (A's share pieces)", round(blind_acc, 3), "-", "-"])

    report(
        "Figure 10 — cosine attack on backward derivatives: fraction of "
        "training labels recovered per epoch (chance ~0.5)",
        format_table(
            ["configuration", "epoch 1", "epoch 2", "epoch 3"], rows
        ),
    )
    for n_hidden, per_epoch in curves.items():
        assert per_epoch[-1] > 0.85, f"attack should succeed at depth {n_hidden}"
    assert blind_acc < 0.75  # shares carry no label direction
