"""Table 8: scalability w.r.t. the number of layers.

connect-4-like MLP where 32-unit layers are inserted between a fixed
64-unit source layer and the head.  The paper's point: extra layers live in
the *plaintext top model*, so per-batch time barely moves (1.00x-1.02x)
while the source layer dominates.  We assert the same flatness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import FederatedMLP
from repro.core.optimizer import FederatedSGD
from repro.core.trainer import TrainConfig, batch_of, train_federated
from repro.data.partition import split_vertical
from repro.data.synthetic import make_sparse_classification
from repro.tensor.losses import softmax_cross_entropy
from repro.utils.tabulate import format_table
from repro.utils.timer import Timer

KEY_BITS = 128
SOURCE_WIDTH = 16
LAYER_COUNTS = [3, 4, 5, 6]
_rows: list[tuple[int, float, float]] = []


def _hidden_dims(n_layers: int) -> list[int]:
    """Fixed source width + (n-3) inserted 8-unit layers + 8-unit head."""
    return [SOURCE_WIDTH] + [8] * (n_layers - 3) + [8]


def _data():
    """(train, test): 192 + 64 connect-4-like rows."""
    full = make_sparse_classification(256, 126, 42, n_classes=3, seed=111, flip=0.03)
    train, test = full.subset(np.arange(192)), full.subset(np.arange(192, 256))
    return split_vertical(train), split_vertical(test)


def training_iteration(n_layers: int):
    """Build the ``n_layers`` MLP and return one timed training step (a
    closure over one aligned batch of 32, drawn as the loader would) and
    its timer."""
    batch = batch_of(_data()[0], 32, seed=0)
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS, share_refresh="delta"), seed=19)
    model = FederatedMLP(ctx, 63, 63, hidden=_hidden_dims(n_layers), n_out=3)
    opt = FederatedSGD(model, lr=0.1, momentum=0.9)
    timer = Timer()

    def iteration() -> float:
        with timer:
            out = model.forward(batch, train=True)
            opt.zero_grad()
            loss = softmax_cross_entropy(out, batch.y)
            loss.backward()
            model.backward_sources()
            opt.step()
        return float(loss.data)

    return iteration, timer


@pytest.mark.parametrize("n_layers", LAYER_COUNTS)
def test_table8_depth(benchmark, report, n_layers):
    vd, vd_test = _data()
    iteration, timer = training_iteration(n_layers)
    benchmark.pedantic(iteration, rounds=1, iterations=1)

    ctx2 = VFLContext(VFLConfig(key_bits=KEY_BITS, share_refresh="delta"), seed=20)
    model2 = FederatedMLP(ctx2, 63, 63, hidden=_hidden_dims(n_layers), n_out=3)
    cfg = TrainConfig(epochs=1, batch_size=32, lr=0.1, momentum=0.9)
    history = train_federated(model2, vd, cfg, test_data=vd_test,
                              max_batches_per_epoch=4)
    _rows.append((n_layers, timer.elapsed, history.final_metric))

    if n_layers == LAYER_COUNTS[-1]:
        base = _rows[0][1]
        table = [
            [f"{n} layers", round(t, 3), f"{t / base:.2f}x", round(acc, 3)]
            for n, t, acc in _rows
        ]
        report(
            "Table 8 — scalability vs #layers (connect-4-like MLP; paper: "
            "1.00x/1.01x/1.02x/1.02x — top layers are plaintext and ~free)",
            format_table(
                ["config", "time/batch (s)", "relative", "val accuracy"], table
            ),
        )
        base_t = _rows[0][1]
        for _, t, _ in _rows[1:]:
            assert t / base_t < 1.5, "extra plaintext layers should be ~free"
