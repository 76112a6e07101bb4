"""Tests for the training driver, config and history bookkeeping."""

import numpy as np
import pytest

from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import FederatedLR
from repro.core.trainer import (
    History,
    TrainConfig,
    batch_of,
    evaluate_federated,
    predict,
    train_federated,
)
from repro.data.partition import split_vertical
from repro.data.synthetic import make_dense_classification

KEY_BITS = 128


@pytest.fixture(scope="module")
def small_vertical():
    full = make_dense_classification(120, 8, seed=55, flip=0.02, nonlinear=False)
    return split_vertical(full.subset(np.arange(80))), split_vertical(
        full.subset(np.arange(80, 120))
    )


def make_model():
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=23)
    return FederatedLR(ctx, 4, 4)


def test_history_counts_losses_and_epochs(small_vertical):
    train_vd, test_vd = small_vertical
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.0)
    history = train_federated(make_model(), train_vd, cfg, test_data=test_vd)
    assert len(history.losses) == 2 * (80 // 16)
    assert len(history.epoch_metrics) == 2
    assert history.metric_name == "auc"
    assert history.final_metric == history.epoch_metrics[-1]


def test_max_batches_per_epoch_caps_iterations(small_vertical):
    train_vd, _ = small_vertical
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1)
    history = train_federated(
        make_model(), train_vd, cfg, max_batches_per_epoch=2
    )
    assert len(history.losses) == 4
    assert history.epoch_metrics == []  # no test set given


def test_predict_covers_every_row_in_order(small_vertical):
    train_vd, test_vd = small_vertical
    model = make_model()
    scores = predict(model, test_vd, batch_size=16)
    assert scores.shape == (test_vd.n, 1)
    # Deterministic: same inputs -> same outputs (inference has fresh masks
    # internally, but they cancel exactly in the aggregated Z).
    scores2 = predict(model, test_vd, batch_size=40)
    np.testing.assert_allclose(scores, scores2, atol=1e-5)


def test_evaluate_multiclass_metric_name():
    full = make_dense_classification(60, 6, n_classes=3, seed=56)
    vd = split_vertical(full)
    from repro.core.models import FederatedMLR

    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=24)
    model = FederatedMLR(ctx, 3, 3, n_classes=3)
    metrics = evaluate_federated(model, vd)
    assert set(metrics) == {"accuracy"}
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_train_config_defaults_match_paper():
    cfg = TrainConfig()
    assert cfg.lr == 0.05
    assert cfg.batch_size == 128
    assert cfg.momentum == 0.9
    assert cfg.epochs == 10


def test_batch_of_caps_at_dataset_size(small_vertical):
    train_vd, _ = small_vertical
    batch = batch_of(train_vd, 10_000, seed=1)
    assert batch.size == train_vd.n


def test_history_dataclass_defaults():
    h = History(metric_name="auc")
    assert h.losses == [] and h.epoch_metrics == []
    with pytest.raises(IndexError):
        _ = h.final_metric  # no epochs recorded yet
