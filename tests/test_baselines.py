"""Tests for the non-federated, split-learning and SecureML baselines."""

import numpy as np
import pytest

from repro.baselines.nonfed import (
    PlainDLRM,
    PlainLR,
    PlainMLP,
    PlainMLR,
    PlainWDL,
    collocated_view,
    party_b_view,
    train_plain,
)
from repro.baselines.secureml import SecureMLCostModel, SecureMLMatMul, outsource
from repro.baselines.split_learning import (
    SplitLinear,
    SplitWDL,
    train_split_linear,
    train_split_wdl,
)
from repro.comm.channel import Channel
from repro.comm.message import MessageKind
from repro.core.trainer import TrainConfig
from repro.crypto.beaver import decode_ring, reconstruct_ring
from repro.data.partition import split_vertical
from repro.data.synthetic import (
    make_dense_classification,
    make_mixed_classification,
    make_sparse_classification,
)

CFG = TrainConfig(epochs=3, batch_size=16, lr=0.1, momentum=0.9, seed=0)


@pytest.fixture(scope="module")
def dense_data():
    full = make_dense_classification(300, 10, seed=30, flip=0.03)
    train, test = full.subset(np.arange(220)), full.subset(np.arange(220, 300))
    return train, test


# ---------- non-federated ----------


def test_plain_lr_trains(dense_data):
    train, test = dense_data
    model = PlainLR(10)
    hist = train_plain(model, collocated_view(train), CFG, collocated_view(test))
    assert hist.final_metric > 0.75
    assert hist.losses[-1] < hist.losses[0]


def test_collocated_beats_party_b(dense_data):
    """The premise of VFL (Figure 12): B's half alone underperforms."""
    train, test = dense_data
    vd_train, vd_test = split_vertical(train), split_vertical(test)
    collocated = train_plain(
        PlainLR(10), collocated_view(train), CFG, collocated_view(test)
    )
    b_only = train_plain(
        PlainLR(5, seed=1), party_b_view(vd_train), CFG, party_b_view(vd_test)
    )
    assert collocated.final_metric > b_only.final_metric + 0.02


def test_plain_mlr_multiclass():
    full = make_dense_classification(240, 8, n_classes=4, seed=31, flip=0.02)
    train, test = full.subset(np.arange(180)), full.subset(np.arange(180, 240))
    hist = train_plain(
        PlainMLR(8, 4), collocated_view(train), CFG, collocated_view(test)
    )
    assert hist.metric_name == "accuracy"
    assert hist.final_metric > 0.5


def test_plain_mlp_on_sparse():
    full = make_sparse_classification(200, 80, nnz_per_row=10, seed=32, flip=0.02)
    train, test = full.subset(np.arange(150)), full.subset(np.arange(150, 200))
    hist = train_plain(
        PlainMLP(80, [16], 1), collocated_view(train), CFG, collocated_view(test)
    )
    assert hist.final_metric > 0.6


def test_plain_wdl_and_dlrm_train():
    full = make_mixed_classification(
        160, sparse_dim=50, nnz_per_row=8, n_fields=4, vocab_size=10, seed=33
    )
    train, test = full.subset(np.arange(120)), full.subset(np.arange(120, 160))
    for cls in (PlainWDL, PlainDLRM):
        model = cls(50, [10, 10, 10, 10], emb_dim=4)
        hist = train_plain(model, collocated_view(train), CFG, collocated_view(test))
        assert hist.losses[-1] < hist.losses[0]


# ---------- split learning ----------


def test_split_linear_trains_and_leaks(dense_data):
    """Split LR learns — and its bottom model predicts labels (the leak)."""
    train, test = dense_data
    vd_train, vd_test = split_vertical(train), split_vertical(test)
    model = SplitLinear(5, 5, seed=0)
    record = train_split_linear(model, vd_train, vd_test, CFG)
    assert len(record.za_per_epoch) == CFG.epochs
    from repro.attacks.activation_attack import activation_attack_score

    leak_auc = activation_attack_score(record.za_per_epoch[-1], vd_test.y)
    assert leak_auc > 0.70  # Party A alone predicts the labels


def test_split_linear_plaintext_messages_on_channel(dense_data):
    train, _ = dense_data
    vd = split_vertical(train)
    ch = Channel()
    model = SplitLinear(5, 5, seed=0, channel=ch)
    batch = vd.take_rows(np.arange(16))
    logits = model.forward(
        batch.party("A").numeric_block(), batch.party("B").numeric_block()
    )
    assert logits.shape == (16, 1)
    kinds = {m.kind for m in ch.transcript}
    assert kinds == {MessageKind.PLAINTEXT}  # the defining insecurity


def test_split_model_ss_ablation_still_leaks(dense_data):
    """ModelSS without GradSS (Figure 9): sharing at init does not help."""
    train, test = dense_data
    vd_train, vd_test = split_vertical(train), split_vertical(test)
    from repro.attacks.activation_attack import activation_attack_score

    for v_scale in (1.0, 5.0, 10.0):
        model = SplitLinear(5, 5, model_ss=True, v_scale=v_scale, seed=0)
        record = train_split_linear(model, vd_train, vd_test, CFG)
        leak = activation_attack_score(record.za_per_epoch[-1], vd_test.y)
        assert leak > 0.65, f"v_scale={v_scale} should still leak"


def test_split_wdl_records_derivatives():
    full = make_mixed_classification(
        96, sparse_dim=20, nnz_per_row=5, n_fields=4, vocab_size=8, seed=34
    )
    vd = split_vertical(full)
    model = SplitWDL(
        vd.party("A").vocab_sizes, vd.party("B").vocab_sizes, emb_dim=4, n_hidden=2
    )
    record = train_split_wdl(model, vd, TrainConfig(epochs=1, batch_size=16, lr=0.1))
    assert len(record.grad_e_a) == 6
    assert record.grad_e_a[0].shape == (16, 2 * 4)


# ---------- SecureML ----------


def test_secureml_client_aided_matmul_correct(rng):
    kernel = SecureMLMatMul(rng, triple_source="client")
    x = rng.normal(size=(8, 6))
    w = rng.normal(size=(6, 2))
    x_sh = outsource(x, rng)
    w_sh = outsource(w, rng)
    z_sh = kernel.matmul(x_sh, w_sh)
    np.testing.assert_allclose(
        decode_ring(reconstruct_ring(*z_sh)), x @ w, atol=1e-3
    )
    assert kernel.online_timer.elapsed > 0


def test_secureml_crypto_matmul_correct(rng):
    kernel = SecureMLMatMul(rng, triple_source="crypto", seed=9)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 1))
    z_sh = kernel.matmul(outsource(x, rng), outsource(w, rng))
    np.testing.assert_allclose(
        decode_ring(reconstruct_ring(*z_sh)), x @ w, atol=1e-3
    )
    assert kernel.offline_timer.elapsed > 0


def test_secureml_training_iteration_shapes(rng):
    kernel = SecureMLMatMul(rng, triple_source="client")
    x_sh = outsource(rng.normal(size=(8, 5)), rng)
    w_sh = outsource(rng.normal(size=(5, 1)), rng)
    g_sh = kernel.training_iteration(x_sh, w_sh)
    assert g_sh[0].shape == (5, 1)


def test_secureml_densifies_sparse_inputs(rng):
    sparse = make_sparse_classification(20, 40, 5, seed=35).x_sparse
    shares = outsource(sparse, rng)
    assert shares[0].shape == (20, 40)  # fully dense, zeros hidden


def test_secureml_oom_guard(rng):
    sparse = make_sparse_classification(64, 200_000, 3, seed=36).x_sparse
    with pytest.raises(MemoryError, match="densify"):
        outsource(sparse, rng, dense_limit_bytes=1024 * 1024)


def test_secureml_cost_model_extrapolates(rng):
    kernel = SecureMLMatMul(rng, triple_source="crypto", seed=10)
    cost = SecureMLCostModel.calibrate(kernel, n=2, m=6, k=1)
    assert cost.measured_seconds > 0
    small = cost.predict_seconds(2, 6, 1)
    big = cost.predict_seconds(128, 10_000, 1)
    assert big > small * 1000


def test_secureml_validates_triple_source(rng):
    with pytest.raises(ValueError):
        SecureMLMatMul(rng, triple_source="magic")
    kernel = SecureMLMatMul(rng, triple_source="client")
    with pytest.raises(ValueError):
        SecureMLCostModel.calibrate(kernel)
