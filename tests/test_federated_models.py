"""End-to-end tests for the federated models and trainer.

These are the integration layer: every model trains on a Table-4-shaped
synthetic dataset, its loss must fall, and for LR/MLR we additionally check
*exact* equivalence with a plaintext model initialised from the revealed
weights — the lossless property at full-training granularity.
"""

import numpy as np
import pytest

from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import (
    FederatedDLRM,
    FederatedLR,
    FederatedMLP,
    FederatedMLR,
    FederatedWDL,
)
from repro.core.optimizer import FederatedSGD
from repro.core.trainer import (
    TrainConfig,
    batch_of,
    evaluate_federated,
    predict,
    train_federated,
)
from repro.data.partition import split_vertical
from repro.data.synthetic import (
    Dataset,
    make_dense_classification,
    make_mixed_classification,
    make_sparse_classification,
)

KEY_BITS = 128
FAST = TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9, seed=0)


def ctx_factory(seed=7, **kwargs):
    return VFLContext(VFLConfig(key_bits=KEY_BITS, **kwargs), seed=seed)


@pytest.fixture(scope="module")
def dense_vertical():
    full = make_dense_classification(240, 10, seed=20, flip=0.02, nonlinear=False)
    train = full.subset(np.arange(160))
    test = full.subset(np.arange(160, 240))
    return split_vertical(train), split_vertical(test)


def test_federated_lr_trains_and_beats_chance(dense_vertical):
    train_vd, test_vd = dense_vertical
    model = FederatedLR(ctx_factory(), in_a=5, in_b=5)
    history = train_federated(model, train_vd, FAST, test_data=test_vd)
    assert history.losses[-1] < history.losses[0]
    assert history.final_metric > 0.6
    assert history.metric_name == "auc"


def test_federated_lr_exactly_matches_plaintext_training(dense_vertical):
    """The lossless property, end to end: same init, same batches, same
    updates -> identical losses and identical final weights."""
    train_vd, _ = dense_vertical
    model = FederatedLR(ctx_factory(), in_a=5, in_b=5)
    w0 = model.source.reveal_weights()

    # Plaintext twin seeded with the *same* effective initial weights.
    from repro.tensor.losses import bce_with_logits
    from repro.tensor.tensor import Tensor
    from repro.tensor.optim import SGD
    from repro.data.loader import BatchLoader

    w_cat = Tensor(np.vstack([w0["W_A"], w0["W_B"]]), requires_grad=True)
    bias = Tensor(np.zeros(1), requires_grad=True)
    plain_opt = SGD([w_cat, bias], lr=FAST.lr, momentum=FAST.momentum)

    fed_opt = FederatedSGD(model, lr=FAST.lr, momentum=FAST.momentum)
    from repro.tensor.losses import bce_with_logits as crit

    rng = np.random.default_rng(0)
    fed_losses, plain_losses = [], []
    loader = BatchLoader(train_vd, 16, rng=rng)
    for batch in loader:
        out = model.forward(batch, train=True)
        fed_opt.zero_grad()
        loss = crit(out, batch.y)
        loss.backward()
        model.backward_sources()
        fed_opt.step()
        fed_losses.append(loss.item())

        x = np.hstack(
            [batch.party("A").x_dense, batch.party("B").x_dense]
        )
        plain_out = Tensor(x) @ w_cat + bias
        plain_opt.zero_grad()
        p_loss = bce_with_logits(plain_out, batch.y)
        p_loss.backward()
        plain_opt.step()
        plain_losses.append(p_loss.item())

    np.testing.assert_allclose(fed_losses, plain_losses, atol=1e-4)
    w1 = model.source.reveal_weights()
    np.testing.assert_allclose(
        np.vstack([w1["W_A"], w1["W_B"]]), w_cat.data, atol=1e-4
    )


def test_federated_mlr_on_multiclass(dense_vertical):
    train = make_dense_classification(120, 8, n_classes=3, seed=22, flip=0.02)
    vd = split_vertical(train)
    model = FederatedMLR(ctx_factory(), in_a=4, in_b=4, n_classes=3)
    history = train_federated(model, vd, FAST, test_data=vd)
    assert history.metric_name == "accuracy"
    assert history.final_metric > 0.5
    assert history.losses[-1] < history.losses[0]


def test_federated_mlp_trains(dense_vertical):
    train_vd, test_vd = dense_vertical
    model = FederatedMLP(ctx_factory(), in_a=5, in_b=5, hidden=[8], n_out=1)
    history = train_federated(model, train_vd, FAST, test_data=test_vd)
    assert history.losses[-1] < history.losses[0]
    assert history.final_metric > 0.55


def test_federated_mlp_on_sparse_input():
    train = make_sparse_classification(96, 60, nnz_per_row=8, seed=23, flip=0.02)
    vd = split_vertical(train)
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, momentum=0.0, seed=0)
    model = FederatedMLP(ctx_factory(), in_a=30, in_b=30, hidden=[6], n_out=1)
    history = train_federated(model, vd, cfg, test_data=vd)
    assert history.losses[-1] < history.losses[0] * 1.2  # moving, not diverging
    assert history.final_metric > 0.55


def test_federated_wdl_trains():
    train = make_mixed_classification(
        96, sparse_dim=40, nnz_per_row=6, n_fields=4, vocab_size=10, seed=24
    )
    vd = split_vertical(train)
    model = FederatedWDL(
        ctx_factory(),
        in_a=20,
        in_b=20,
        vocab_a=vd.party("A").vocab_sizes,
        vocab_b=vd.party("B").vocab_sizes,
        emb_dim=3,
        deep_hidden=[6],
    )
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9)
    history = train_federated(model, vd, cfg, test_data=vd)
    assert history.losses[-1] < history.losses[0]
    assert history.final_metric > 0.55


def test_federated_dlrm_trains():
    train = make_mixed_classification(
        80, sparse_dim=30, nnz_per_row=5, n_fields=4, vocab_size=8, seed=25
    )
    vd = split_vertical(train)
    model = FederatedDLRM(
        ctx_factory(),
        in_a=15,
        in_b=15,
        vocab_a=vd.party("A").vocab_sizes,
        vocab_b=vd.party("B").vocab_sizes,
        emb_dim=3,
        arm_dim=4,
        top_hidden=[8],
    )
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.05, momentum=0.9)
    history = train_federated(model, vd, cfg)
    assert history.losses[-1] < history.losses[0]


def test_categorical_only_wdl_equivalent():
    """Embed-MatMul end-to-end on pure categorical data (news20-like MLR is
    MatMul; this covers the embedding path with labels)."""
    rng = np.random.default_rng(26)
    train = Dataset(y=rng.integers(0, 2, 64), n_classes=2,
                    x_cat=rng.integers(0, 6, size=(64, 4)), vocab_sizes=[6] * 4)
    vd = split_vertical(train)
    model = FederatedDLRM(
        ctx_factory(),
        in_a=1,
        in_b=1,
        vocab_a=vd.party("A").vocab_sizes,
        vocab_b=vd.party("B").vocab_sizes,
        emb_dim=2,
        arm_dim=3,
        top_hidden=[4],
    )
    # No numeric features in this dataset: fabricate tiny dense blocks.
    for name in ("A", "B"):
        vd.parties[name].x_dense = np.ones((train.n, 1))
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.05, momentum=0.0)
    history = train_federated(model, vd, cfg)
    assert len(history.losses) == 4


def test_predict_and_evaluate(dense_vertical):
    train_vd, test_vd = dense_vertical
    model = FederatedLR(ctx_factory(), in_a=5, in_b=5)
    scores = predict(model, test_vd, batch_size=32)
    assert scores.shape == (test_vd.n, 1)
    metrics = evaluate_federated(model, test_vd)
    assert 0.0 <= metrics["auc"] <= 1.0


def test_federated_sgd_validation(dense_vertical):
    train_vd, _ = dense_vertical
    model = FederatedLR(ctx_factory(), in_a=5, in_b=5)
    with pytest.raises(ValueError):
        FederatedSGD(model, lr=0.0)
    with pytest.raises(ValueError):
        FederatedSGD(model, lr=0.1, momentum=1.0)


def test_model_source_layer_discovery(dense_vertical):
    model = FederatedWDL(
        ctx_factory(), in_a=2, in_b=2, vocab_a=[3], vocab_b=[3], emb_dim=2,
        deep_hidden=[4],
    )
    layers = list(model.source_layers())
    assert {l.name for l in layers} == {"wdl.wide", "wdl.deep"}
    params = model.federated_parameters()
    assert len(params) == 2 + 4  # MatMul: W_A,W_B; Embed: Q_A,Q_B,W_A,W_B


def test_backward_sources_without_forward(dense_vertical):
    model = FederatedLR(ctx_factory(), in_a=5, in_b=5)
    with pytest.raises(RuntimeError, match="no cached activations"):
        model.backward_sources()


def test_batch_of_helper(dense_vertical):
    train_vd, _ = dense_vertical
    batch = batch_of(train_vd, 12, seed=3)
    assert batch.size == 12
    assert batch.party("A").x_dense.shape == (12, 5)
