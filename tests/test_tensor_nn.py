"""Tests for nn modules, losses, optimizers, functional ops and CSR."""

import numpy as np
import pytest

from repro.tensor.functional import embedding, linear, sparse_linear
from repro.tensor.losses import bce_with_logits, softmax_cross_entropy
from repro.tensor.nn import Bias, Embedding, Linear, ReLU, Sequential, mlp
from repro.tensor.optim import SGD
from repro.tensor.sparse import CSRMatrix
from repro.tensor.tensor import Tensor


# ---------- nn modules ----------


def test_linear_forward_shape(rng):
    layer = Linear(4, 3, rng=rng)
    out = layer(Tensor(rng.normal(size=(5, 4))))
    assert out.shape == (5, 3)


def test_linear_parameters_discovered(rng):
    layer = Linear(4, 3, rng=rng)
    params = list(layer.parameters())
    assert len(params) == 2  # weight + bias


def test_linear_without_bias(rng):
    layer = Linear(4, 3, bias=False, rng=rng)
    assert len(list(layer.parameters())) == 1


def test_sequential_collects_nested_params(rng):
    net = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
    assert len(list(net.parameters())) == 4
    assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2


def test_mlp_builder(rng):
    net = mlp([6, 4, 2], rng=rng)
    out = net(Tensor(rng.normal(size=(3, 6))))
    assert out.shape == (3, 2)
    assert len(net) == 3  # Linear, ReLU, Linear


def test_train_eval_mode_propagates(rng):
    net = Sequential(Linear(2, 2, rng=rng), ReLU())
    net.eval()
    assert not net.training and not net.layers[0].training
    net.train()
    assert net.training and net.layers[0].training


def test_bias_module():
    b = Bias(3)
    out = b(Tensor(np.zeros((2, 3))))
    assert out.shape == (2, 3)
    assert len(list(b.parameters())) == 1


def test_embedding_module(rng):
    emb = Embedding(10, 4, rng=rng)
    out = emb(np.array([[1, 2], [3, 4]]))
    assert out.shape == (2, 2, 4)


# ---------- functional ----------


def test_linear_functional_grad(rng):
    x = rng.normal(size=(5, 3))
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    out = linear(x, w)
    out.sum().backward()
    np.testing.assert_allclose(w.grad, x.T @ np.ones((5, 2)), atol=1e-9)


def test_sparse_linear_matches_dense(rng):
    dense = rng.normal(size=(6, 8))
    dense[rng.random(dense.shape) < 0.6] = 0
    csr = CSRMatrix.from_dense(dense)
    w_dense = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    w_sparse = Tensor(w_dense.data.copy(), requires_grad=True)
    out_d = linear(dense, w_dense)
    out_s = sparse_linear(csr, w_sparse)
    np.testing.assert_allclose(out_s.data, out_d.data, atol=1e-9)
    out_d.sum().backward()
    out_s.sum().backward()
    np.testing.assert_allclose(w_sparse.grad, w_dense.grad, atol=1e-9)


def test_embedding_grad_scatter(rng):
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = np.array([0, 2, 2, 4])
    out = embedding(table, idx)
    out.sum().backward()
    expected = np.zeros((5, 3))
    np.add.at(expected, idx, np.ones((4, 3)))
    np.testing.assert_allclose(table.grad, expected)


def test_embedding_rejects_bad_index(rng):
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    with pytest.raises(IndexError):
        embedding(table, np.array([7]))


# ---------- losses ----------


def test_bce_matches_reference(rng):
    logits = Tensor(rng.normal(size=(8, 1)), requires_grad=True)
    y = (rng.random((8, 1)) > 0.5).astype(float)
    loss = bce_with_logits(logits, y)
    probs = 1 / (1 + np.exp(-logits.data))
    ref = -(y * np.log(probs) + (1 - y) * np.log(1 - probs)).mean()
    assert loss.item() == pytest.approx(ref, abs=1e-9)
    loss.backward()
    np.testing.assert_allclose(logits.grad, (probs - y) / y.size, atol=1e-9)


def test_bce_stable_at_extreme_logits():
    logits = Tensor(np.array([[100.0], [-100.0]]), requires_grad=True)
    loss = bce_with_logits(logits, np.array([[1.0], [0.0]]))
    assert np.isfinite(loss.item())
    loss.backward()
    assert np.all(np.isfinite(logits.grad))


def test_softmax_ce_matches_reference(rng):
    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=6)
    loss = softmax_cross_entropy(logits, labels)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    ref = -np.log(probs[np.arange(6), labels]).mean()
    assert loss.item() == pytest.approx(ref, abs=1e-9)
    loss.backward()
    expected = probs.copy()
    expected[np.arange(6), labels] -= 1
    np.testing.assert_allclose(logits.grad, expected / 6, atol=1e-9)


def test_softmax_ce_shape_check(rng):
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(rng.normal(size=(3, 2))), np.array([0, 1]))


def test_sgd_converges_on_quadratic():
    w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = SGD([w], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = (w * w).sum()
        loss.backward()
        opt.step()
    np.testing.assert_allclose(w.data, [0.0, 0.0], atol=1e-6)


def test_sgd_momentum_matches_manual():
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([w], lr=0.1, momentum=0.9)
    manual_w, vel = 1.0, 0.0
    for _ in range(5):
        opt.zero_grad()
        (w * w).sum().backward()
        opt.step()
        grad = 2 * manual_w
        vel = 0.9 * vel + grad
        manual_w -= 0.1 * vel
    assert w.data[0] == pytest.approx(manual_w)


def test_sgd_weight_decay():
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([w], lr=0.1, weight_decay=0.5)
    opt.zero_grad()
    (w * 0.0).sum().backward()
    opt.step()
    assert w.data[0] == pytest.approx(1.0 - 0.1 * 0.5)


def test_sgd_validates_inputs():
    with pytest.raises(ValueError):
        SGD([], lr=0.1)
    with pytest.raises(ValueError):
        SGD([Tensor(np.ones(1), requires_grad=True)], lr=0.0)


# ---------- CSR ----------


def test_csr_dense_roundtrip(rng):
    dense = rng.normal(size=(4, 6))
    dense[rng.random(dense.shape) < 0.5] = 0
    np.testing.assert_array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)


def test_csr_matmul_and_t_matmul(rng):
    dense = rng.normal(size=(5, 7))
    dense[rng.random(dense.shape) < 0.6] = 0
    csr = CSRMatrix.from_dense(dense)
    w = rng.normal(size=(7, 2))
    g = rng.normal(size=(5, 2))
    np.testing.assert_allclose(csr.matmul_dense(w), dense @ w, atol=1e-9)
    np.testing.assert_allclose(csr.t_matmul_dense(g), dense.T @ g, atol=1e-9)


def test_csr_matmul_vector(rng):
    dense = rng.normal(size=(3, 4))
    csr = CSRMatrix.from_dense(dense)
    v = rng.normal(size=4)
    np.testing.assert_allclose(csr.matmul_dense(v), dense @ v, atol=1e-9)


def test_csr_take_rows(rng):
    dense = rng.normal(size=(6, 4))
    dense[rng.random(dense.shape) < 0.4] = 0
    csr = CSRMatrix.from_dense(dense)
    sub = csr.take_rows(np.array([4, 1, 1]))
    np.testing.assert_array_equal(sub.to_dense(), dense[[4, 1, 1]])


def test_csr_density_and_support(rng):
    dense = np.zeros((4, 10))
    dense[0, 3] = 1.0
    dense[2, 7] = 2.0
    csr = CSRMatrix.from_dense(dense)
    assert csr.nnz == 2
    assert csr.density == pytest.approx(2 / 40)
    np.testing.assert_array_equal(csr.column_support(), [3, 7])


def test_csr_scale_rows(rng):
    dense = rng.normal(size=(3, 4))
    csr = CSRMatrix.from_dense(dense)
    scaled = csr.scale_rows(np.array([1.0, 2.0, 0.5]))
    np.testing.assert_allclose(
        scaled.to_dense(), dense * np.array([[1.0], [2.0], [0.5]]), atol=1e-12
    )


def test_csr_shape_validation():
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), (1, 3))
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0]), np.array([]), np.array([]), (1, 3))
