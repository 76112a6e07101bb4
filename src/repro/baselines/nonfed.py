"""Non-federated baselines: the two yardsticks of Figure 12.

* **NonFed-collocated** — train on both parties' features as if they were
  one table.  The lossless property says BlindFL must match this.
* **NonFed-Party B** — train on Party B's features only.  BlindFL must
  beat this (otherwise federation adds nothing).

The models mirror the federated ones exactly (same architecture, init
scale, optimizer), differing only in where the data lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trainer import History, TrainConfig
from repro.data.partition import PartyData, VerticalDataset
from repro.data.synthetic import Dataset
from repro.tensor.functional import embedding, linear, sparse_linear
from repro.tensor.losses import bce_with_logits, softmax_cross_entropy
from repro.tensor.nn import Module, ReLU, Sequential, mlp
from repro.tensor.optim import SGD
from repro.tensor.sparse import CSRMatrix
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.metrics import accuracy, roc_auc

__all__ = [
    "PlainInputs",
    "PlainLR",
    "PlainMLR",
    "PlainMLP",
    "PlainWDL",
    "PlainDLRM",
    "party_b_view",
    "collocated_view",
    "train_plain",
]


@dataclass
class PlainInputs:
    """A collocated feature view: one numeric block + one categorical block."""

    numeric: np.ndarray | CSRMatrix | None
    x_cat: np.ndarray | None
    vocab_sizes: list[int]
    y: np.ndarray
    n_classes: int

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @property
    def numeric_dim(self) -> int:
        return 0 if self.numeric is None else self.numeric.shape[1]

    def take_rows(self, idx: np.ndarray) -> "PlainInputs":
        numeric = self.numeric
        if isinstance(numeric, CSRMatrix):
            numeric = numeric.take_rows(idx)
        elif numeric is not None:
            numeric = numeric[idx]
        return PlainInputs(
            numeric=numeric,
            x_cat=None if self.x_cat is None else self.x_cat[idx],
            vocab_sizes=list(self.vocab_sizes),
            y=self.y[idx],
            n_classes=self.n_classes,
        )


def collocated_view(dataset: Dataset) -> PlainInputs:
    """All features in one place (what a non-VFL deployment would see)."""
    numeric = dataset.x_dense if dataset.x_dense is not None else dataset.x_sparse
    return PlainInputs(
        numeric=numeric,
        x_cat=dataset.x_cat,
        vocab_sizes=list(dataset.vocab_sizes),
        y=dataset.y,
        n_classes=dataset.n_classes,
    )


def party_b_view(vertical: VerticalDataset) -> PlainInputs:
    """Party B's own features only (it also holds the labels)."""
    pd: PartyData = vertical.party("B")
    numeric = pd.x_dense if pd.x_dense is not None else pd.x_sparse
    return PlainInputs(
        numeric=numeric,
        x_cat=pd.x_cat,
        vocab_sizes=list(pd.vocab_sizes),
        y=vertical.y,
        n_classes=vertical.n_classes,
    )


def _numeric_linear(x: np.ndarray | CSRMatrix, weight: Tensor) -> Tensor:
    if isinstance(x, CSRMatrix):
        return sparse_linear(x, weight)
    return linear(np.asarray(x), weight)


class PlainLR(Module):
    """Plaintext logistic regression (matching FederatedLR's init scale)."""

    def __init__(self, dim: int, out_dim: int = 1, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.weight = Tensor(rng.normal(0.0, 0.05, size=(dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def forward(self, inputs: PlainInputs) -> Tensor:
        return _numeric_linear(inputs.numeric, self.weight) + self.bias


class PlainMLR(PlainLR):
    """Multinomial LR — PlainLR with out_dim = n_classes."""

    def __init__(self, dim: int, n_classes: int, seed: int = 0):
        super().__init__(dim, out_dim=n_classes, seed=seed)


class PlainMLP(Module):
    """Plaintext MLP with a sparse-aware first layer."""

    def __init__(self, dim: int, hidden: list[int], n_out: int, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.first = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / dim), size=(dim, hidden[0])),
            requires_grad=True,
        )
        self.rest = Sequential(ReLU(), mlp([*hidden, n_out], rng=rng))

    def forward(self, inputs: PlainInputs) -> Tensor:
        return self.rest(_numeric_linear(inputs.numeric, self.first))


class PlainWDL(Module):
    """Plaintext Wide & Deep matching FederatedWDL's architecture."""

    def __init__(
        self,
        sparse_dim: int,
        vocab_sizes: list[int],
        emb_dim: int = 8,
        deep_hidden: list[int] | None = None,
        seed: int = 0,
    ):
        super().__init__()
        deep_hidden = deep_hidden or [16]
        rng = np.random.default_rng(seed)
        self.wide = Tensor(
            rng.normal(0.0, 0.05, size=(sparse_dim, 1)), requires_grad=True
        )
        total_vocab = sum(vocab_sizes)
        self.offsets = np.cumsum([0, *vocab_sizes[:-1]]).astype(np.int64)
        self.table = Tensor(
            rng.normal(0.0, 0.05, size=(total_vocab, emb_dim)), requires_grad=True
        )
        self.deep_w = Tensor(
            rng.normal(0.0, 0.05, size=(len(vocab_sizes) * emb_dim, deep_hidden[0])),
            requires_grad=True,
        )
        self.deep_top = Sequential(ReLU(), mlp([*deep_hidden, 1], rng=rng))
        self.bias = Tensor(np.zeros(1), requires_grad=True)

    def forward(self, inputs: PlainInputs) -> Tensor:
        wide_z = _numeric_linear(inputs.numeric, self.wide)
        flat = (inputs.x_cat + self.offsets[None, :]).ravel()
        batch = inputs.x_cat.shape[0]
        e = embedding(self.table, flat).reshape(batch, -1)
        deep_z = e @ self.deep_w
        return wide_z + self.deep_top(deep_z) + self.bias


class PlainDLRM(Module):
    """Plaintext DLRM-style model matching FederatedDLRM."""

    def __init__(
        self,
        dense_dim: int,
        vocab_sizes: list[int],
        emb_dim: int = 8,
        arm_dim: int = 16,
        top_hidden: list[int] | None = None,
        seed: int = 0,
    ):
        super().__init__()
        top_hidden = top_hidden or [16]
        rng = np.random.default_rng(seed)
        self.dense_w = Tensor(
            rng.normal(0.0, 0.05, size=(dense_dim, arm_dim)), requires_grad=True
        )
        total_vocab = sum(vocab_sizes)
        self.offsets = np.cumsum([0, *vocab_sizes[:-1]]).astype(np.int64)
        self.table = Tensor(
            rng.normal(0.0, 0.05, size=(total_vocab, emb_dim)), requires_grad=True
        )
        self.emb_w = Tensor(
            rng.normal(0.0, 0.05, size=(len(vocab_sizes) * emb_dim, arm_dim)),
            requires_grad=True,
        )
        self.top = Sequential(ReLU(), mlp([3 * arm_dim, *top_hidden, 1], rng=rng))

    def forward(self, inputs: PlainInputs) -> Tensor:
        dense_z = _numeric_linear(inputs.numeric, self.dense_w)
        flat = (inputs.x_cat + self.offsets[None, :]).ravel()
        batch = inputs.x_cat.shape[0]
        e = embedding(self.table, flat).reshape(batch, -1)
        emb_z = e @ self.emb_w
        interaction = dense_z * emb_z
        return self.top(Tensor.concat([dense_z, emb_z, interaction], axis=1))


def train_plain(
    model: Module,
    train_inputs: PlainInputs,
    config: TrainConfig,
    test_inputs: PlainInputs | None = None,
) -> History:
    """The exact training loop of ``train_federated``, minus federation."""
    optimizer = SGD(list(model.parameters()), lr=config.lr, momentum=config.momentum)
    criterion = (
        bce_with_logits if train_inputs.n_classes == 2 else softmax_cross_entropy
    )
    rng = np.random.default_rng(config.seed)
    metric_name = "auc" if train_inputs.n_classes == 2 else "accuracy"
    history = History(metric_name=metric_name)
    n = train_inputs.n
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            batch = train_inputs.take_rows(order[start : start + config.batch_size])
            output = model(batch)
            optimizer.zero_grad()
            loss = criterion(output, batch.y)
            loss.backward()
            optimizer.step()
            history.losses.append(loss.item())
        if test_inputs is not None:
            history.epoch_metrics.append(
                _evaluate_plain(model, test_inputs)[metric_name]
            )
    return history


def _evaluate_plain(model: Module, inputs: PlainInputs) -> dict[str, float]:
    with no_grad():
        scores = model(inputs).numpy()
    if inputs.n_classes == 2:
        return {"auc": roc_auc(inputs.y, scores.ravel())}
    return {"accuracy": accuracy(inputs.y, scores.argmax(axis=1))}
