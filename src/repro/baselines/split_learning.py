"""Split learning — the insecure paradigm BlindFL replaces (§2.3, §3).

Each party owns a *local bottom model in plaintext* (exactly what Table 2/3
forbids) and exchanges forward activations / backward derivatives in the
clear.  This module exists to reproduce the paper's leakage experiments:

* Figure 9 — Party A predicts labels from ``X_A W_A`` because it owns
  ``W_A`` (and the ModelSS-without-GradSS ablation: sharing the weights at
  init does not help if A applies plaintext gradients to its piece);
* Figure 10 — Party A predicts labels from the backward derivatives
  ``grad_E_A`` it receives, via the cosine-direction attack.

All cross-party messages are tagged ``MessageKind.PLAINTEXT`` so transcript
assertions can distinguish this paradigm from BlindFL structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.channel import Channel
from repro.comm.message import MessageKind
from repro.core.trainer import TrainConfig
from repro.data.partition import VerticalDataset
from repro.tensor.functional import embedding
from repro.tensor.losses import bce_with_logits, softmax_cross_entropy
from repro.tensor.nn import ReLU, Sequential, mlp
from repro.tensor.optim import SGD
from repro.tensor.sparse import CSRMatrix, matmul_any, t_matmul_any
from repro.tensor.tensor import Tensor

__all__ = ["SplitLinear", "SplitWDL", "SplitRecord", "train_split_linear", "train_split_wdl"]


@dataclass
class SplitRecord:
    """What Party A could observe (and therefore attack) during training.

    ``za_per_epoch`` — A's own bottom-model outputs ``X_A W_A`` on the test
    set after each epoch (Figure 9's attack input).
    ``grad_e_a`` — the plaintext derivatives A received, with the batch
    labels for scoring the attack (Figure 10's attack input).
    """

    za_per_epoch: list[np.ndarray] = field(default_factory=list)
    grad_e_a: list[np.ndarray] = field(default_factory=list)
    grad_labels: list[np.ndarray] = field(default_factory=list)


class SplitLinear:
    """Split-learning LR/MLR: plaintext bottom models W_A (at A), W_B (at B).

    ``model_ss=True`` reproduces the Figure 9 ablation: the weights are
    secretly shared at initialisation (``W_A = U_A + V_A``) but Party A
    receives the plaintext gradient and updates ``U_A`` directly — the
    paper shows this still leaks because ``V_A`` is a constant offset.
    ``v_scale`` amplifies ``V_A`` (the "||V_A|| = 5 ||U_A||" curves).
    """

    def __init__(
        self,
        in_a: int,
        in_b: int,
        out_dim: int = 1,
        model_ss: bool = False,
        v_scale: float = 1.0,
        seed: int = 0,
        channel: Channel | None = None,  # repro: api-ok shows Z_A crossing in plaintext
    ):
        rng = np.random.default_rng(seed)
        self.out_dim = out_dim
        self.model_ss = model_ss
        self.u_a = rng.normal(0.0, 0.05, size=(in_a, out_dim))
        if model_ss:
            self.v_a = rng.normal(0.0, 0.05 * v_scale, size=(in_a, out_dim))
        else:
            self.v_a = np.zeros((in_a, out_dim))
        self.w_b = rng.normal(0.0, 0.05, size=(in_b, out_dim))
        self.bias = np.zeros(out_dim)
        self.channel = channel
        self.vel_u_a = np.zeros_like(self.u_a)
        self.vel_w_b = np.zeros_like(self.w_b)
        self.vel_bias = np.zeros_like(self.bias)

    @property
    def w_a(self) -> np.ndarray:
        """The effective bottom model of Party A."""
        return self.u_a + self.v_a

    def bottom_a(self, x_a: np.ndarray | CSRMatrix) -> np.ndarray:
        """What Party A can compute alone — the Figure 9 attack statistic
        is ``X_A U_A`` (all A holds when model_ss) or ``X_A W_A``."""
        return matmul_any(x_a, self.u_a)

    def forward(
        self, x_a: np.ndarray | CSRMatrix, x_b: np.ndarray | CSRMatrix
    ) -> np.ndarray:
        z_a = matmul_any(x_a, self.w_a)
        if self.channel is not None:
            # The defining (and fatal) transmission of split learning.
            self.channel.send("A", "B", "split.Z_A", z_a, MessageKind.PLAINTEXT)
            z_a = self.channel.recv("B", "split.Z_A")
        return z_a + matmul_any(x_b, self.w_b) + self.bias

    def backward_step(
        self,
        x_a: np.ndarray | CSRMatrix,
        x_b: np.ndarray | CSRMatrix,
        grad_z: np.ndarray,
        lr: float,
        momentum: float,
    ) -> None:
        if self.channel is not None:
            self.channel.send("B", "A", "split.gZ", grad_z, MessageKind.PLAINTEXT)
            grad_z = self.channel.recv("A", "split.gZ")
        grad_wa = t_matmul_any(x_a, grad_z)
        grad_wb = t_matmul_any(x_b, grad_z)
        self.vel_u_a = momentum * self.vel_u_a + grad_wa
        self.u_a -= lr * self.vel_u_a  # A updates its piece in plaintext
        self.vel_w_b = momentum * self.vel_w_b + grad_wb
        self.w_b -= lr * self.vel_w_b
        self.vel_bias = momentum * self.vel_bias + grad_z.sum(axis=0)
        self.bias -= lr * self.vel_bias


def train_split_linear(
    model: SplitLinear,
    train_data: VerticalDataset,
    test_data: VerticalDataset,
    config: TrainConfig,
) -> SplitRecord:
    """Train split-learning LR/MLR, recording Party A's view per epoch."""
    record = SplitRecord()
    rng = np.random.default_rng(config.seed)
    n = train_data.n
    test_xa = test_data.party("A").numeric_block()
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = train_data.take_rows(idx)
            x_a = batch.party("A").numeric_block()
            x_b = batch.party("B").numeric_block()
            logits = model.forward(x_a, x_b)
            grad_z = _loss_grad(logits, batch.y, train_data.n_classes)
            model.backward_step(x_a, x_b, grad_z, config.lr, config.momentum)
        record.za_per_epoch.append(model.bottom_a(test_xa))
    return record


def _loss_grad(logits: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Closed-form grad of mean BCE / CE w.r.t. logits."""
    if n_classes == 2:
        probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        return (probs - y.reshape(probs.shape)) / y.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(y.shape[0]), y.astype(int)] -= 1.0
    return probs / y.shape[0]


class SplitWDL:
    """Split-learning WDL: Party A's bottom = embedding + hidden layers.

    Party A owns embedding table ``Q_A`` (plaintext) over its categorical
    fields; the paper's Figure 10 varies the number of hidden layers
    *after* the table and shows the cosine attack works at any depth.
    Party A receives ``grad_E_A`` in the clear every iteration.
    """

    def __init__(
        self,
        vocab_a: list[int],
        vocab_b: list[int],
        emb_dim: int = 8,
        n_hidden: int = 2,
        hidden_dim: int = 16,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.emb_dim = emb_dim
        self.off_a = np.cumsum([0, *vocab_a[:-1]]).astype(np.int64)
        self.off_b = np.cumsum([0, *vocab_b[:-1]]).astype(np.int64)
        self.table_a = Tensor(
            rng.normal(0.0, 0.05, size=(sum(vocab_a), emb_dim)), requires_grad=True
        )
        self.table_b = Tensor(
            rng.normal(0.0, 0.05, size=(sum(vocab_b), emb_dim)), requires_grad=True
        )
        in_a = len(vocab_a) * emb_dim
        in_b = len(vocab_b) * emb_dim
        dims_a = [in_a] + [hidden_dim] * (n_hidden - 1) + [hidden_dim]
        self.bottom_a_net = mlp(dims_a, rng=rng)
        self.top = Sequential(
            ReLU(), mlp([hidden_dim + in_b, hidden_dim, 1], rng=rng)
        )
        self._params = [self.table_a, self.table_b]

    def parameters(self) -> list[Tensor]:
        params = [self.table_a, self.table_b]
        params.extend(self.bottom_a_net.parameters())
        params.extend(self.top.parameters())
        return params

    def forward(
        self, x_cat_a: np.ndarray, x_cat_b: np.ndarray
    ) -> tuple[Tensor, Tensor]:
        """Returns (logits, E_A) — E_A kept so its grad can be recorded."""
        batch = x_cat_a.shape[0]
        flat_a = (x_cat_a + self.off_a[None, :]).ravel()
        flat_b = (x_cat_b + self.off_b[None, :]).ravel()
        e_a = embedding(self.table_a, flat_a).reshape(batch, -1)
        z_a = self.bottom_a_net(e_a)
        e_b = embedding(self.table_b, flat_b).reshape(batch, -1)
        logits = self.top(Tensor.concat([z_a, e_b], axis=1))
        return logits, e_a


def train_split_wdl(
    model: SplitWDL,
    train_data: VerticalDataset,
    config: TrainConfig,
) -> SplitRecord:
    """Train split WDL, recording the ``grad_E_A`` Party A observes."""
    record = SplitRecord()
    optimizer = SGD(model.parameters(), lr=config.lr, momentum=config.momentum)
    rng = np.random.default_rng(config.seed)
    n = train_data.n
    criterion = (
        bce_with_logits if train_data.n_classes == 2 else softmax_cross_entropy
    )
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = train_data.take_rows(idx)
            logits, e_a = model.forward(batch.party("A").x_cat, batch.party("B").x_cat)
            optimizer.zero_grad()
            loss = criterion(logits, batch.y)
            loss.backward()
            # This is the value split learning hands Party A in the clear.
            record.grad_e_a.append(e_a.grad.copy())
            record.grad_labels.append(batch.y.copy())
            optimizer.step()
    return record
