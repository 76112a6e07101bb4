"""Loss functions (numerically stable, exact gradients).

The paper trains with logistic loss (LR/MLP/WDL/DLRM) and multinomial
cross-entropy (MLR); both are provided as fused ops whose backward passes
use the closed-form derivatives, avoiding intermediate overflow.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["bce_with_logits", "softmax_cross_entropy"]


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Binary cross-entropy on raw logits (mean over the batch).

    Stable form: ``max(z, 0) - z*y + log(1 + exp(-|z|))``; backward is the
    textbook ``(sigmoid(z) - y) / batch``.
    """
    y = np.asarray(targets, dtype=np.float64).reshape(logits.data.shape)
    z = logits.data
    loss_val = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(
        loss_val.mean(), requires_grad=logits.requires_grad, _prev=(logits,), op="bce"
    )

    def _backward() -> None:
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
            logits._accumulate(out.grad * (sig - y) / y.size)

    out._backward = _backward
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Multinomial cross-entropy on integer labels (mean over the batch)."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    z = logits.data
    if z.ndim != 2 or z.shape[0] != labels.size:
        raise ValueError("logits must be (batch, classes) matching labels")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    loss_val = -log_probs[np.arange(labels.size), labels].mean()
    out = Tensor(
        loss_val, requires_grad=logits.requires_grad, _prev=(logits,), op="ce"
    )

    def _backward() -> None:
        if logits.requires_grad:
            probs = np.exp(log_probs)
            probs[np.arange(labels.size), labels] -= 1.0
            logits._accumulate(out.grad * probs / labels.size)

    out._backward = _backward
    return out
