"""Functional ops that pair a plain-data input with trainable tensors.

These cover the two "common ML ops for input features" of §2.1:

* :func:`linear` / :func:`sparse_linear` — matrix multiplication ``Z = X W``
  where ``X`` is raw data (dense or CSR) and only ``W`` needs gradients;
* :func:`embedding` — ``E = lkup(Q, X)`` with the scatter-add backward
  ``grad_Q = lkup_bw(grad_E, X)``.

They are used by the non-federated baselines and the plaintext reference
implementations that the federated protocols are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.sparse import CSRMatrix
from repro.tensor.tensor import Tensor

__all__ = ["linear", "sparse_linear", "embedding"]


def linear(x: np.ndarray, weight: Tensor) -> Tensor:
    """``x @ weight`` for a constant dense input ``x``."""
    x = np.asarray(x, dtype=np.float64)
    out = Tensor(
        x @ weight.data, requires_grad=weight.requires_grad, _prev=(weight,), op="linear"
    )

    def _backward() -> None:
        if weight.requires_grad:
            weight._accumulate(x.T @ out.grad)

    out._backward = _backward
    return out


def sparse_linear(x: CSRMatrix, weight: Tensor) -> Tensor:
    """``x @ weight`` for a CSR input; forward and backward cost O(nnz)."""
    out = Tensor(
        x.matmul_dense(weight.data),
        requires_grad=weight.requires_grad,
        _prev=(weight,),
        op="sparse_linear",
    )

    def _backward() -> None:
        if weight.requires_grad:
            weight._accumulate(x.t_matmul_dense(out.grad))

    out._backward = _backward
    return out


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Embedding lookup ``E = lkup(Q, X)``.

    ``indices`` has shape (batch,) or (batch, fields); the output appends
    the embedding dimension.  Backward scatter-adds into the table
    (``lkup_bw``), exactly the op the Embed-MatMul layer federates.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= table.data.shape[0]):
        raise IndexError("embedding index out of range")
    out = Tensor(
        table.data[indices],
        requires_grad=table.requires_grad,
        _prev=(table,),
        op="embedding",
    )

    def _backward() -> None:
        if table.requires_grad:
            grad = np.zeros_like(table.data)
            np.add.at(grad, indices.ravel(), out.grad.reshape(-1, table.data.shape[1]))
            table._accumulate(grad)

    out._backward = _backward
    return out
