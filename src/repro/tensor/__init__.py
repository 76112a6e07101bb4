"""Numpy autograd engine: the substrate BlindFL's top models run on."""

from repro.tensor.functional import embedding, linear, sparse_linear
from repro.tensor.losses import bce_with_logits, softmax_cross_entropy
from repro.tensor.nn import (
    Bias,
    Embedding,
    Linear,
    Module,
    ReLU,
    Sequential,
    mlp,
)
from repro.tensor.optim import SGD, Adam
from repro.tensor.sparse import CSRMatrix
from repro.tensor.tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "CSRMatrix",
    "embedding",
    "linear",
    "sparse_linear",
    "bce_with_logits",
    "softmax_cross_entropy",
    "Module",
    "Linear",
    "Embedding",
    "ReLU",
    "Sequential",
    "Bias",
    "mlp",
    "SGD",
    "Adam",
]
