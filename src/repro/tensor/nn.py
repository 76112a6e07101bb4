"""Neural-network modules on the autograd engine (torch.nn in miniature).

The paper's Figure 8 shows BlindFL exposing a PyTorch-style API
(``FederatedModule`` wrapping ``Module``); this is the plain ``Module``
layer underneath — used directly for top models, non-federated baselines,
and attack models.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "ReLU",
    "Sequential",
    "Bias",
    "mlp",
]


class Module:
    """Base class: parameter discovery, train/eval mode, ``__call__``."""

    def __init__(self) -> None:
        self.training = True

    def forward(self, *args: object, **kwargs: object) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args: object, **kwargs: object) -> Tensor:
        return self.forward(*args, **kwargs)

    def parameters(self) -> Iterator[Tensor]:
        """Yield every trainable tensor reachable from this module."""
        seen: set[int] = set()
        for value in self.__dict__.values():
            yield from _collect_params(value, seen)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            for module in _collect_modules(value):
                module._set_mode(training)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


def _collect_params(value: object, seen: set[int]) -> Iterator[Tensor]:
    if isinstance(value, Tensor) and value.requires_grad and id(value) not in seen:
        seen.add(id(value))
        yield value
    elif isinstance(value, Module):
        for sub in value.__dict__.values():
            yield from _collect_params(sub, seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect_params(item, seen)


def _collect_modules(value: object) -> Iterator["Module"]:
    if isinstance(value, Module):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect_modules(item)


class Linear(Module):
    """Dense affine layer ``y = x @ W + b`` with He-style init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,  # repro: api-ok a bias-free layer, as torch.nn.Linear offers
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.weight = Tensor(
            rng.normal(0.0, scale, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Embedding table ``Q`` with lookup forward / scatter-add backward."""

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: np.random.Generator | None = None,  # repro: api-ok the init stream, as Linear takes
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.table = Tensor(
            rng.normal(0.0, 0.1, size=(num_embeddings, dim)), requires_grad=True
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        from repro.tensor.functional import embedding

        return embedding(self.table, indices)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Bias(Module):
    """A standalone bias term (the LR top model of Figure 8 is exactly this)."""

    def __init__(self, dim: int):
        super().__init__()
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return x + self.bias


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> Module:
        return self.layers[i]


def mlp(dims: Sequence[int], rng: np.random.Generator | None = None) -> Sequential:
    """Build ``Linear->ReLU->...->Linear`` for the given layer widths."""
    if len(dims) < 2:
        raise ValueError("an MLP needs at least input and output widths")
    rng = rng or np.random.default_rng(0)
    layers: list[Module] = []
    for i in range(len(dims) - 1):
        layers.append(Linear(dims[i], dims[i + 1], rng=rng))
        if i < len(dims) - 2:
            layers.append(ReLU())
    return Sequential(*layers)
