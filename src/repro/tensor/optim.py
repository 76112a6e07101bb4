"""First-order optimizers for plaintext parameters.

The paper's protocol (§7.1) trains with momentum SGD (momentum 0.9);
``SGD`` here optimises the *plaintext* tensors (top models, baselines),
while :class:`repro.core.optimizer.FederatedSGD` applies the same update
rule to the secretly shared pieces inside the source layers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["SGD"]


class SGD:
    """Mini-batch SGD with classical momentum and optional weight decay."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,  # repro: api-ok L2 decay on plaintext parameters
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p, vel in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                update = vel
            else:
                update = grad
            p.data = p.data - self.lr * update

