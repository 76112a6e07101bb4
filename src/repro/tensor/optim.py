"""First-order optimizers for plaintext parameters.

The paper's protocol (§7.1) trains with momentum SGD (momentum 0.9);
``SGD`` here optimises the *plaintext* tensors (top models, baselines),
while :class:`repro.core.optimizer.FederatedSGD` applies the same update
rule to the secretly shared pieces inside the source layers.  Adam is
included because the paper's future-work section calls out adaptive
optimizers; it works for every plaintext model (and documents why it cannot
be applied to shares — it is non-linear in the gradient).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["SGD", "Adam"]

_ADAM_BETAS = (0.9, 0.999)  # Kingma & Ba's defaults
_ADAM_EPS = 1e-8


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


class Adam:
    """Adam (Kingma & Ba).  Plaintext-only; see the module docstring."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = _ADAM_BETAS
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / (1 - self.beta1**self._t)
            v_hat = v / (1 - self.beta2**self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
