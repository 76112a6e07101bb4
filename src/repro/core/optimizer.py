"""FederatedSGD — the optimizer of Figure 8.

Updates two kinds of state with the same learning-rate/momentum schedule:

* the plaintext top-model parameters at Party B (delegated to the plain
  :class:`repro.tensor.optim.SGD`);
* the secretly shared source-layer pieces, by triggering each layer's
  ``apply_updates`` protocol (momentum is applied per piece at its holder —
  momentum is linear, so the piecewise velocities sum to the velocity of
  the full gradient and the update is exactly classical momentum SGD).

Adaptive optimizers are *not* offered, for source layers or top models:
their updates are non-linear in the gradient, which additive shares cannot
express — precisely the open problem the paper's §9 leaves as future work.
"""

from __future__ import annotations

from repro.core.federated import FederatedModule
from repro.tensor.optim import SGD

__all__ = ["FederatedSGD"]


class FederatedSGD:
    """Momentum SGD over a federated model (source layers + top model)."""

    def __init__(self, model: FederatedModule, lr: float, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.layers = list(model.source_layers())
        top_params = model.top_parameters()
        self._top = SGD(top_params, lr, momentum) if top_params else None

    def zero_grad(self) -> None:
        if self._top is not None:
            self._top.zero_grad()
        for layer in self.layers:
            layer.zero_pending()

    def step(self) -> None:
        if self._top is not None:
            self._top.step()
        for layer in self.layers:
            layer.apply_updates(self.lr, self.momentum)
