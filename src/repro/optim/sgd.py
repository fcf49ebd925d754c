"""Stochastic gradient descent with momentum and weight decay.

The paper trains all image models with SGD (Sec. IV-A5).
"""

from __future__ import annotations

from repro.optim.base import Optimizer


class SGD(Optimizer):
    def __init__(self, parameters, lr: float = 0.03, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay

    @property
    def state_arrays(self) -> tuple[str, ...]:
        return ("momentum",) if self.momentum else ()

    def _update(self, data, grad, buffers, step):
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self.momentum:
            grad = self.momentum * buffers["momentum"] + grad
            buffers = {"momentum": grad}
        return data - self.lr * grad, buffers
