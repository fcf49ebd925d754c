"""Stochastic gradient descent with momentum and weight decay.

The paper trains all image models with SGD (Sec. IV-A5).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer


class SGD(Optimizer):
    def __init__(self, parameters, lr: float = 0.03, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _update(self, param: Parameter, state: dict) -> None:
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            buf = state.get("momentum")
            if buf is None:
                buf = np.zeros_like(param.data)
            buf = self.momentum * buf + grad
            state["momentum"] = buf
            grad = buf
        param.data = param.data - self.lr * grad
