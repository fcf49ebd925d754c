"""Adam (Kingma & Ba, 2015).

The paper uses Adam for the tabular experiments (Sec. IV-A5).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer


#: Moment decay rates and the denominator's epsilon (Kingma & Ba's defaults).
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam(Optimizer):
    def __init__(self, parameters, lr: float = 1e-3, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.weight_decay = weight_decay

    def _update(self, param: Parameter, state: dict) -> None:
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        step = state.get("step", 0) + 1
        m = state.get("m")
        v = state.get("v")
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * grad * grad
        state.update(step=step, m=m, v=v)
        m_hat = m / (1 - BETA1 ** step)
        v_hat = v / (1 - BETA2 ** step)
        param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)
