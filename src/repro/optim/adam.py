"""Adam (Kingma & Ba, 2015).

The paper uses Adam for the tabular experiments (Sec. IV-A5).
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer


#: Moment decay rates and the denominator's epsilon (Kingma & Ba's defaults).
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam(Optimizer):
    state_arrays = ("m", "v")

    def __init__(self, parameters, lr: float = 1e-3, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.weight_decay = weight_decay

    def _update(self, data, grad, buffers, step):
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m = BETA1 * buffers["m"] + (1 - BETA1) * grad
        v = BETA2 * buffers["v"] + (1 - BETA2) * grad * grad
        m_hat = m / (1 - BETA1 ** step)
        v_hat = v / (1 - BETA2 ** step)
        return data - self.lr * m_hat / (np.sqrt(v_hat) + EPS), {"m": m, "v": v}
