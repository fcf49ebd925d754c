"""Synaptic Intelligence (Zenke et al. 2017), adapted to the CSSL loss.

SI tracks a per-parameter importance through the path integral of the loss
gradient along the optimization trajectory (``omega_i += -g_i * delta_i``
per step), consolidates it at each task boundary into
``Omega_i += omega_i / ((theta_i - theta_i^start)^2 + xi)``, and penalizes
drift from the previous task's solution:

``L = L_css + lambda * sum_i Omega_i (theta_i - theta_i^*)^2``.

The paper selects SI as the label-free SCL representative because its
importance signal is the training-loss gradient, which exists in the
unsupervised setting too.
"""

from __future__ import annotations

import numpy as np

from repro.continual.config import ContinualConfig
from repro.continual.method import ContinualMethod
from repro.data.splits import Task
from repro.ssl.base import CSSLObjective
from repro.tensor.tensor import Tensor

#: Regularization strength ``lambda`` of the SI penalty.
SI_LAMBDA = 1.0

#: Damping ``xi`` in the consolidation denominator.
XI = 1e-3


class SynapticIntelligence(ContinualMethod):
    """Path-integral importance regularization (Zenke et al. 2017)."""

    name = "si"

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        super().__init__(objective, config, rng)
        # Live references into the objective's parameters (checkpointed by
        # the objective); re-derived here, never serialized.
        self._params = objective.parameters()  # repro-lint: disable=SER002
        self._omega = [np.zeros_like(p.data) for p in self._params]      # running path integral
        self._big_omega = [np.zeros_like(p.data) for p in self._params]  # consolidated importance
        self._anchor = [p.data.copy() for p in self._params]             # theta^* (previous task end)
        self._task_start = [p.data.copy() for p in self._params]
        self._pre_step: list[np.ndarray] | None = None
        self._task_index = 0

    def begin_task(self, task: Task, task_index: int, n_tasks: int) -> None:
        super().begin_task(task, task_index, n_tasks)
        self._task_index = task_index
        self._task_start = [p.data.copy() for p in self._params]
        self._omega = [np.zeros_like(p.data) for p in self._params]

    def batch_loss(self, view1, view2, raw) -> Tensor:
        loss = self.objective.css_loss(view1, view2)
        if self._task_index == 0:
            return loss
        penalty = 0.0
        for p, omega, anchor in zip(self._params, self._big_omega, self._anchor):
            if omega.any():
                drift = p - Tensor(anchor)
                penalty = penalty + (Tensor(omega) * drift * drift).sum()
        if isinstance(penalty, Tensor):
            loss = loss + SI_LAMBDA * penalty
        return loss

    def before_step(self) -> None:
        self._pre_step = [p.data.copy() for p in self._params]

    def after_step(self) -> None:
        if self._pre_step is None:
            return
        for i, p in enumerate(self._params):
            if p.grad is None:
                continue
            delta = p.data - self._pre_step[i]
            self._omega[i] += -p.grad * delta
        self._pre_step = None

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            omega=[a.copy() for a in self._omega],
            big_omega=[a.copy() for a in self._big_omega],
            anchor=[a.copy() for a in self._anchor],
            task_start=[a.copy() for a in self._task_start],
            task_index=self._task_index,
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._omega = [np.asarray(a).copy() for a in state["omega"]]
        self._big_omega = [np.asarray(a).copy() for a in state["big_omega"]]
        self._anchor = [np.asarray(a).copy() for a in state["anchor"]]
        self._task_start = [np.asarray(a).copy() for a in state["task_start"]]
        self._task_index = int(state["task_index"])
        self._pre_step = None  # transient within-step scratch, never persisted

    def end_task(self, task: Task, task_index: int) -> None:
        for i, p in enumerate(self._params):
            total_change = p.data - self._task_start[i]
            self._big_omega[i] += np.maximum(self._omega[i], 0.0) / (total_change ** 2 + XI)
        self._anchor = [p.data.copy() for p in self._params]
