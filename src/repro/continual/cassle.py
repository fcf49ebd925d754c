"""CaSSLe (Fini et al. 2022) — distillation-only forgetting prevention.

At each increment, the model from the previous increment is frozen and a
fresh distillation head ``p_dis`` is created.  Training minimizes

``L = L_css(x1, x2) + 1/2 (L_dis(x1) + L_dis(x2))``   (Eq. 9)

where ``L_dis`` aligns the current (projected) representation of each view
with the frozen model's representation of the same view.  Both terms read
the same ``f(x)``: each view is encoded once per step.  No data is
stored: the old model alone carries the old knowledge, which the paper
identifies as CaSSLe's weakness over long sequences.
"""

from __future__ import annotations

import numpy as np

from repro.continual.config import ContinualConfig
from repro.continual.method import ContinualMethod
from repro.data.splits import Task
from repro.nn.module import Parameter
from repro.ssl.base import CSSLObjective
from repro.ssl.distill import DistillationHead
from repro.tensor.tensor import Tensor, no_grad

#: Weight of the ``L_dis`` term in Eq. 9 (its 1/2 is the two-view average).
DISTILL_WEIGHT = 1.0


class CaSSLe(ContinualMethod):
    """Distillation-only forgetting prevention (Fini et al. 2022)."""

    name = "cassle"
    uses_old_model = True

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        super().__init__(objective, config, rng)
        self.head: DistillationHead | None = None

    def begin_task(self, task: Task, task_index: int, n_tasks: int) -> None:
        super().begin_task(task, task_index, n_tasks)
        if task_index > 0:
            self.head = DistillationHead(self.objective, rng=self.rng)

    def trainable_parameters(self) -> list[Parameter]:
        params = self.objective.parameters()
        if self.head is not None:
            params = params + self.head.parameters()
        return params

    def _distill(self, view: np.ndarray, current: Tensor) -> Tensor:
        """``L_dis`` of ``view``, whose live representation is ``current``."""
        with no_grad():
            target = self.old_objective.representation(view).numpy()
        return self.head.loss(current, target)

    def batch_loss(self, view1, view2, raw) -> Tensor:
        z1, z2 = self.objective.encode(view1, view2)
        loss = self.objective.css_loss(view1, view2, (z1, z2))
        if self.old_objective is None:
            return loss
        distill = (self._distill(view1, z1) + self._distill(view2, z2)) * 0.5
        return loss + DISTILL_WEIGHT * distill

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["head"] = None if self.head is None else self.head.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        if state["head"] is None:
            self.head = None
        else:
            self.head = DistillationHead(self.objective, rng=self.rng)
            self.head.load_state_dict(state["head"])
