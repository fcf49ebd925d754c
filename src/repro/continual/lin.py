"""Lin et al. (ICME 2022) — continual contrastive learning baseline.

Cited by the paper (Sec. II-B2) as the other memory-based UCL method:
it "stores data based on k-means and maintains the representation distances
between stored and new data to prevent forgetting".  Concretely, this
implementation:

- stores each increment's k-means cluster-center samples (the paper's
  Min-Var selection is this work's refinement; here we use the plain
  cluster-center storage), and
- adds a *distance-preservation* loss: the cosine-similarity structure
  between the stored samples and the current batch, as seen by the frozen
  old model, must be preserved by the live model:

  ``L = L_css(x1^n, x2^n) + w * || S_cur - S_old ||^2 / |S|``

  where ``S[a, b] = cos(f(x_a^m), f(x_b^n))``.
"""

from __future__ import annotations

import numpy as np

from repro.continual.config import ContinualConfig
from repro.continual.method import ContinualMethod
from repro.data.splits import Task
from repro.eval.protocol import extract_representations
from repro.replay.sampling import UniformSampling
from repro.selection.base import SelectionContext
from repro.selection.kmeans import KMeansSelection
from repro.ssl.base import CSSLObjective
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad

#: Weight ``w`` of the distance-preservation term.
DISTANCE_WEIGHT = 1.0


class LinContinual(ContinualMethod):
    name = "lin"
    uses_memory = True
    uses_old_model = True

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        super().__init__(objective, config, rng)
        # Stateless selection policy, rebuilt fresh each construction.
        self._selector = KMeansSelection()  # repro-lint: disable=SER002

    def _similarity(self, memory_reps: Tensor, batch_reps: Tensor) -> Tensor:
        return ops.l2_normalize(memory_reps, axis=1) @ ops.l2_normalize(batch_reps, axis=1).T

    def batch_loss(self, view1, view2, raw) -> Tensor:
        loss = self.objective.css_loss(view1, view2)
        if (self.buffer is None or self.buffer.is_empty
                or self.old_objective is None or self.config.replay_batch_size == 0):
            return loss
        idx = UniformSampling().sample(len(self.buffer),
                                       self.config.replay_batch_size, self.rng)
        memory = self.buffer.all_samples()[idx]
        with no_grad():
            old_memory = self.old_objective.representation(memory)
            old_batch = self.old_objective.representation(raw)
            target = self._similarity(old_memory, old_batch).numpy()
        current = self._similarity(self.objective.representation(memory),
                                   self.objective.representation(raw))
        diff = current - Tensor(target)
        preservation = (diff * diff).mean()
        return loss + DISTANCE_WEIGHT * preservation

    def end_task(self, task: Task, task_index: int) -> None:
        quota = self.buffer.per_task_quota
        if quota == 0:
            return
        representations = extract_representations(self.objective, task.train.x)
        context = SelectionContext(representations=representations, budget=quota,
                                   rng=self.rng)
        self.remember(task, task_index, self._selector.select(context))
