"""DER — Dark Experience Replay (Buzzega et al. 2020), unsupervised variant.

DER stores randomly chosen samples together with the *backbone output* the
model produced for them, and replays an MSE distillation term pulling the
current backbone output toward the stored one:

``L = L_css(x1^n, x2^n) + alpha * MSE(backbone(x^m), stored(x^m))``.

As the paper notes (Sec. IV-A4), DER distils "based on the output from the
CNN backbone model instead of representations", which neglects the
projector's representation space — one reason it trails the UCL methods.
"""

from __future__ import annotations

from repro.continual.method import ContinualMethod
from repro.data.splits import Task
from repro.replay.sampling import UniformSampling
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad

#: Weight ``alpha`` of the MSE distillation term.
DER_ALPHA = 0.5


class DER(ContinualMethod):
    """Dark Experience Replay adapted to the unsupervised setting."""

    name = "der"
    uses_memory = True

    def batch_loss(self, view1, view2, raw) -> Tensor:
        loss = self.objective.css_loss(view1, view2)
        if self.buffer is None or self.buffer.is_empty:
            return loss
        idx = UniformSampling().sample(len(self.buffer),
                                       self.config.replay_batch_size, self.rng)
        samples = self.buffer.all_samples()[idx]
        targets = self.buffer.all_targets()[idx]
        current = self.objective.encoder.features(samples)
        replay = ops.mse(current, Tensor(targets))
        return loss + DER_ALPHA * replay

    def end_task(self, task: Task, task_index: int) -> None:
        quota = self.buffer.per_task_quota
        if quota == 0:
            return
        chosen = self.rng.choice(len(task.train), size=min(quota, len(task.train)),
                                 replace=False)
        was_training = self.objective.training
        self.objective.eval()
        try:
            with no_grad():
                targets = self.objective.encoder.features(
                    task.train.x[chosen]).numpy().copy()
        finally:
            self.objective.train(was_training)
        self.remember(task, task_index, chosen, targets=targets)
