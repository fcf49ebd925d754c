"""Scenario: build your own continual method on the library's primitives.

Implements "EDSR-lite" from scratch in ~25 lines — random memory selection
plus plain (noise-free) distillation replay — by subclassing
:class:`ContinualMethod` directly, and compares it against Finetune and the
full EDSR.  The base class owns the memory and the frozen old model: a
method declares ``uses_memory`` / ``uses_old_model`` and writes only its
loss and its selection, and checkpoints and resume cover both for free.
This is the template for experimenting with new selection / replay ideas.
Takes ~30 seconds on CPU.

Usage::

    python examples/custom_method.py
"""

import numpy as np

from repro import ContinualConfig, load_image_benchmark, run_method
from repro.continual import ContinualTrainer, build_objective
from repro.continual.method import ContinualMethod
from repro.replay.sampling import UniformSampling
from repro.tensor.tensor import no_grad
from repro.utils import format_table


class EDSRLite(ContinualMethod):
    """Random memory + plain distillation replay (no entropy, no noise)."""

    name = "edsr-lite"
    uses_memory = True      # self.buffer, filled through self.remember
    uses_old_model = True   # self.old_objective, frozen at each later boundary

    def batch_loss(self, view1, view2, raw):
        loss = self.objective.css_loss(view1, view2)
        if self.old_objective is None or self.buffer.is_empty:
            return loss
        idx = UniformSampling().sample(len(self.buffer),
                                       self.config.replay_batch_size, self.rng)
        memory_view = self.augment.pipeline(self.buffer.all_samples()[idx], self.rng)
        with no_grad():
            target = self.old_objective.representation(memory_view).numpy()
        current = self.objective.representation(memory_view)
        return loss + 0.5 * self.objective.align(current, target)

    def end_task(self, task, task_index):
        quota = self.buffer.per_task_quota
        chosen = self.rng.choice(len(task.train), size=min(quota, len(task.train)),
                                 replace=False)
        self.remember(task, task_index, chosen)


def main() -> None:
    sequence = load_image_benchmark("cifar10-like", scale="ci")
    config = ContinualConfig(epochs=8)

    rows = []
    for name in ("finetune", "edsr"):
        result, _ = run_method(name, sequence, config, seed=0)
        rows.append([name, f"{100 * result.acc():.2f}", f"{100 * result.fgt():.2f}"])

    rng = np.random.default_rng(0)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    custom = EDSRLite(objective, config, rng)
    result = ContinualTrainer(custom, config, rng).run(sequence)
    rows.append([custom.name, f"{100 * result.acc():.2f}", f"{100 * result.fgt():.2f}"])

    print(format_table(["method", "Acc %", "Fgt %"], rows,
                       title="custom method vs built-ins (single seed)"))


if __name__ == "__main__":
    main()
