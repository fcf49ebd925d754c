"""Scenario: build your own continual method on the library's primitives.

Implements "EDSR-lite" from scratch in ~40 lines — random memory selection
plus plain (noise-free) distillation replay — by subclassing
:class:`ContinualMethod` directly, and compares it against Finetune and the
full EDSR.  This is the template for experimenting with new selection /
replay ideas.  Takes ~30 seconds on CPU.

Usage::

    python examples/custom_method.py
"""

import numpy as np

from repro import ContinualConfig, load_image_benchmark, run_method
from repro.continual import ContinualTrainer, build_objective
from repro.continual.method import ContinualMethod
from repro.memory import MemoryBuffer, MemoryRecord
from repro.ssl import DistillationHead
from repro.tensor.tensor import no_grad
from repro.utils import format_table


class EDSRLite(ContinualMethod):
    """Random memory + plain distillation replay (no entropy, no noise)."""

    name = "edsr-lite"
    uses_memory = True

    def __init__(self, objective, config, rng):
        super().__init__(objective, config, rng)
        self.buffer = None
        self.old_objective = None
        self.head = None

    def begin_task(self, task, task_index, n_tasks):
        if self.buffer is None:
            self.buffer = MemoryBuffer(self.config.memory_budget, n_tasks)
        if task_index > 0:
            self.old_objective = self.objective.copy()
            self.old_objective.eval()
            self.head = DistillationHead(self.objective, rng=self.rng)

    def trainable_parameters(self):
        params = self.objective.parameters()
        if self.head is not None:
            params = params + self.head.parameters()
        return params

    def batch_loss(self, view1, view2, raw):
        loss = self.objective.css_loss(view1, view2)
        if self.old_objective is None or self.buffer.is_empty:
            return loss
        idx = self.buffer.sample_batch(self.config.replay_batch_size, self.rng)
        memory_view = self.augment.pipeline(self.buffer.all_samples()[idx], self.rng)
        with no_grad():
            target = self.old_objective.representation(memory_view).numpy()
        current = self.objective.representation(memory_view)
        return loss + 0.5 * self.head.loss(current, target)

    def end_task(self, task, task_index):
        quota = self.buffer.per_task_quota
        chosen = self.rng.choice(len(task.train), size=min(quota, len(task.train)),
                                 replace=False)
        self.buffer.add(MemoryRecord(task_id=task_index,
                                     samples=task.train.x[chosen].copy()))


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
