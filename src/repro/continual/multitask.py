"""Multitask upper bound (Sec. IV-A4).

Trains one model jointly on the union of all increments with ``L_css`` —
i.e. outside the continual protocol — and evaluates per increment.  Its
``Acc`` upper-bounds continual methods; forgetting is undefined.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.continual.config import ContinualConfig, build_objective
from repro.continual.trainer import _build_augment, _build_optimizer
from repro.data.loader import DataLoader
from repro.data.splits import TaskSequence
from repro.eval.protocol import evaluate_tasks
from repro.optim import CosineLR


@dataclass
class MultitaskResult:
    """Final per-increment accuracies of the jointly trained model."""

    per_task: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    name: str = "multitask"

    def acc(self) -> float:
        return float(np.mean(self.per_task))

    def __repr__(self) -> str:
        return f"MultitaskResult(Acc={self.acc():.4f}, tasks={len(self.per_task)})"


def run_multitask(sequence: TaskSequence, config: ContinualConfig,
                  seed: int = 0, verbose: bool = False) -> MultitaskResult:
    """Joint training on all increments at once."""
    rng = np.random.default_rng(seed)
    merged = sequence.merged_train
    objective = build_objective(config, merged.x.shape[1:], rng)
    augment = _build_augment(merged.x)
    optimizer = _build_optimizer(config, objective.parameters())
    schedule = CosineLR(optimizer, total_epochs=config.epochs)
    loader = DataLoader(merged, config.batch_size, rng=rng)

    start = time.perf_counter()
    objective.train()
    for epoch in range(config.epochs):
        schedule.step(epoch)
        for x_batch, _y_batch in loader:
            view1, view2 = augment(x_batch, rng)
            optimizer.zero_grad()
            loss = objective.css_loss(view1, view2)
            loss.backward()
            optimizer.step()
        if verbose:
            print(f"[multitask] epoch {epoch + 1}/{config.epochs} loss={loss.item():.4f}")

    per_task = evaluate_tasks(objective, list(sequence), knn_k=config.knn_k,
                              probe=config.probe)
    return MultitaskResult(per_task=per_task, elapsed_seconds=time.perf_counter() - start)
