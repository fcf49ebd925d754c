"""The learning-rate schedule.

The schedule is a stateless function of the epoch index applied to an
optimizer's ``lr`` attribute; ``step(epoch)`` sets the rate for that epoch.
"""

from __future__ import annotations

import math

from repro.optim.base import Optimizer


class CosineLR:
    """Cosine annealing to ``min_lr`` over ``total_epochs`` (SimSiam default)."""

    def __init__(self, optimizer: Optimizer, total_epochs: int, min_lr: float = 0.0):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.total_epochs = max(total_epochs, 1)
        self.min_lr = min_lr

    def lr_at(self, epoch: int) -> float:
        progress = min(epoch / self.total_epochs, 1.0)
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1 + math.cos(math.pi * progress))

    def step(self, epoch: int) -> float:
        lr = self.lr_at(epoch)
        self.optimizer.lr = lr
        return lr
