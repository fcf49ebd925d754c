"""Augmentation composition (Eq. 2 of the paper).

An augmentation ``T(x; O_sub)`` applies a sequence of stochastic operations
``o_k`` to a *batch* of samples.  Operating on batches keeps everything
vectorized in numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Augmentation:
    """One stochastic operation ``o(x)`` applied to a batch."""

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class Compose(Augmentation):
    """Sequential application ``x_(k) = o_k(x_(k-1))`` (Eq. 2)."""

    def __init__(self, ops: Sequence[Augmentation]):
        self.ops = list(ops)

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for op in self.ops:
            x = op(x, rng)
        return x


class TwoViewAugment:
    """Draws the two positive views ``x_1, x_2`` used by every CSSL loss."""

    def __init__(self, pipeline: Augmentation):
        self.pipeline = pipeline

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return self.pipeline(x, rng), self.pipeline(x, rng)
