"""Selection strategy interface."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SelectionContext:
    """Everything a selection strategy may need.

    Attributes
    ----------
    representations:
        (N, d) representations of the increment's training samples,
        extracted by the model optimized on that increment (``f_hat``),
        without augmentation — exactly the paper's selecting stage.
    budget:
        Number of samples to keep (``s``).
    rng:
        Seeded generator for stochastic strategies.
    view_variances:
        Optional (N,) per-sample variance of *augmented-view*
        representations — required by Min-Var only.
    n_groups:
        Cluster count hint for Min-Var (the paper uses the class count; in
        the unsupervised setting this is a hyper-parameter).
    """

    representations: np.ndarray
    budget: int
    rng: np.random.Generator
    view_variances: np.ndarray | None = None
    n_groups: int | None = None

    def __post_init__(self):
        self.representations = np.asarray(self.representations, dtype=np.float64)
        if self.representations.ndim != 2:
            raise ValueError("representations must be (N, d)")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


class SelectionStrategy:
    """Selects ``budget`` sample indices from an increment."""

    name = "base"
    requires_view_variance = False

    def select(self, context: SelectionContext) -> np.ndarray:
        """Return sorted unique indices, ``min(budget, N)`` of them."""
        raise NotImplementedError

    def _clip_budget(self, context: SelectionContext) -> int:
        return min(context.budget, len(context.representations))
