"""High-entropy selection — the paper's method (Sec. III-A).

The paper reduces memory selection to finding the subset whose
representations "maintain the highest singular values" of the full
representation matrix (Eq. 15), solved "via Principal Component Analysis".

The implementation is greedy spectrum-preserving row selection (pivoted
Gram–Schmidt, a.k.a. rank-revealing QR on rows): repeatedly pick the sample
with the largest representation component *orthogonal to the span of the
samples already selected*.  The first pick is the largest-norm sample (the
dominant direction), subsequent picks cover the remaining principal
directions, which is precisely a greedy maximizer of the retained singular
value mass.  Once the selected span is exhausted (budget > effective rank),
the projector resets and the sweep repeats on the remaining samples, adding
samples that re-enforce the strongest directions.
"""

from __future__ import annotations

import numpy as np

from repro.selection.base import SelectionContext, SelectionStrategy

#: Squared residual norm at or below which the selected span counts as
#: covering every remaining sample.
TOLERANCE = 1e-8


class HighEntropySelection(SelectionStrategy):
    name = "high-entropy"

    def __init__(self, center: bool = True):
        self.center = center

    def select(self, context: SelectionContext) -> np.ndarray:
        budget = self._clip_budget(context)
        reps = context.representations
        if self.center:
            reps = reps - reps.mean(axis=0, keepdims=True)
        n = len(reps)

        selected: list[int] = []
        available = np.ones(n, dtype=bool)
        residual = reps.copy()
        basis: list[np.ndarray] = []

        while len(selected) < budget:
            norms = np.einsum("ij,ij->i", residual, residual)
            norms[~available] = -1.0
            best = int(np.argmax(norms))
            if norms[best] <= TOLERANCE:
                # Selected span covers everything left: restart the sweep on
                # the remaining samples with a fresh projector.
                residual = reps.copy()
                for index in selected:
                    residual[index] = 0.0
                basis = []
                if selected:
                    # Every remaining row lies in the selected span, so norm
                    # no longer discriminates: a duplicate of a selected
                    # sample scores high yet adds zero within-subset
                    # variance.  Score by the variance a candidate would add
                    # to the subset instead (distance from the selected
                    # mean), which keeps the greedy trace at least as good
                    # as a random pick even on degenerate duplicate-heavy
                    # clouds.
                    offsets = reps - reps[selected].mean(axis=0)
                    gains = np.einsum("ij,ij->i", offsets, offsets)
                    gains[~available] = -1.0
                    best = int(np.argmax(gains))
                    if gains[best] <= 0.0:
                        # All remaining rows duplicate the selected mean;
                        # fall back to any available sample.
                        best = int(np.argmax(available))
                else:
                    norms = np.einsum("ij,ij->i", residual, residual)
                    norms[~available] = -1.0
                    best = int(np.argmax(norms))
                    if norms[best] <= 0.0:
                        # All rows are exactly zero; fall back to any.
                        best = int(np.argmax(available))
            direction = residual[best] / (np.linalg.norm(residual[best]) + 1e-12)
            basis.append(direction)
            selected.append(best)
            available[best] = False
            # Deflate: remove the chosen direction from every residual row.
            residual -= np.outer(residual @ direction, direction)
        return np.sort(np.asarray(selected))
