"""Min-Var selection (Lin et al. 2022, the Table V baseline).

Forms ``n_groups`` clusters (the paper uses one per class; unsupervised runs
treat it as a hyper-parameter) and, within each cluster, stores the samples
whose *augmented views* have the smallest representation variance — i.e. the
most augmentation-stable samples.
"""

from __future__ import annotations

import numpy as np

from repro.selection.base import SelectionContext, SelectionStrategy
from repro.selection.kmeans import kmeans

#: Cluster count when the context names none (the paper uses the class
#: count, which an unsupervised run does not know).
MINVAR_GROUPS = 2


class MinVarianceSelection(SelectionStrategy):
    name = "min-var"
    requires_view_variance = True

    def select(self, context: SelectionContext) -> np.ndarray:
        if context.view_variances is None:
            raise ValueError("Min-Var selection requires per-sample augmented-view variances")
        budget = self._clip_budget(context)
        points = context.representations
        variances = np.asarray(context.view_variances, dtype=np.float64)
        if len(variances) != len(points):
            raise ValueError("view_variances length mismatch")

        n_groups = min(context.n_groups or MINVAR_GROUPS, budget, len(points))
        _centroids, assignments = kmeans(points, n_groups, context.rng)

        # Budget is split evenly across clusters; leftovers go to the
        # globally lowest-variance unselected samples.
        per_group = budget // n_groups
        chosen: list[int] = []
        for c in range(n_groups):
            members = np.nonzero(assignments == c)[0]
            ranked = members[np.argsort(variances[members])]
            chosen.extend(int(i) for i in ranked[:per_group])
        if len(chosen) < budget:
            remaining = np.setdiff1d(np.arange(len(points)), chosen)
            ranked = remaining[np.argsort(variances[remaining])]
            chosen.extend(int(i) for i in ranked[:budget - len(chosen)])
        return np.sort(np.asarray(chosen[:budget]))
