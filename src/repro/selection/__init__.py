"""Memory data selection (Sec. III-A and Table V of the paper).

Five strategies select a budget-limited subset of the just-learned
increment, operating purely on *representations* (no labels):

- :class:`RandomSelection` — LUMP/DER's choice;
- :class:`KMeansSelection` — cluster centers (MacQueen 1967);
- :class:`MinVarianceSelection` — Lin et al. 2022: per-cluster samples whose
  augmented views have minimal representation variance;
- :class:`DistantSelection` — k-means++ seeding (Arthur & Vassilvitskii 2007),
  maximizing pairwise spread;
- :class:`HighEntropySelection` — the paper's method: the subset whose
  representation matrix best preserves the top singular values, i.e.
  maximizes the coding-length entropy of Eq. 14.

:mod:`repro.selection.coding_length` provides the lossy coding-length
entropy estimator itself, used both by the selection objective and by the
tests validating the paper's Sec. III-A claims.
"""

from repro.selection.base import SelectionContext, SelectionStrategy
from repro.selection.random_selection import RandomSelection
from repro.selection.entropy import HighEntropySelection
from repro.selection.kmeans import KMeansSelection, kmeans, kmeans_plus_plus_seeds
from repro.selection.distant import DistantSelection
from repro.selection.minvar import MinVarianceSelection
from repro.selection.coding_length import coding_length_entropy, covariance_trace

#: Table V row name -> strategy class (``ContinualConfig.selection``).
STRATEGIES = {
    "random": RandomSelection,
    "kmeans": KMeansSelection,
    "min-var": MinVarianceSelection,
    "distant": DistantSelection,
    "high-entropy": HighEntropySelection,
}


def make_strategy(name: str) -> SelectionStrategy:
    """Factory mapping Table V row names to strategy instances."""
    try:
        return STRATEGIES[name]()
    except KeyError as exc:
        raise KeyError(f"unknown selection strategy {name!r}; available: {sorted(STRATEGIES)}") from exc


__all__ = [
    "STRATEGIES",
    "SelectionContext",
    "SelectionStrategy",
    "make_strategy",
    "RandomSelection",
    "HighEntropySelection",
    "KMeansSelection",
    "kmeans",
    "kmeans_plus_plus_seeds",
    "DistantSelection",
    "MinVarianceSelection",
    "coding_length_entropy",
    "covariance_trace",
]
