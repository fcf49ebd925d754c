"""Continual-learning metrics: the matrices and averages of Fig. 3.

``A[i, j]`` is the test accuracy on increment ``j`` after learning increment
``i`` (entries with ``j > i`` are undefined and stored as NaN).  From it:

- ``Acc_i = mean_j<=i A[i, j]``                      (Eq. 17)
- ``F[i, j] = max_{i' <= i} A[i', j] - A[i, j]``     (forgetting matrix)
- ``Fgt_i = mean_{j < i} F[i, j]``                   (Eq. 18)
"""

from __future__ import annotations

import numpy as np


def forgetting_matrix(accuracy_matrix: np.ndarray) -> np.ndarray:
    """Compute ``F`` from ``A`` (NaN above the diagonal, 0 on it)."""
    a = np.asarray(accuracy_matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("accuracy matrix must be square")
    f = np.full_like(a, np.nan)
    for i in range(n):
        for j in range(i + 1):
            best_so_far = np.nanmax(a[j:i + 1, j])
            f[i, j] = best_so_far - a[i, j]
    return f


class ContinualResult:
    """Accumulates the accuracy matrix over a continual run.

    Build it row by row with :meth:`record_row` after each increment, then
    read the paper's metrics: :meth:`acc`, :meth:`fgt`, per-increment
    :meth:`acc_at` / :meth:`fgt_at`, and the plasticity series
    :meth:`new_task_accuracies` (Fig. 5's ``A_ii``).
    """

    def __init__(self, n_tasks: int, name: str = "run", probe: str = "knn"):
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        self.n_tasks = n_tasks
        self.name = name
        #: Which evaluation probe produced the accuracy matrix (registry
        #: name) — accuracies from different probes are not comparable, so
        #: the choice travels with the result through checkpoints and JSON.
        self.probe = probe
        self.accuracy_matrix = np.full((n_tasks, n_tasks), np.nan)
        self._rows_recorded = 0
        self.elapsed_seconds = 0.0

    def record_row(self, accuracies: list[float]) -> None:
        """Record accuracies on increments ``1..i`` after learning increment ``i``."""
        i = self._rows_recorded
        if i >= self.n_tasks:
            raise RuntimeError("all rows already recorded")
        if len(accuracies) != i + 1:
            raise ValueError(f"row {i} expects {i + 1} accuracies, got {len(accuracies)}")
        self.accuracy_matrix[i, :i + 1] = accuracies
        self._rows_recorded += 1

    @property
    def complete(self) -> bool:
        return self._rows_recorded == self.n_tasks

    @property
    def rows_recorded(self) -> int:
        """Number of increments recorded so far (< ``n_tasks`` if interrupted)."""
        return self._rows_recorded

    # ------------------------------------------------------------------
    # Serialization (checkpoint/resume)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot the partially filled matrix and timing for a checkpoint."""
        return {
            "name": self.name,
            "probe": self.probe,
            "n_tasks": self.n_tasks,
            "rows_recorded": self._rows_recorded,
            "accuracy_matrix": self.accuracy_matrix.copy(),
            "elapsed_seconds": float(self.elapsed_seconds),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        if int(state["n_tasks"]) != self.n_tasks:
            raise ValueError(f"result state holds {state['n_tasks']} tasks, "
                             f"this result expects {self.n_tasks}")
        matrix = np.asarray(state["accuracy_matrix"], dtype=np.float64)
        if matrix.shape != self.accuracy_matrix.shape:
            raise ValueError(f"accuracy matrix shape {matrix.shape} != "
                             f"{self.accuracy_matrix.shape}")
        self.name = state["name"]
        self.probe = str(state["probe"])
        self.accuracy_matrix = matrix.copy()
        self._rows_recorded = int(state["rows_recorded"])
        self.elapsed_seconds = float(state["elapsed_seconds"])

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    def acc_at(self, i: int) -> float:
        """``Acc_i`` (Eq. 17), 0-indexed increment ``i``."""
        return float(np.nanmean(self.accuracy_matrix[i, :i + 1]))

    def fgt_at(self, i: int) -> float:
        """``Fgt_i`` (Eq. 18); 0 for the first increment."""
        if i == 0:
            return 0.0
        f = forgetting_matrix(self.accuracy_matrix[:i + 1, :i + 1])
        return float(np.nanmean(f[i, :i]))

    def acc(self) -> float:
        """Final average accuracy ``Acc = Acc_n``."""
        return self.acc_at(self._rows_recorded - 1)

    def fgt(self) -> float:
        """Final average forgetting ``Fgt = Fgt_n``."""
        return self.fgt_at(self._rows_recorded - 1)

    def forgetting(self) -> np.ndarray:
        """The full forgetting matrix ``F`` (Fig. 4)."""
        return forgetting_matrix(self.accuracy_matrix[:self._rows_recorded, :self._rows_recorded])

    def new_task_accuracies(self) -> np.ndarray:
        """``A_ii`` per increment — the plasticity series of Fig. 5."""
        return np.diagonal(self.accuracy_matrix)[:self._rows_recorded].copy()

    def acc_series(self) -> np.ndarray:
        """``Acc_i`` for every recorded increment (the Fig. 7 curves)."""
        return np.array([self.acc_at(i) for i in range(self._rows_recorded)])

    def __repr__(self) -> str:
        if self._rows_recorded == 0:
            return f"ContinualResult({self.name}, empty)"
        return (f"ContinualResult({self.name}, tasks={self._rows_recorded}/{self.n_tasks}, "
                f"Acc={self.acc():.4f}, Fgt={self.fgt():.4f})")
