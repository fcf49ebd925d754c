"""Dataset containers.

Datasets hold dense numpy arrays (``x``: samples, ``y``: integer labels).
Labels are carried through every dataset **for evaluation only** — the
training loop of every continual method in this library never reads them,
matching the unsupervised setting of Def. 2 in the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.arrays import sorted_unique


class ArrayDataset:
    """Dense in-memory dataset.

    Parameters
    ----------
    x:
        Samples, shape (N, ...); images are (N, C, H, W) in [0, 1],
        tabular rows are (N, F).
    y:
        Integer labels, shape (N,).  Used exclusively by the KNN evaluator.
    name:
        Human-readable dataset name for logs and result tables.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, name: str = "dataset"):
        x = np.asarray(x, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        if len(x) != len(y):
            raise ValueError(f"x and y length mismatch: {len(x)} vs {len(y)}")
        self.x = x
        self.y = y
        self.name = name

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index) -> tuple[np.ndarray, np.ndarray]:
        return self.x[index], self.y[index]

    @property
    def classes(self) -> np.ndarray:
        return sorted_unique(self.y)

    def filter_classes(self, classes: Sequence[int], name: str | None = None) -> "ArrayDataset":
        mask = np.isin(self.y, np.asarray(classes))
        return ArrayDataset(self.x[mask], self.y[mask], name or self.name)

    @staticmethod
    def concatenate(datasets: Sequence["ArrayDataset"], name: str = "merged") -> "ArrayDataset":
        if not datasets:
            raise ValueError("cannot concatenate zero datasets")
        x = np.concatenate([d.x for d in datasets], axis=0)
        y = np.concatenate([d.y for d in datasets], axis=0)
        return ArrayDataset(x, y, name)

    def __repr__(self) -> str:
        return f"ArrayDataset({self.name}, n={len(self)}, classes={len(self.classes)}, shape={self.x.shape[1:]})"
