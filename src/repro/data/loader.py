"""Mini-batch iteration with seeded shuffling."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import fallback_rng


class DataLoader:
    """Iterates an :class:`ArrayDataset` in shuffled mini-batches.

    Every pass is shuffled, and the final short batch is kept.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Mini-batch size.
    rng:
        Explicit generator — loaders never touch global numpy state.
        Stateful: each iteration consumes a draw, so the order depends on
        everything else that shared the generator first.
    seed:
        Stateless alternative to ``rng`` (takes precedence when set): the
        shuffle order is a pure function of ``(seed, epoch)`` — see
        :meth:`set_epoch` — and of nothing else, so the exact iteration
        order is reproducible from the two integers alone and can never
        drift with unrelated RNG consumption.
    """

    def __init__(self, dataset: ArrayDataset, batch_size: int,
                 rng: np.random.Generator | None = None, seed: int | None = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if seed is not None and seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.dataset = dataset
        self.batch_size = batch_size
        self.rng = rng or fallback_rng()
        self.seed = seed
        self._epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Select the epoch whose (seed-keyed) shuffle order to produce.

        Only meaningful with ``seed``; epoch ``e`` always yields the same
        permutation, whatever was iterated (or drawn from any generator)
        before.
        """
        self._epoch = int(epoch)

    def _order(self, n: int) -> np.ndarray:
        if self.seed is not None:
            return np.random.default_rng((self.seed, self._epoch)).permutation(n)
        return self.rng.permutation(n)

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._order(n)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            yield self.dataset.x[idx], self.dataset.y[idx]
