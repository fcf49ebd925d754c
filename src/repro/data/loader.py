"""Mini-batch iteration with seeded shuffling and fault-tolerant fetch.

Batch materialization is an I/O boundary (``dataset.x`` may be a memmap
over cold storage), so each fetch runs through a bounded-retry loop:
transient read errors are retried with exponential backoff, persistent
ones propagate to the trainer's loader-fault guardrail.  The
``data.loader.batch`` fault-injection site sits inside the retry loop —
a no-op unless a :class:`repro.faults.FaultPlan` is armed.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.faults import plane as _faults
from repro.utils.rng import fallback_rng

#: Bounded retry of transient batch-fetch faults.
FETCH_RETRIES = 3
_RETRY_BACKOFF = 0.005


class DataLoader:
    """Iterates an :class:`ArrayDataset` in shuffled mini-batches.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Mini-batch size; the final short batch is kept unless
        ``drop_last`` is set.
    shuffle:
        Reshuffle at the start of each iteration.
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

    def __init__(self, dataset: ArrayDataset, batch_size: int, shuffle: bool = True,
                 drop_last: bool = False, rng: np.random.Generator | None = None,
                 seed: int | None = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if seed is not None and seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
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
        if not self.shuffle:
            return np.arange(n)
        if self.seed is not None:
            return np.random.default_rng((self.seed, self._epoch)).permutation(n)
        return self.rng.permutation(n)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def _fetch(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize one batch, retrying transient read faults.

        A transient ``OSError`` (interrupted syscall, injected transient)
        is retried up to :data:`FETCH_RETRIES` times with exponential
        backoff; a persistent fault propagates so the trainer can treat
        the epoch as poisoned.
        """
        delay = _RETRY_BACKOFF
        for attempt in range(FETCH_RETRIES):
            try:
                if _faults.ARMED:
                    _faults.fault_point("data.loader.batch")
                return self.dataset.x[idx], self.dataset.y[idx]
            except OSError as exc:
                transient = isinstance(exc, (InterruptedError, BlockingIOError)) \
                    or bool(getattr(exc, "transient", False))
                if not transient or attempt == FETCH_RETRIES - 1:
                    raise
                time.sleep(delay)
                delay *= 2
        raise RuntimeError("unreachable")  # pragma: no cover

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._order(n)
        stop = n - n % self.batch_size if self.drop_last else n
        for start in range(0, stop, self.batch_size):
            idx = order[start:start + self.batch_size]
            yield self._fetch(idx)
