"""Linear evaluation protocol — the other standard CSSL probe.

The paper evaluates with KNN "to avoid introducing extra parameters"
(Sec. IV-A5); the linear probe is the complementary protocol used across
the CSSL literature (SimCLR, SimSiam): train a single linear softmax
classifier on frozen representations and report its test accuracy.  Having
both probes lets users check that conclusions are protocol-independent.
"""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.optim.adam import Adam
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.arrays import sorted_unique
from repro.utils.rng import fallback_rng

#: Mini-batch size and Adam weight decay of the probe head's training.
BATCH_SIZE = 64
WEIGHT_DECAY = 1e-4


class LinearProbe:
    """Multinomial logistic regression on frozen representations.

    Parameters
    ----------
    epochs, lr:
        Optimization of the probe head (Adam, mini-batches of
        :data:`BATCH_SIZE`, weight decay :data:`WEIGHT_DECAY`).
    rng:
        Seed source for init and shuffling.  Consumed **once** at
        construction: a single draw keys an isolated child generator that
        every ``fit`` call recreates from scratch.  Fitting therefore never
        advances the caller's stream (probing mid-run cannot perturb
        downstream randomness) and back-to-back fits on the same data are
        bit-for-bit identical.
    """

    def __init__(self, epochs: int = 50, lr: float = 1e-2,
                 rng: np.random.Generator | None = None):
        self.epochs = epochs
        self.lr = lr
        self._fit_seed = int((rng or fallback_rng()).integers(2 ** 63))
        self._head: Linear | None = None
        self._classes: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, representations: np.ndarray, labels: np.ndarray) -> "LinearProbe":
        x = np.asarray(representations, dtype=np.float32)
        y = np.asarray(labels, dtype=np.int64)
        if len(x) != len(y):
            raise ValueError("representations and labels length mismatch")
        if len(x) == 0:
            raise ValueError("cannot fit a probe on an empty set")
        self._classes = sorted_unique(y)
        class_index = {int(c): i for i, c in enumerate(self._classes)}
        targets = np.array([class_index[int(label)] for label in y])

        self._mean = x.mean(axis=0)
        self._std = x.std(axis=0) + 1e-6
        x = (x - self._mean) / self._std

        # Isolated per-fit generator: init and shuffle order are a pure
        # function of the construction-time seed, never of how often (or
        # when) the probe has been fitted before.
        rng = fallback_rng(self._fit_seed)
        self._head = Linear(x.shape[1], len(self._classes), rng=rng)
        optimizer = Adam(self._head.parameters(), lr=self.lr,
                         weight_decay=WEIGHT_DECAY)
        n = len(x)
        for _epoch in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, BATCH_SIZE):
                idx = order[start:start + BATCH_SIZE]
                optimizer.zero_grad()
                logits = self._head(Tensor(x[idx]))
                log_probs = ops.log_softmax(logits, axis=1)
                rows = np.arange(len(idx))
                loss = -(log_probs[rows, targets[idx]]).mean()
                loss.backward()
                optimizer.step()
        return self

    def predict(self, representations: np.ndarray) -> np.ndarray:
        if self._head is None:
            raise RuntimeError("predict() before fit()")
        x = (np.asarray(representations, dtype=np.float32) - self._mean) / self._std
        logits = self._head(Tensor(x)).numpy()
        return self._classes[logits.argmax(axis=1)]

    def accuracy(self, representations: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(representations) == np.asarray(labels)).mean())
