"""Weighted KNN classifier on frozen representations.

The standard CSSL evaluation protocol (Wu et al. 2018, used by SimSiam,
LUMP, and CaSSLe — Sec. IV-A5): representations are L2-normalized, the k
nearest training representations vote with weight ``exp(cos / tau)``, and
the highest-scoring class wins.  No parameters are trained, so the probe
measures representation quality only.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import sorted_unique


class KNNClassifier:
    """Cosine-similarity weighted k-nearest-neighbour classifier.

    Parameters
    ----------
    k:
        Number of neighbours (clipped to the index size at predict time).
    temperature:
        Softmax temperature for the similarity weights.
    chunk_size:
        Queries scored per similarity block.  Bounds predict-time memory to
        ``chunk_size × N`` instead of materializing the full ``Q × N``
        similarity matrix; per-query results are independent, so chunking
        never changes a prediction.
    """

    def __init__(self, k: int = 20, temperature: float = 0.1,
                 chunk_size: int = 256):
        if k < 1:
            raise ValueError("k must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.k = k
        self.temperature = temperature
        self.chunk_size = chunk_size
        self._index: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._classes: np.ndarray | None = None
        self._label_index: np.ndarray | None = None

    @staticmethod
    def _normalize(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x / (np.linalg.norm(x, axis=1, keepdims=True) + 1e-12)

    def fit(self, representations: np.ndarray, labels: np.ndarray) -> "KNNClassifier":
        if len(representations) != len(labels):
            raise ValueError("representations and labels length mismatch")
        if len(representations) == 0:
            raise ValueError("cannot fit on an empty index")
        self._index = self._normalize(representations)
        self._labels = np.asarray(labels, dtype=np.int64)
        self._classes = sorted_unique(self._labels)
        # Index labels as positions in the sorted class list, so voting is a
        # single scatter-add instead of one masked pass per class.
        self._label_index = np.searchsorted(self._classes, self._labels)
        return self

    def predict(self, representations: np.ndarray) -> np.ndarray:
        if self._index is None:
            raise RuntimeError("predict() before fit()")
        queries = self._normalize(representations)
        k = min(self.k, self._index.shape[0])
        predictions = np.empty(len(queries), dtype=self._classes.dtype)
        for start in range(0, len(queries), self.chunk_size):
            chunk = queries[start:start + self.chunk_size]
            sims = chunk @ self._index.T                        # (<=C, N)
            top = np.argpartition(-sims, k - 1, axis=1)[:, :k]  # (<=C, k)
            rows = np.arange(len(chunk))[:, None]
            weights = np.exp(sims[rows, top] / self.temperature)
            scores = np.zeros((len(chunk), len(self._classes)))
            np.add.at(scores, (rows, self._label_index[top]), weights)
            predictions[start:start + self.chunk_size] = \
                self._classes[scores.argmax(axis=1)]
        return predictions

    def accuracy(self, representations: np.ndarray, labels: np.ndarray) -> float:
        predictions = self.predict(representations)
        return float((predictions == np.asarray(labels)).mean())
