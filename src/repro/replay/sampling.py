"""Replay-batch sampling policies.

Sec. IV-F of the paper suggests, as a way to improve the efficiency-
effectiveness trade-off, to "sample the stored data from the memory based on
their similarities to the new data during replay".  This module implements
that extension alongside the paper's default uniform sampling:

- :class:`UniformSampling` — every stored sample equally likely (the paper's
  main experiments);
- :class:`SimilaritySampling` — stored samples whose *old-model*
  representations are closest to the current batch's representations are
  replayed preferentially, softmax-weighted by cosine similarity.
"""

from __future__ import annotations

import numpy as np


class ReplaySampling:
    """Chooses which memory indices to replay for the current step."""

    name = "base"
    needs_batch_context = False

    def sample(self, memory_size: int, batch_size: int, rng: np.random.Generator,
               similarities: np.ndarray | None = None) -> np.ndarray:
        """Return ``min(batch_size, memory_size)`` unique indices.

        Parameters
        ----------
        memory_size:
            Number of stored samples.
        batch_size:
            Requested replay batch size.
        rng:
            Generator for the draw.
        similarities:
            (memory_size,) relevance scores of each stored sample to the
            current new-data batch; only used by similarity sampling.
        """
        raise NotImplementedError


class UniformSampling(ReplaySampling):
    name = "uniform"

    def sample(self, memory_size, batch_size, rng, similarities=None) -> np.ndarray:
        size = min(batch_size, memory_size)
        return rng.choice(memory_size, size=size, replace=False)


class SimilaritySampling(ReplaySampling):
    """Prefer stored samples similar to the current new-data batch.

    Sampling is without replacement with probabilities
    ``softmax(similarity / temperature)``, so dissimilar samples still
    appear occasionally (pure argmax would starve parts of the memory).
    """

    name = "similarity"
    needs_batch_context = True

    def __init__(self, temperature: float = 0.2):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature

    def sample(self, memory_size, batch_size, rng, similarities=None) -> np.ndarray:
        if similarities is None:
            raise ValueError("similarity sampling needs per-sample similarities")
        if len(similarities) != memory_size:
            raise ValueError("similarities length mismatch")
        size = min(batch_size, memory_size)
        logits = np.asarray(similarities, dtype=np.float64) / self.temperature
        logits -= logits.max()
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum()
        return rng.choice(memory_size, size=size, replace=False, p=probabilities)


def batch_similarities(memory_reps: np.ndarray, batch_reps: np.ndarray) -> np.ndarray:
    """Mean cosine similarity of each stored representation to the batch."""
    def normalize(x):
        return x / (np.linalg.norm(x, axis=1, keepdims=True) + 1e-12)

    sims = normalize(np.asarray(memory_reps, dtype=np.float64)) @ \
        normalize(np.asarray(batch_reps, dtype=np.float64)).T
    return sims.mean(axis=1)


#: Policy name -> sampling class (``ContinualConfig.replay_sampling``).
SAMPLING_POLICIES = {"uniform": UniformSampling, "similarity": SimilaritySampling}


def make_sampling(name: str) -> ReplaySampling:
    """Factory: ``"uniform"`` (paper default) or ``"similarity"`` (Sec. IV-F)."""
    try:
        return SAMPLING_POLICIES[name]()
    except KeyError as exc:
        raise KeyError(f"unknown replay sampling {name!r}; available: {sorted(SAMPLING_POLICIES)}") from exc
