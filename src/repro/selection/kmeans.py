"""K-means clustering from scratch plus the cluster-center selection baseline.

``kmeans`` is Lloyd's algorithm with k-means++ seeding; the Table V
"K-means" row stores, for each of ``budget`` clusters, the sample closest to
the cluster centroid.
"""

from __future__ import annotations

import numpy as np

from repro.selection.base import SelectionContext, SelectionStrategy

#: Lloyd iterations before :func:`kmeans` stops without converging.
MAX_ITERS = 50


def kmeans_plus_plus_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007): indices of k seeds."""
    n = len(points)
    if k > n:
        raise ValueError(f"cannot seed {k} centers from {n} points")
    seeds = [int(rng.integers(n))]
    dist_sq = np.full(n, np.inf)
    for _ in range(k - 1):
        delta = points - points[seeds[-1]]
        dist_sq = np.minimum(dist_sq, np.einsum("ij,ij->i", delta, delta))
        total = dist_sq.sum()
        if total <= 0:
            # All remaining points coincide with a seed: pick uniformly.
            remaining = np.setdiff1d(np.arange(n), seeds)
            seeds.append(int(rng.choice(remaining)))
            continue
        seeds.append(int(rng.choice(n, p=dist_sq / total)))
    return np.asarray(seeds)


def kmeans(points: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm. Returns (centroids (k, d), assignments (N,))."""
    points = np.asarray(points, dtype=np.float64)
    centroids = points[kmeans_plus_plus_seeds(points, k, rng)].copy()
    assignments = np.zeros(len(points), dtype=np.int64)
    for iteration in range(MAX_ITERS):
        # squared distances to all centroids: (N, k)
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignments = d2.argmin(axis=1)
        if iteration > 0 and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(k):
            members = points[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its centroid.
                farthest = d2.min(axis=1).argmax()
                centroids[c] = points[farthest]
    # Final reassignment so the returned labels match the returned centroids
    # even when the last iteration moved a centroid (e.g. empty-cluster reseed).
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return centroids, d2.argmin(axis=1)


class KMeansSelection(SelectionStrategy):
    """Store the sample nearest each of ``budget`` cluster centroids."""

    name = "kmeans"

    def select(self, context: SelectionContext) -> np.ndarray:
        budget = self._clip_budget(context)
        points = context.representations
        centroids, assignments = kmeans(points, budget, context.rng)
        chosen: list[int] = []
        taken = np.zeros(len(points), dtype=bool)
        for c in range(budget):
            candidates = np.nonzero((assignments == c) & ~taken)[0]
            if len(candidates) == 0:
                candidates = np.nonzero(~taken)[0]
            delta = points[candidates] - centroids[c]
            nearest = candidates[np.einsum("ij,ij->i", delta, delta).argmin()]
            chosen.append(int(nearest))
            taken[nearest] = True
        return np.sort(np.asarray(chosen))
