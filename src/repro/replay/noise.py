"""Data-dependent noise magnitude ``r(x)`` (Sec. III-B).

For each stored sample ``x_m`` selected from increment ``X^n``, ``r(x_m)``
is the standard deviation of the representations among the k nearest
neighbours of ``x_m`` in ``X^n`` (representations extracted by the model
just optimized on ``X^n``).  The replay loss adds ``r(x_m) * sigma`` with
``sigma ~ N(0, I_d)`` to the distillation target.
"""

from __future__ import annotations

import numpy as np

#: The shapes ``r(x)`` can take (``ContinualConfig.noise_mode``).
NOISE_MODES = ("vector", "scalar")


def knn_indices(queries: np.ndarray, pool: np.ndarray, k: int) -> np.ndarray:
    """Indices (len(queries), k) of each query's k nearest pool rows (L2).

    A query that is itself in the pool counts as its own neighbour, matching
    the paper's ``Nei(x^m | X^n)`` with ``x^m`` selected from ``X^n``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(pool))
    # Squared L2 distance via the expansion trick; queries/pool are (., d).
    q2 = np.einsum("ij,ij->i", queries, queries)[:, None]
    p2 = np.einsum("ij,ij->i", pool, pool)[None, :]
    d2 = q2 + p2 - 2.0 * queries @ pool.T
    # The expansion trick loses precision: for (near-)identical rows the
    # cancellation can leave small negative values, whose ordering under
    # argpartition is then cancellation noise rather than actual distance.
    d2 = np.maximum(d2, 0.0)
    return np.argpartition(d2, k - 1, axis=1)[:, :k]


def noise_scales(selected: np.ndarray, pool: np.ndarray, k: int,
                 mode: str = "vector") -> np.ndarray:
    """``r(x)`` for each selected representation (Sec. III-B).

    ``Std({x' : x' in Nei(x | X^n)})`` — the standard deviation of the k
    nearest neighbours' representations.  The std of a set of d-dimensional
    vectors is naturally *per dimension*, so the default returns an
    (m, d) matrix: noise is then scaled along each representation axis by
    the local spread of that axis, which keeps the perturbed target inside
    the neighbourhood's span (the paper's "relate it to its similar
    neighbours").  ``mode="scalar"`` collapses to the per-sample mean over
    dimensions, an (m,) vector, for the isotropic reading.

    Parameters
    ----------
    selected:
        (m, d) representations of the stored samples.
    pool:
        (N, d) representations of the full increment they came from.
    k:
        Neighbourhood size (the paper's only hyper-parameter).  ``k == 0``
        returns all-zero scales, making the noisy replay loss collapse to
        plain distillation — exactly the Fig. 6 ``0 neighbours == L_dis``
        statement.
    """
    if mode not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {mode!r}")
    selected = np.asarray(selected, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    m, d = selected.shape
    if k == 0:
        shape = (m, d) if mode == "vector" else (m,)
        return np.zeros(shape, dtype=np.float32)
    neighbours = knn_indices(selected, pool, k)
    scales = np.empty((m, d), dtype=np.float64)
    for i, row in enumerate(neighbours):
        scales[i] = pool[row].std(axis=0)
    if mode == "scalar":
        return scales.mean(axis=1).astype(np.float32)
    return scales.astype(np.float32)
