"""Array helpers that keep numpy submodules off the run path."""

from __future__ import annotations

import numpy as np


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct values of ``values``, flattened, as
    ``np.unique(values)`` gives them, from one sort.

    ``np.unique`` imports ``numpy.ma`` on its first call (about 1.25 MB of
    resident memory and 15 ms), and every run reached it through its label
    and radius lists.
    """
    values = np.sort(np.asarray(values), axis=None)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
