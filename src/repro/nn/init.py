"""Weight initialization.

The initializer is a pure function of an explicit ``numpy.random.Generator``
so every model in the library is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int) -> np.ndarray:
    """He/Kaiming uniform init, the default for ReLU networks."""
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)

