"""Deterministic randomness plumbing.

Every stochastic component in the library takes an explicit
``numpy.random.Generator``; these helpers give components built without
one a deterministic default, and snapshot and restore a generator's state
for checkpoints.
"""

from __future__ import annotations

import copy

import numpy as np


#: Seed used when a component is constructed without an explicit generator.
#: Experiments always pass one; this exists so throwaway models built at a
#: REPL are still reproducible instead of seeding from OS entropy.
FALLBACK_SEED = 0x5EED


def fallback_rng(seed: int | None = None) -> np.random.Generator:
    """Deterministic default generator for components built without one.

    This is the only sanctioned replacement for the seedless
    ``np.random.default_rng()`` fallback pattern (lint rule DET001): two
    processes that omit the ``rng`` argument now initialize identically.
    """
    return np.random.default_rng(FALLBACK_SEED if seed is None else seed)


def get_rng_state(rng: np.random.Generator) -> dict:
    """Snapshot a generator's bit-generator state as a JSON-serializable dict.

    The returned mapping is exactly what numpy exposes as
    ``rng.bit_generator.state`` (plain ints and strings — PCG64 state words
    are arbitrary-precision Python ints, which JSON handles natively), deep
    copied so later draws do not mutate the snapshot.
    """
    return copy.deepcopy(rng.bit_generator.state)


def set_rng_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a generator to a state captured by :func:`get_rng_state`.

    After this call the generator's draw sequence continues bit-for-bit from
    where the snapshot was taken — the keystone of checkpoint/resume
    determinism.
    """
    rng.bit_generator.state = copy.deepcopy(state)
