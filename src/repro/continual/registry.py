"""Method registry: Table III row names -> method classes.

:func:`make_method` and the CLI (its ``choices`` and ``repro list``) read
:data:`METHODS`, so a method is registered in one place.
"""

from __future__ import annotations

import numpy as np

from repro.continual.cassle import CaSSLe
from repro.continual.config import ContinualConfig
from repro.continual.der import DER
from repro.continual.edsr import EDSR
from repro.continual.finetune import Finetune
from repro.continual.generative import GenerativeReplay
from repro.continual.lin import LinContinual
from repro.continual.lump import LUMP
from repro.continual.method import ContinualMethod
from repro.continual.pfr import PFR
from repro.continual.si import SynapticIntelligence
from repro.ssl.base import CSSLObjective

#: Method name -> class, in Table III row order plus the cited baselines.
METHODS = {
    "finetune": Finetune,
    "si": SynapticIntelligence,
    "der": DER,
    "lump": LUMP,
    "cassle": CaSSLe,
    "edsr": EDSR,
    "lin": LinContinual,
    "pfr": PFR,
    "curl": GenerativeReplay,
}


def make_method(name: str, objective: CSSLObjective, config: ContinualConfig,
                rng: np.random.Generator) -> ContinualMethod:
    """Factory mapping Table III row names to method instances."""
    try:
        cls = METHODS[name]
    except KeyError as exc:
        raise KeyError(f"unknown method {name!r}; available: {sorted(METHODS)}") from exc
    return cls(objective, config, rng)
