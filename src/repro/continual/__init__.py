"""Continual-learning methods and the training loop.

Implements the paper's method (EDSR) and every baseline of Table III:
Finetune, SI, DER, LUMP, CaSSLe, plus the Multitask upper bound.  All
methods share the :class:`~repro.continual.method.ContinualMethod`
interface and are driven by :class:`~repro.continual.trainer.ContinualTrainer`.
"""

from repro.continual.config import ContinualConfig, build_objective
from repro.continual.method import BoundaryEvent, ContinualMethod
from repro.continual.finetune import Finetune
from repro.continual.si import SynapticIntelligence
from repro.continual.der import DER
from repro.continual.lump import LUMP
from repro.continual.cassle import CaSSLe
from repro.continual.edsr import EDSR
from repro.continual.lin import LinContinual
from repro.continual.pfr import PFR
from repro.continual.generative import GenerativeReplay
from repro.continual.registry import make_method
from repro.continual.multitask import run_multitask, MultitaskResult
from repro.continual.trainer import ContinualTrainer, run_method

__all__ = [
    "ContinualConfig",
    "build_objective",
    "BoundaryEvent",
    "ContinualMethod",
    "make_method",
    "Finetune",
    "SynapticIntelligence",
    "DER",
    "LUMP",
    "CaSSLe",
    "EDSR",
    "LinContinual",
    "PFR",
    "GenerativeReplay",
    "run_multitask",
    "MultitaskResult",
    "ContinualTrainer",
    "run_method",
]
