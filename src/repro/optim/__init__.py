"""Gradient-descent optimizers and the learning-rate schedule."""

from repro.optim.base import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.schedule import CosineLR

#: Optimizer name -> class (``ContinualConfig.optimizer``).  The trainer
#: sets only ``lr`` and ``weight_decay``; the rest keep the class defaults
#: (SGD's momentum is 0.9).
OPTIMIZERS = {"sgd": SGD, "adam": Adam}

__all__ = ["Optimizer", "SGD", "Adam", "CosineLR", "OPTIMIZERS"]
