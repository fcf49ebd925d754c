"""Gradient-descent optimizers and learning-rate schedules."""

from repro.optim.base import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.schedule import ConstantLR, CosineLR

__all__ = ["Optimizer", "SGD", "Adam", "ConstantLR", "CosineLR"]
