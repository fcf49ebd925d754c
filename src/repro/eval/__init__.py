"""Evaluation: probe registry (KNN/linear/ridge) and the Fig. 3 metrics."""

from repro.eval.knn import KNNClassifier
from repro.eval.linear_probe import LinearProbe
from repro.eval.metrics import ContinualResult, forgetting_matrix
from repro.eval.protocol import (PROBE_REGISTRY, evaluate_tasks,
                                 extract_representations, make_probe)
from repro.eval.ridge import RidgeProbe, RidgeStatistics
from repro.eval.transfer import TransferMatrix

__all__ = [
    "KNNClassifier",
    "LinearProbe",
    "RidgeProbe",
    "RidgeStatistics",
    "ContinualResult",
    "TransferMatrix",
    "forgetting_matrix",
    "evaluate_tasks",
    "extract_representations",
    "PROBE_REGISTRY",
    "make_probe",
]
