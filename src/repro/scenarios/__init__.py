"""Scenario matrix: settings × methods beyond sharp class-incremental.

The registry (:mod:`repro.scenarios.registry`) names five stream shapes —
``class_incremental``, ``task_free``, ``blurry``, ``domain_incremental``,
``long_sequence`` — each built by a pure function of ``(seed, params)``
(:mod:`repro.scenarios.streams`).  Any continual method runs over any
scenario via :func:`repro.continual.trainer.run_method`, producing the
result plus a first-class :class:`~repro.eval.transfer.TransferMatrix`.
Task-free streams self-trigger boundaries through the
:class:`~repro.scenarios.drift.DriftDetector`.
"""

from repro.scenarios.drift import DriftDetector
from repro.scenarios.streams import (ScenarioStream, StreamSegment,
                                     blurry_stream, class_incremental_stream,
                                     domain_incremental_stream,
                                     long_sequence_stream, task_free_stream)
from repro.scenarios.registry import SCENARIO_REGISTRY, build_stream

__all__ = [
    "DriftDetector",
    "SCENARIO_REGISTRY",
    "ScenarioStream",
    "StreamSegment",
    "blurry_stream",
    "build_stream",
    "class_incremental_stream",
    "domain_incremental_stream",
    "long_sequence_stream",
    "task_free_stream",
]
