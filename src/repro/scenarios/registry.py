"""The scenario registry: named settings for any continual method.

Mirrors the sequoia design (settings × methods → transfer-matrix results
objects): :data:`SCENARIO_REGISTRY` maps a name to a stream builder, and
:func:`repro.continual.trainer.run_method` applies any continual method to
``config.scenario``'s stream, returning the
:class:`~repro.eval.metrics.ContinualResult` *and* the
:class:`~repro.eval.transfer.TransferMatrix`.  Stream building consumes no
trainer RNG.
"""

from __future__ import annotations

from typing import Callable

from repro.continual.config import ContinualConfig
from repro.data.splits import TaskSequence
from repro.scenarios.streams import (ScenarioStream, blurry_stream,
                                     class_incremental_stream,
                                     domain_incremental_stream,
                                     long_sequence_stream, task_free_stream)

__all__ = ["SCENARIO_REGISTRY", "build_stream"]

#: Scenario name -> stream builder, in the order the CLI lists them.  A
#: builder receives ``(sequence, config)`` and reads its knobs from the
#: config's scenario fields (``blur_ratio``, ``segments_per_task``,
#: ``drift_threshold``, ``domain_count``, ``domain_shift``, ``long_cycles``,
#: ``scenario_seed``).
SCENARIO_REGISTRY: dict[str, Callable[[TaskSequence, ContinualConfig],
                                      ScenarioStream]] = {
    # sharp class-incremental boundaries, one segment per task
    "class_incremental": lambda sequence, config: class_incremental_stream(
        sequence),
    # no boundary signal; small shuffled segments, drift-triggered boundaries
    "task_free": lambda sequence, config: task_free_stream(
        sequence, segments_per_task=config.segments_per_task,
        seed=config.scenario_seed, drift_threshold=config.drift_threshold),
    # class distributions overlap across adjacent tasks (mixing ratio)
    "blurry": lambda sequence, config: blurry_stream(
        sequence, ratio=config.blur_ratio, seed=config.scenario_seed),
    # same classes, shifting nuisance transforms per domain
    "domain_incremental": lambda sequence, config: domain_incremental_stream(
        sequence, n_domains=config.domain_count, shift=config.domain_shift,
        seed=config.scenario_seed),
    # the base task order cycled into a 20+ segment stream
    "long_sequence": lambda sequence, config: long_sequence_stream(
        sequence, cycles=config.long_cycles),
}


def build_stream(name: str, sequence: TaskSequence,
                 config: ContinualConfig) -> ScenarioStream:
    """Build scenario ``name``'s stream over ``sequence`` under ``config``."""
    try:
        build = SCENARIO_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; registered: "
                         f"{', '.join(SCENARIO_REGISTRY)}") from None
    return build(sequence, config)
