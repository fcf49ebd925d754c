"""The scenario registry: named settings for any continual method.

Mirrors the sequoia design (settings × methods → transfer-matrix results
objects): a :class:`ScenarioSpec` maps a name to a stream builder, and
:func:`repro.continual.trainer.run_method` applies any continual method to
``config.scenario``'s stream, returning the
:class:`~repro.eval.metrics.ContinualResult` *and* the
:class:`~repro.eval.transfer.TransferMatrix`.  Stream building consumes no
trainer RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.continual.config import ContinualConfig
from repro.data.splits import TaskSequence
from repro.scenarios.streams import (ScenarioStream, blurry_stream,
                                     class_incremental_stream,
                                     domain_incremental_stream,
                                     long_sequence_stream, task_free_stream)

__all__ = [
    "SCENARIO_REGISTRY",
    "ScenarioSpec",
    "build_stream",
    "register_scenario",
    "scenario_names",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario: a name, a story, and a stream builder.

    ``build`` receives ``(sequence, config)`` and returns the
    :class:`~repro.scenarios.streams.ScenarioStream`; scenario knobs come
    from the config's scenario fields (``blur_ratio``,
    ``segments_per_task``, ``drift_threshold``, ``domain_count``,
    ``domain_shift``, ``long_cycles``, ``scenario_seed``).
    """

    name: str
    description: str
    build: Callable[[TaskSequence, ContinualConfig], ScenarioStream]


SCENARIO_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(name: str, description: str,
                      build: Callable[[TaskSequence, ContinualConfig],
                                      ScenarioStream]) -> None:
    """Add a scenario to the registry (names are unique)."""
    if name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered")
    SCENARIO_REGISTRY[name] = ScenarioSpec(name, description, build)


def scenario_names() -> list[str]:
    """Registered scenario names, in registration order."""
    return list(SCENARIO_REGISTRY)


def build_stream(name: str, sequence: TaskSequence,
                 config: ContinualConfig) -> ScenarioStream:
    """Build scenario ``name``'s stream over ``sequence`` under ``config``."""
    try:
        spec = SCENARIO_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; registered: "
                         f"{', '.join(scenario_names())}") from None
    return spec.build(sequence, config)


register_scenario(
    "class_incremental",
    "sharp class-incremental boundaries, one segment per task",
    lambda sequence, config: class_incremental_stream(sequence))
register_scenario(
    "task_free",
    "no boundary signal; small shuffled segments, drift-triggered boundaries",
    lambda sequence, config: task_free_stream(
        sequence, segments_per_task=config.segments_per_task,
        seed=config.scenario_seed, drift_threshold=config.drift_threshold))
register_scenario(
    "blurry",
    "class distributions overlap across adjacent tasks (mixing ratio)",
    lambda sequence, config: blurry_stream(
        sequence, ratio=config.blur_ratio, seed=config.scenario_seed))
register_scenario(
    "domain_incremental",
    "same classes, shifting nuisance transforms per domain",
    lambda sequence, config: domain_incremental_stream(
        sequence, n_domains=config.domain_count, shift=config.domain_shift,
        seed=config.scenario_seed))
register_scenario(
    "long_sequence",
    "the base task order cycled into a 20+ segment stream",
    lambda sequence, config: long_sequence_stream(
        sequence, cycles=config.long_cycles))
