"""The chaos scenario catalog: named failure stories, seed-keyed plans.

A :class:`Scenario` bundles what the chaos harness needs to run one
failure story end-to-end through the trainer: the run shape (guardrail
knobs, stream), the :class:`~repro.faults.FaultPlan`
builder, the *expected* outcome, and how to verify the run afterwards.

:func:`build_plan` is the determinism contract: the plan is a pure
function of ``(seed, scenario_name)`` — hit positions are drawn from
``np.random.default_rng([seed, crc32(name)])`` and nothing else — so any
failing campaign entry reproduces exactly from the two values printed in
its report line.

The hit ranges below are tuned to the harness's fixed tiny run (3 tasks,
1 epoch, 3 batches per task — see :mod:`repro.faults.chaos`): e.g. the
trainer reads 9 batches total, so a ``data.loader.batch`` hit drawn from
``[1, 9]`` always lands inside the run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.faults.plane import FaultEvent, FaultPlan

__all__ = ["SCENARIOS", "Scenario", "build_plan", "scenario_names"]


@dataclass(frozen=True)
class Scenario:
    """One named failure story the chaos harness can run.

    ``expect`` is the outcome the campaign requires (``survived`` /
    ``clean-abort`` / ``resume-verified``); anything else is a FAILED
    entry.  ``verify="identical"`` additionally requires the final result
    to be bit-for-bit equal to an uninjected reference run.  ``stream``
    names a scenario
    from :data:`repro.scenarios.SCENARIO_REGISTRY`: the harness then
    trains on that stream shape instead of the sharp task sequence, so
    faults land inside task-free segments and blurry pseudo-boundaries.
    """

    name: str
    description: str
    expect: str
    events: Callable[[np.random.Generator], tuple[FaultEvent, ...]]
    verify: str = "none"  # "none" | "identical"
    policy_overrides: Mapping[str, object] = field(default_factory=dict)
    stream: str | None = None


def _no_events(_rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return ()


def _engine_nan_once(rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (FaultEvent("engine.dispatch", "nan_payload",
                       hit=int(rng.integers(2, 30))),)


def _engine_nan_persistent(_rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (FaultEvent("engine.dispatch", "nan_payload", hit=0),)


def _loader_transient(rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (FaultEvent("data.loader.batch", "loader_fault",
                       hit=int(rng.integers(1, 10)), transient=True),)


def _loader_persistent(rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (FaultEvent("data.loader.batch", "loader_fault",
                       hit=int(rng.integers(1, 10))),)


def _ckpt_io_error(_rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (FaultEvent("ckpt.arrays.begin", "io_error", hit=1),)


def _ckpt_torn_manifest(_rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (FaultEvent("ckpt.manifest.torn", "torn_write", hit=1),)


def _crash_boundary(_rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (FaultEvent("trainer.task.boundary", "crash", hit=1),)


def _crash_late(_rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    return (FaultEvent("trainer.task.boundary", "crash", hit=2),)


def _crash_torn_checkpoint(_rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    # Task 1's manifest is torn (the save fails, logged, run continues),
    # then the process crashes at the same boundary: resume must skip the
    # corrupt manifest, fall back to task 0's checkpoint, and re-run
    # tasks 1..2 bit-for-bit.
    return (FaultEvent("ckpt.manifest.torn", "torn_write", hit=2),
            FaultEvent("trainer.task.boundary", "crash", hit=2))


_CATALOG = (
    Scenario(
        name="baseline",
        description="armed plane, no events: the plumbing itself must not "
                    "change results",
        expect="survived", events=_no_events, verify="identical"),
    Scenario(
        name="engine-nan-once",
        description="one NaN payload out of an op dispatch; the anomaly "
                    "screen skips the batch",
        expect="survived", events=_engine_nan_once),
    Scenario(
        name="engine-nan-persistent",
        description="every dispatch poisoned: skip budget, restores, then "
                    "a clean structured abort",
        expect="clean-abort", events=_engine_nan_persistent,
        policy_overrides={"max_skips_per_task": 1, "max_restores_per_task": 1}),
    Scenario(
        name="loader-transient",
        description="transient batch-read fault absorbed by the loader's "
                    "bounded retry — zero skips",
        expect="survived", events=_loader_transient, verify="identical"),
    Scenario(
        name="loader-persistent",
        description="persistent batch-read fault: the epoch is skipped "
                    "against the guardrail budget",
        expect="survived", events=_loader_persistent),
    Scenario(
        name="ckpt-io-error",
        description="checkpoint write fails with an I/O error; best-effort "
                    "checkpointing logs and continues",
        expect="survived", events=_ckpt_io_error),
    Scenario(
        name="ckpt-torn-manifest",
        description="a torn manifest reaches disk; later checkpoints and "
                    "load_latest are unaffected",
        expect="survived", events=_ckpt_torn_manifest),
    Scenario(
        name="crash-task-boundary",
        description="process dies right after task 0's checkpoint; resume "
                    "must be bit-for-bit",
        expect="resume-verified", events=_crash_boundary),
    Scenario(
        name="crash-late",
        description="process dies after task 1's checkpoint; resume must "
                    "be bit-for-bit",
        expect="resume-verified", events=_crash_late),
    Scenario(
        name="crash-torn-checkpoint",
        description="torn newest checkpoint + crash: resume falls back to "
                    "the last good checkpoint and re-runs bit-for-bit",
        expect="resume-verified", events=_crash_torn_checkpoint),
    Scenario(
        name="task-free-loader-fault",
        description="persistent batch-read fault inside an unsignalled "
                    "task-free segment: the drift-driven run survives on "
                    "the guardrail budget",
        expect="survived", events=_loader_persistent, stream="task_free"),
    Scenario(
        name="blurry-boundary-crash",
        description="process dies at the first blurry pseudo-boundary; "
                    "resume over the rebuilt stream must be bit-for-bit",
        expect="resume-verified", events=_crash_boundary, stream="blurry"),
)

SCENARIOS: dict[str, Scenario] = {s.name: s for s in _CATALOG}


def scenario_names() -> list[str]:
    """Catalog names in definition order."""
    return [s.name for s in _CATALOG]


def build_plan(seed: int, name: str) -> FaultPlan:
    """The scenario's fault plan — a pure function of ``(seed, name)``."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise KeyError(f"unknown chaos scenario {name!r}; "
                       f"known: {', '.join(scenario_names())}")
    rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
    return FaultPlan(seed=seed, scenario=name, events=scenario.events(rng))
