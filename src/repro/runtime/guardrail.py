"""Divergence guardrails for the continual training loop.

A :class:`GuardrailPolicy` describes what counts as divergence (non-finite
or exploding loss, exploding gradient norm, an :class:`AnomalyError` from
the autograd sanitizer, under which every guarded batch runs) and how the
trainer escalates when it happens:

1. **skip batch** — discard the poisoned gradients and move on;
2. **restore + LR backoff** — after ``max_skips_per_task`` skips in one
   task, restore the last good task-boundary state (method weights, memory,
   RNG stream) and restart the task with the learning rate scaled by
   ``lr_backoff``;
3. **abort** — after ``max_restores_per_task`` restores, write a structured
   failure report to the run directory and raise :class:`TrainingDiverged`.

Every step of the ladder is recorded through :class:`RunLog`, an
append-only JSONL event log living next to the checkpoints.
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.runtime.checkpoint import atomic_write_bytes

#: Longest ``detail`` string kept in events (anomaly stacks can be huge).
_DETAIL_LIMIT = 600

#: Absolute batch loss treated as an explosion.
MAX_LOSS = 1e6


@dataclass(frozen=True)
class GuardrailPolicy:
    """Thresholds and escalation limits for divergence recovery.

    Attributes
    ----------
    max_grad_norm:
        Global gradient-norm threshold (``None`` disables).
    max_skips_per_task:
        Skipped batches tolerated within one task before escalating to a
        restore.
    lr_backoff:
        Learning-rate factor applied per restore (restart ``i`` trains at
        ``lr * lr_backoff**i``).
    max_restores_per_task:
        Restores tolerated within one task before aborting the run.
    """

    max_grad_norm: float | None = 1e3
    max_skips_per_task: int = 3
    lr_backoff: float = 0.5
    max_restores_per_task: int = 2

    def __post_init__(self):
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive (or None)")
        if self.max_skips_per_task < 0:
            raise ValueError("max_skips_per_task must be >= 0")
        if not 0 < self.lr_backoff <= 1:
            raise ValueError("lr_backoff must be in (0, 1]")
        if self.max_restores_per_task < 0:
            raise ValueError("max_restores_per_task must be >= 0")


class GuardrailViolation(RuntimeError):
    """Internal signal that one batch tripped a guardrail check."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class TrainingDiverged(RuntimeError):
    """The guardrail escalation ladder was exhausted; the run aborted.

    Carries the structured failure ``report`` (also written to
    ``failure-report.json`` in the run directory when one is configured).
    """

    def __init__(self, message: str, report: dict,
                 report_path: pathlib.Path | None = None):
        super().__init__(message)
        self.report = report
        self.report_path = report_path


def clip_detail(text: str, limit: int = _DETAIL_LIMIT) -> str:
    """Trim long diagnostics (anomaly stacks) for event records."""
    text = str(text)
    if len(text) <= limit:
        return text
    return text[:limit] + f"... [{len(text) - limit} chars truncated]"


def global_grad_norm(parameters) -> float:
    """L2 norm over every parameter gradient (missing grads contribute 0)."""
    total = 0.0
    for p in parameters:
        if p.grad is not None:
            total += float(np.sum(np.square(p.grad.astype(np.float64))))
    return math.sqrt(total)


class RunLog:
    """Append-only JSONL event log for one run directory.

    With ``path=None`` the log is memory-only (events still accumulate, so
    failure reports and tests can inspect them); with a path every event is
    appended to the file as one JSON line as it happens.
    """

    def __init__(self, path: str | pathlib.Path | None = None):
        self.path = None if path is None else pathlib.Path(path)
        self.events: list[dict] = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, kind: str, **fields) -> dict:
        event = {"time": time.time(), "kind": kind, **fields}
        self.events.append(event)
        if self.path is not None:
            # Append-only JSONL is crash-safe by construction: a torn last
            # line cannot corrupt committed events, and readers skip it.
            # The atomic writer would rewrite the whole log per event.
            with open(self.path, "a", encoding="utf-8") as handle:  # repro-lint: disable=RB001
                handle.write(json.dumps(event) + "\n")
                handle.flush()
        return event

    def tail(self, n: int = 20) -> list[dict]:
        return self.events[-n:]

    def write_failure_report(self, report: dict) -> pathlib.Path | None:
        """Atomically write ``failure-report.json`` next to the event log."""
        if self.path is None:
            return None
        target = self.path.parent / "failure-report.json"
        atomic_write_bytes(target, json.dumps(report, indent=2).encode("utf-8"))
        return target


def build_failure_report(method_name: str, task_index: int, restores: int,
                         policy: GuardrailPolicy, log: RunLog) -> dict:
    """The structured report written when the escalation ladder is exhausted."""
    return {
        "method": method_name,
        "task_index": task_index,
        "restores": restores,
        "policy": asdict(policy),
        "recent_events": log.tail(20),
        "message": (f"training diverged on task {task_index}: "
                    f"{restores} restore(s) with LR backoff did not recover"),
    }
