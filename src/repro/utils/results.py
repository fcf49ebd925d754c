"""Multi-seed experiment aggregation (the paper's "mean ± std over runs")."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.eval.metrics import ContinualResult


@dataclass(frozen=True)
class AggregateResult:
    """Mean ± std of Acc / Fgt over seeds, in percent as the paper reports."""

    name: str
    acc_mean: float
    acc_std: float
    fgt_mean: float
    fgt_std: float
    n_runs: int
    elapsed_mean: float = 0.0

    def acc_text(self) -> str:
        return f"{100 * self.acc_mean:.2f} ± {100 * self.acc_std:.2f}"

    def fgt_text(self) -> str:
        return f"{100 * self.fgt_mean:.2f} ± {100 * self.fgt_std:.2f}"


def aggregate_runs(name: str, results: Sequence[ContinualResult]) -> AggregateResult:
    """Aggregate completed continual runs of one method."""
    if not results:
        raise ValueError("no results to aggregate")
    accs = np.array([r.acc() for r in results])
    fgts = np.array([r.fgt() for r in results])
    elapsed = np.array([r.elapsed_seconds for r in results])
    return AggregateResult(
        name=name,
        acc_mean=float(accs.mean()),
        acc_std=float(accs.std()),
        fgt_mean=float(fgts.mean()),
        fgt_std=float(fgts.std()),
        n_runs=len(results),
        elapsed_mean=float(elapsed.mean()),
    )

