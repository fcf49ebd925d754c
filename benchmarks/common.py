"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper's Sec. IV has one ``test_*`` file in
this directory.  Each bench runs the experiment at CI scale, prints the
paper-style rows/series, and writes the same text to
``benchmarks/results/<name>.txt`` so results survive pytest's output
capture.  The ``benchmark`` fixture wraps the full experiment (one round),
so ``pytest benchmarks/ --benchmark-only`` also reports wall-clock.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.continual import ContinualConfig, run_method, run_multitask
from repro.data.splits import TaskSequence
from repro.eval.metrics import ContinualResult
from repro.utils import AggregateResult, aggregate_runs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# CI-scale experiment knobs shared by all benches.
SEEDS = [0, 1]
EPOCHS = 8
BASE_CONFIG = ContinualConfig(epochs=EPOCHS)

# Per-dataset hyper-parameters, mirroring the paper's protocol of tuning the
# noise neighbourhood k per dataset (100 for CIFAR-10, 10 for the rest,
# Sec. IV-A5) and growing the memory budget with the benchmark (256 -> 960,
# Table III).  At CI scale the budget must scale with classes-per-task so the
# per-task quota can cover every class.
DATASET_OVERRIDES: dict[str, dict] = {
    "cifar10-like": dict(noise_neighbors=30, memory_budget=20),
    "cifar100-like": dict(noise_neighbors=30, memory_budget=20),
    "tiny-imagenet-like": dict(noise_neighbors=10, memory_budget=60),
    "domainnet-like": dict(noise_neighbors=30, memory_budget=90),
}


def config_for(dataset: str, base: ContinualConfig = BASE_CONFIG) -> ContinualConfig:
    """Per-dataset config (the paper's per-dataset hyper-parameters)."""
    overrides = DATASET_OVERRIDES.get(dataset)
    if overrides is None:
        return base
    return base.with_overrides(**overrides)


def run_seeded(method: str, sequence: TaskSequence, config: ContinualConfig,
               seeds=SEEDS) -> tuple[AggregateResult, list[ContinualResult]]:
    """Run one method over several seeds and aggregate Acc/Fgt."""
    results = [run_method(method, sequence, config, seed=seed)[0]
               for seed in seeds]
    return aggregate_runs(method, results), results


def run_multitask_seeded(sequence: TaskSequence, config: ContinualConfig,
                         seeds=SEEDS) -> tuple[str, str, float]:
    """Multitask rows: (acc_text, fgt_text='-', mean_elapsed)."""
    runs = [run_multitask(sequence, config, seed=seed) for seed in seeds]
    accs = np.array([r.acc() for r in runs])
    acc_text = f"{100 * accs.mean():.2f} ± {100 * accs.std():.2f}"
    elapsed = float(np.mean([r.elapsed_seconds for r in runs]))
    return acc_text, "-", elapsed


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
