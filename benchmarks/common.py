"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper's Sec. IV has one ``test_*`` file in
this directory.  Each bench runs the experiment at CI scale, prints the
paper-style rows/series, and writes the same text to
``benchmarks/results/<name>.txt`` so results survive pytest's output
capture.  The ``benchmark`` fixture wraps the full experiment (one round),
so ``pytest benchmarks/ --benchmark-only`` also reports wall-clock.
"""

from __future__ import annotations

import functools
import pathlib
from typing import Callable, Sequence

import numpy as np

from repro.continual import ContinualConfig, run_method, run_multitask
from repro.data import load_image_benchmark
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


#: The sign of "better" in each paired metric: the paper claims a higher
#: Acc and a lower Fgt for its method than for the baseline.
PAPER_DIRECTION = {"acc": 1.0, "fgt": -1.0}


def paired_verdict(diffs: Sequence[float], direction: float) -> dict:
    """Mean of per-seed differences (method - baseline), its standard
    error, the seeds won and the verdict on the paper's claim.

    The claim "holds" when the mean is at least 2 SE from zero in
    ``direction`` (+1: the method should be higher, -1: lower), is
    "reversed" at 2 SE the other way, and is "inside noise" otherwise.  A
    zero mean is always inside noise; with SE 0 (every seed gives the same
    difference) any other mean is decisive.
    """
    d = np.asarray(diffs, dtype=np.float64)
    if len(d) < 2:
        raise ValueError("a paired check needs at least two seeds")
    mean = float(d.mean())
    se = float(d.std(ddof=1) / np.sqrt(len(d)))
    signed = direction * mean
    if signed != 0.0 and abs(signed) >= 2.0 * se:
        verdict = "holds" if signed > 0 else "reversed"
    else:
        verdict = "inside noise"
    return {"mean_diff": mean, "se": se, "wins": int(np.sum(direction * d > 0)),
            "n": len(d), "verdict": verdict}


@functools.lru_cache(maxsize=None)
def _ci_sequence(dataset: str) -> TaskSequence:
    return load_image_benchmark(dataset, "ci")


def run_ci(method: str, dataset: str, seed: int) -> ContinualResult:
    """One run of ``method`` on the CI-scale ``dataset`` at ``config_for``."""
    return run_method(method, _ci_sequence(dataset), config_for(dataset),
                      seed=seed)[0]


def paired_check(methods: Sequence[str], baselines: Sequence[str],
                 datasets: Sequence[str], seeds: Sequence[int] = range(10),
                 run: Callable[[str, str, int], ContinualResult] = run_ci,
                 ) -> dict[str, float | int | str]:
    """Each method against each baseline over the same seeds, as one
    loggable dict.

    One seed gives every method the same data, initialization draw and
    loader order, so the per-seed difference cancels what the seed alone
    decides.  ``run(method, dataset, seed)`` returns a finished run.  Keys
    are ``"{method}-vs-{baseline}/{dataset}/{acc|fgt}/{field}"`` with the
    fields of :func:`paired_verdict`; differences are in points (percent).
    """
    log: dict[str, float | int | str] = {}
    names = list(dict.fromkeys([*methods, *baselines]))
    for dataset in datasets:
        runs = {name: [run(name, dataset, seed) for seed in seeds]
                for name in names}
        for method in methods:
            for baseline in baselines:
                for metric, direction in PAPER_DIRECTION.items():
                    diffs = [100.0 * (getattr(m, metric)() - getattr(b, metric)())
                             for m, b in zip(runs[method], runs[baseline])]
                    for field, value in paired_verdict(diffs, direction).items():
                        log[f"{method}-vs-{baseline}/{dataset}/{metric}/{field}"] = value
    return log


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
