"""Fig. 7 — different task splits of the same dataset.

The 20-class benchmark is re-split from 5 tasks x 4 classes into
10 tasks x 2 classes (the paper splits CIFAR-100 20x5 vs 10x10) and the
per-increment ``Acc_i`` curves are compared.  Expected shape: early-
increment ``Acc_i`` *rises* as later data improves early representations;
EDSR stays on top across both splits.
"""

import numpy as np

from benchmarks.common import BASE_CONFIG, config_for, emit
from repro.continual import run_method
from repro.data import load_image_benchmark
from repro.utils import format_series

METHODS = ["finetune", "lump", "cassle", "edsr"]
SPLITS = [5, 10]


def run_fig7() -> str:
    lines = ["Fig. 7 (CI scale, 1 seed): per-increment Acc_i under different splits"]
    for n_tasks in SPLITS:
        sequence = load_image_benchmark("cifar100-like", "ci", n_tasks=n_tasks)
        lines.append(f"-- split: {n_tasks} tasks x {len(sequence[0].classes)} classes --")
        for method in METHODS:
            result, _ = run_method(method, sequence, config_for("cifar100-like"), seed=0)
            increments = list(range(1, n_tasks + 1))
            lines.append(format_series(method, increments, 100 * result.acc_series(),
                                       y_format="{:.1f}"))
    return "\n".join(lines)


def test_fig7_splits(benchmark):
    text = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    emit("fig7_splits", text)
    assert "10 tasks" in text
