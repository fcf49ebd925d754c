"""Fig. 5 — new-task accuracy ``A_ii`` per increment (plasticity).

Expected shape: the strongest forgetting-prevention methods (EDSR, CaSSLe)
trade some new-task accuracy for stability — their ``A_ii`` series is not
the highest even though their final Acc is.
"""

import numpy as np

from benchmarks.common import BASE_CONFIG, SEEDS, config_for, emit
from repro.continual import run_method
from repro.data import load_image_benchmark
from repro.utils import format_series

METHODS = ["finetune", "lump", "cassle", "edsr"]


def run_fig5() -> str:
    sequence = load_image_benchmark("cifar100-like", "ci")
    lines = [f"Fig. 5 (CI scale, {len(SEEDS)} seeds): new-task accuracy A_ii per increment"]
    for method in METHODS:
        series = np.stack([
            run_method(method, sequence, config_for("cifar100-like"),
                       seed=seed)[0].new_task_accuracies()
            for seed in SEEDS
        ])
        increments = list(range(1, series.shape[1] + 1))
        lines.append(format_series(f"{method} mean", increments, series.mean(axis=0)))
        lines.append(format_series(f"{method} std ", increments, series.std(axis=0)))
    return "\n".join(lines)


def test_fig5_plasticity(benchmark):
    text = benchmark.pedantic(run_fig5, rounds=1, iterations=1)
    emit("fig5_plasticity", text)
    assert "edsr" in text
