"""Fig. 4 — forgetting matrices per method.

Prints the log-forgetting matrix (the paper's color scale) for each method
on one benchmark.  Expected shape: Finetune darkest (most forgetting), UCL
methods lighter than SCL methods, EDSR lightest overall.
"""

import numpy as np

from benchmarks.common import BASE_CONFIG, emit
from repro.continual import run_method
from repro.data import load_image_benchmark
from repro.utils import format_heatmap

METHODS = ["finetune", "si", "der", "lump", "cassle", "edsr"]


def log_forgetting(matrix: np.ndarray, floor: float = 1e-4) -> np.ndarray:
    """log10 of forgetting, floored — the paper's color value."""
    return np.log10(np.maximum(matrix, floor))


def run_fig4() -> str:
    sequence = load_image_benchmark("cifar10-like", "ci")
    blocks = []
    mean_forgetting = {}
    for method in METHODS:
        result, _ = run_method(method, sequence, BASE_CONFIG, seed=0)
        forgetting = result.forgetting()
        mean_forgetting[method] = float(np.nanmean(forgetting[-1, :-1]))
        blocks.append(format_heatmap(
            log_forgetting(forgetting),
            title=f"[{method}] log10 forgetting matrix (lighter = less forgetting)"))
    summary = ", ".join(f"{m}={100 * v:.2f}" for m, v in mean_forgetting.items())
    blocks.append(f"final-row mean forgetting (%): {summary}")
    return "Fig. 4 (CI scale, 1 seed): forgetting matrices\n\n" + "\n\n".join(blocks)


def test_fig4_forgetting_matrices(benchmark):
    text = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
    emit("fig4_forgetting_matrix", text)
    assert "edsr" in text
