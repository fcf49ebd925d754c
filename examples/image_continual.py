"""Scenario: compare continual-learning methods on an image sequence.

Reproduces a single-seed slice of the paper's Table III: every method is
trained on the same class-incremental benchmark and ranked by average
accuracy and forgetting.  Also prints each method's forgetting matrix, the
Fig. 4 visualization.  Takes ~1 minute on CPU.

Usage::

    python examples/image_continual.py [benchmark]

where ``benchmark`` is one of cifar10-like (default), cifar100-like,
tiny-imagenet-like, domainnet-like.
"""

import sys

import numpy as np

from repro import ContinualConfig, load_image_benchmark, run_method, run_multitask
from repro.utils import format_heatmap, format_table

METHODS = ["finetune", "si", "der", "lump", "cassle", "edsr"]


def main(benchmark_name: str = "cifar10-like") -> None:
    sequence = load_image_benchmark(benchmark_name, scale="ci")
    config = ContinualConfig(epochs=8)

    rows = []
    matrices = {}
    multitask = run_multitask(sequence, config, seed=0)
    rows.append(["multitask", f"{100 * multitask.acc():.2f}", "-",
                 f"{multitask.elapsed_seconds:.1f}"])
    for method in METHODS:
        result, _ = run_method(method, sequence, config, seed=0)
        matrices[method] = result.forgetting()
        rows.append([method, f"{100 * result.acc():.2f}", f"{100 * result.fgt():.2f}",
                     f"{result.elapsed_seconds:.1f}"])

    print(format_table(["method", "Acc %", "Fgt %", "time s"], rows,
                       title=f"single-seed comparison on {benchmark_name}"))

    for method in ("finetune", "edsr"):
        print()
        print(format_heatmap(matrices[method],
                             title=f"forgetting matrix F[i, j] — {method}"))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "cifar10-like")
