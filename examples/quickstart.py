"""Quickstart: train EDSR on a class-incremental image benchmark.

Runs the paper's method on the CI-scale CIFAR-10 analogue (5 increments of
2 classes) and prints the accuracy matrix, average accuracy (Eq. 17) and
average forgetting (Eq. 18).  Takes ~10 seconds on CPU.

Usage::

    python examples/quickstart.py
"""

import numpy as np

from repro import ContinualConfig, load_image_benchmark, run_method


def main() -> None:
    sequence = load_image_benchmark("cifar10-like", scale="ci")
    print(f"benchmark: {len(sequence)} increments of {len(sequence[0].classes)} classes, "
          f"{len(sequence[0].train)} train / {len(sequence[0].test)} test samples each")

    config = ContinualConfig(epochs=8)  # defaults: SimSiam, high-entropy, L_rpl
    result, _ = run_method("edsr", sequence, config, seed=0, verbose=True)

    print("\naccuracy matrix A[i, j] (test acc on increment j after learning increment i):")
    with np.printoptions(precision=3, nanstr="  .  "):
        print(result.accuracy_matrix)
    print(f"\nAcc = {100 * result.acc():.2f}%   Fgt = {100 * result.fgt():.2f}%")
    print(f"wall clock: {result.elapsed_seconds:.1f}s")


if __name__ == "__main__":
    main()
