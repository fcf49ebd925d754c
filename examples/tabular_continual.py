"""Scenario: unsupervised continual learning over a stream of *tables*.

The Sec. IV-E setting: five binary-classification tables (Bank, Shoppers,
Income, BlastChar, Shrutime analogues) arrive one at a time; the encoder is
a 7-layer MLP, the augmentation is SCARF-style feature corruption, and ~1%
of each table is stored.  Takes ~30 seconds on CPU.

Usage::

    python examples/tabular_continual.py
"""

from repro import ContinualConfig, load_tabular_benchmark, run_method, run_multitask
from repro.utils import format_table


def main() -> None:
    sequence = load_tabular_benchmark("ci")
    for task in sequence:
        positives = task.train.y == task.classes[1]
        print(f"increment {task.task_id}: {task.train.name:15s} "
              f"{len(task.train):4d} rows, positive rate {positives.mean():.3f}")

    config = ContinualConfig(
        epochs=6, optimizer="adam", lr=1e-3, weight_decay=1e-5,
        representation_dim=32, memory_budget=50, replay_batch_size=16)

    rows = []
    multitask = run_multitask(sequence, config, seed=0)
    rows.append(["multitask", f"{100 * multitask.acc():.2f}", "-"])
    for method in ("finetune", "cassle", "edsr"):
        result, _ = run_method(method, sequence, config, seed=0)
        rows.append([method, f"{100 * result.acc():.2f}", f"{100 * result.fgt():.2f}"])
    print()
    print(format_table(["method", "Acc %", "Fgt %"], rows,
                       title="tabular 5-dataset sequence (single seed)"))


if __name__ == "__main__":
    main()
