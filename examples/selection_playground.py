"""Scenario: inspect the data-selection strategies directly.

Trains one SimSiam encoder on a single increment, extracts representations,
runs all five Table V selection strategies on the same budget, and scores
each chosen subset with the coding-length entropy of Sec. III-A — the exact
quantity the high-entropy strategy approximately maximizes.  Also shows the
noise scales r(x) (Sec. III-B) of the selected samples.

Usage::

    python examples/selection_playground.py
"""

import numpy as np

from repro import ContinualConfig, load_image_benchmark
from repro.continual import build_objective
from repro.continual.trainer import ContinualTrainer, _build_augment, _build_optimizer
from repro.data.loader import DataLoader
from repro.eval.protocol import extract_representations
from repro.optim import CosineLR
from repro.replay import noise_scales
from repro.selection import SelectionContext, coding_length_entropy, make_strategy
from repro.utils import format_table

BUDGET = 12
STRATEGIES = ["random", "kmeans", "min-var", "distant", "high-entropy"]


def train_one_increment(config, task, rng):
    objective = build_objective(config, task.train.x.shape[1:], rng)
    augment = _build_augment(task.train.x)
    optimizer = _build_optimizer(config, objective.parameters())
    schedule = CosineLR(optimizer, total_epochs=config.epochs)
    loader = DataLoader(task.train, config.batch_size, rng=rng)
    for epoch in range(config.epochs):
        schedule.step(epoch)
        for x_batch, _y in loader:
            view1, view2 = augment(x_batch, rng)
            optimizer.zero_grad()
            objective.css_loss(view1, view2).backward()
            optimizer.step()
    return objective, augment


def main() -> None:
    rng = np.random.default_rng(0)
    sequence = load_image_benchmark("cifar10-like", "ci")
    task = sequence[0]
    config = ContinualConfig(epochs=8)
    objective, augment = train_one_increment(config, task, rng)
    representations = extract_representations(objective, task.train.x)

    # min-var needs augmented-view variances
    views = np.stack([extract_representations(objective, augment.pipeline(task.train.x, rng))
                      for _ in range(4)])
    view_variances = views.var(axis=0).mean(axis=1)

    rows = []
    for name in STRATEGIES:
        context = SelectionContext(representations=representations, budget=BUDGET,
                                   rng=np.random.default_rng(1),
                                   view_variances=view_variances, n_groups=2)
        chosen = make_strategy(name).select(context)
        entropy = coding_length_entropy(representations[chosen])
        scales = noise_scales(representations[chosen], representations, k=30, mode="scalar")
        classes = np.bincount(task.train.y[chosen], minlength=int(task.train.y.max()) + 1)
        rows.append([name, f"{entropy:9.1f}", f"{scales.mean():.3f}",
                     "/".join(str(c) for c in classes if c or True)])
    print(format_table(
        ["strategy", "coding-length H(M)", "mean r(x)", "class balance"],
        rows,
        title=f"selection of {BUDGET} from {len(task.train)} samples "
              "(labels shown for inspection only — never used by selection)"))


if __name__ == "__main__":
    main()
