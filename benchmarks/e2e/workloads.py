"""The four continual-run workloads of the end-to-end benchmark.

Each workload is one complete continual run driven through the public API,
run as a closed loop with one run in flight; why each was chosen is in
``BENCHMARK.json`` and README.md.  The table is plain data (no ``repro``
import), so the runner can read it without paying the import the child
times as set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SMOKE_EPOCHS", "WORKLOADS", "Workload"]

#: ``--smoke`` trains one epoch per task: it checks that every layer and
#: metric is wired, not how fast or how well the run does.
SMOKE_EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``data`` is ``"image"`` (``load_image_benchmark("cifar10-like", "ci")``)
    or ``"tabular"`` (``load_tabular_benchmark("ci")``); ``config`` holds the
    :class:`~repro.continual.config.ContinualConfig` overrides on top of the
    defaults.  ``acc_floor`` is the ``acc_pct`` every full-length run must
    reach at any seed (smoke runs are not held to it).
    """

    name: str
    method: str
    data: str
    config: dict
    checkpoints: bool
    acc_floor: float


_TABLE_VII = dict(epochs=6, optimizer="adam", lr=1e-3, weight_decay=1e-5,
                  memory_budget=50, replay_batch_size=16, noise_neighbors=30)

# Floors sit about six standard deviations under the median acc_pct over 70
# seeds (lowest seen: 83.5, 78.75, 79.25, 80.4), so any seed passes while a
# run that collapses toward chance (50% on these two-class tasks) fails.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("edsr-image", "edsr", "image", dict(epochs=8), True, 70.0),
    Workload("finetune-image", "finetune", "image", dict(epochs=8), False, 70.0),
    Workload("edsr-taskfree", "edsr", "image",
             dict(epochs=8, scenario="task_free", segments_per_task=3,
                  drift_threshold=0.7), True, 70.0),
    Workload("edsr-tabular", "edsr", "tabular", _TABLE_VII, True, 75.0),
)}
