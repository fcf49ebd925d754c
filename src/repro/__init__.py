"""repro — reproduction of EDSR: Effective Data Selection and Replay for
Unsupervised Continual Learning (Liu et al., ICDE 2024).

Quickstart
----------
>>> from repro import load_image_benchmark, ContinualConfig, run_method
>>> sequence = load_image_benchmark("cifar10-like", scale="ci")
>>> result, transfer = run_method("edsr", sequence,
...                               ContinualConfig(epochs=3), seed=0)
>>> result.acc(), result.fgt()  # doctest: +SKIP

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.tensor` / :mod:`repro.nn` / :mod:`repro.optim` — the
  from-scratch deep-learning substrate (autograd, layers, optimizers);
- :mod:`repro.data` / :mod:`repro.augment` — synthetic benchmarks mirroring
  Table II plus the paper's augmentation pipelines;
- :mod:`repro.ssl` — SimSiam / BarlowTwins objectives and distillation;
- :mod:`repro.selection` / :mod:`repro.memory` / :mod:`repro.replay` —
  EDSR's two contributions and all ablation variants;
- :mod:`repro.continual` — EDSR, every Table III baseline, and the trainer;
- :mod:`repro.eval` — KNN probing and the Acc/Fgt metrics.
"""

from repro.continual import (
    CaSSLe,
    ContinualConfig,
    ContinualTrainer,
    DER,
    EDSR,
    Finetune,
    LUMP,
    MultitaskResult,
    SynapticIntelligence,
    build_objective,
    make_method,
    run_method,
    run_multitask,
)
from repro.data import (
    ArrayDataset,
    DataLoader,
    TaskSequence,
    class_incremental_split,
    load_image_benchmark,
    load_tabular_benchmark,
)
from repro.eval import (ContinualResult, KNNClassifier, LinearProbe,
                        RidgeProbe, RidgeStatistics, evaluate_tasks)
from repro.ssl import BarlowTwins, DistillationHead, Encoder, SimSiam

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # continual
    "ContinualConfig",
    "ContinualTrainer",
    "run_method",
    "run_multitask",
    "make_method",
    "build_objective",
    "EDSR",
    "CaSSLe",
    "LUMP",
    "DER",
    "SynapticIntelligence",
    "Finetune",
    "MultitaskResult",
    # data
    "ArrayDataset",
    "DataLoader",
    "TaskSequence",
    "class_incremental_split",
    "load_image_benchmark",
    "load_tabular_benchmark",
    # eval
    "ContinualResult",
    "KNNClassifier",
    "LinearProbe",
    "RidgeProbe",
    "RidgeStatistics",
    "evaluate_tasks",
    # ssl
    "Encoder",
    "SimSiam",
    "BarlowTwins",
    "DistillationHead",
]
