"""Datasets, loaders, and the class-incremental task protocol.

The paper evaluates on CIFAR-10/100, Tiny-ImageNet, DomainNet-real and five
tabular sets (Table II).  None of those can be downloaded in this offline
environment, so this package provides *seeded synthetic generators* whose
presets mirror each dataset's shape (class counts, split sizes, image size /
feature counts, positive rates).  See DESIGN.md's substitution table for why
this preserves the behaviours the paper's experiments measure.
"""

from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.data.synthetic import SyntheticImageConfig, make_image_dataset
from repro.data.tabular import TabularConfig, make_tabular_dataset, TABULAR_PRESETS
from repro.data.splits import class_incremental_split, TaskSequence, Task
from repro.data.registry import IMAGE_PRESETS, load_image_benchmark, load_tabular_benchmark

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "SyntheticImageConfig",
    "make_image_dataset",
    "TabularConfig",
    "make_tabular_dataset",
    "TABULAR_PRESETS",
    "class_incremental_split",
    "TaskSequence",
    "Task",
    "IMAGE_PRESETS",
    "load_image_benchmark",
    "load_tabular_benchmark",
]
