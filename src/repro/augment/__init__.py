"""Stochastic data augmentation (Sec. II-A1 / Sec. IV-A5 of the paper).

Image pipeline: {crop, horizontalFlip, colorJitter, grayScale, gaussianBlur}
— the exact operation set the paper lists.  Tabular pipeline: the SCARF-style
``tabularCrop`` feature corruption.  All augmentations are batch functions of
an explicit ``numpy.random.Generator``; ``TwoViewAugment`` draws the two
positive views every CSSL loss consumes.
"""

from repro.augment.base import Augmentation, Compose, TwoViewAugment
from repro.augment.image import (
    RandomCrop,
    RandomHorizontalFlip,
    ColorJitter,
    RandomGrayscale,
    GaussianBlur,
    simsiam_image_pipeline,
)
from repro.augment.tabular import TabularCrop, tabular_pipeline

__all__ = [
    "Augmentation",
    "Compose",
    "TwoViewAugment",
    "RandomCrop",
    "RandomHorizontalFlip",
    "ColorJitter",
    "RandomGrayscale",
    "GaussianBlur",
    "simsiam_image_pipeline",
    "TabularCrop",
    "tabular_pipeline",
]
