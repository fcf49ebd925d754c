"""Seeded synthetic image datasets (the CIFAR/Tiny-ImageNet stand-ins).

Generative model
----------------
Each class ``c`` is defined by a *prototype*: a smooth random color field
plus a class-specific geometric figure (an oriented ellipse).  A sample from
class ``c`` is::

    x = clip(prototype_c + instance_field * intra_class_std + pixel_noise)

where ``instance_field`` is a fresh smooth field per sample.  The design
mirrors what continual-learning experiments need from CIFAR:

- classes are separable by *augmentation-invariant* statistics (the
  prototype's color distribution and coarse shape survive crops, flips and
  jitter; the instance noise does not), so contrastive learning genuinely
  improves a KNN evaluator over time;
- classes share the pixel space, so sequentially training on disjoint class
  subsets causes measurable representation drift — i.e. forgetting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.augment.image import gaussian_blur
from repro.data.dataset import ArrayDataset


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Parameters of the synthetic image generative model.

    Attributes
    ----------
    n_classes, train_per_class, test_per_class:
        Dataset shape.
    image_size, channels:
        Resolution (square) and color channels.
    intra_class_std:
        Strength of the per-sample smooth instance field; higher is harder.
    pixel_noise:
        iid pixel noise amplitude.
    seed:
        Root seed for all class prototypes and samples.
    name:
        Dataset name used in tables and logs.
    """

    n_classes: int = 10
    train_per_class: int = 100
    test_per_class: int = 40
    image_size: int = 8
    channels: int = 3
    intra_class_std: float = 0.15
    pixel_noise: float = 0.03
    seed: int = 0
    name: str = "synthetic-images"


#: Side of the coarse iid grid a smooth field is upsampled from (capped at
#: the image size).
_FIELD_GRID = 4


def _grid_side(size: int) -> int:
    return min(_FIELD_GRID, size)


def _smooth_field(coarse: np.ndarray, size: int, sigma: float) -> np.ndarray:
    """Low-frequency random fields from pre-drawn coarse iid grids.

    ``coarse`` is ``(N, C, g, g)``: each cell is repeated over a square
    block (cut at ``size`` when ``g`` does not divide it) and every field is
    blurred with ``sigma`` in one call, giving ``(N, C, size, size)``.
    """
    reps = int(np.ceil(size / coarse.shape[-1]))
    field = coarse.repeat(reps, axis=-2).repeat(reps, axis=-1)[..., :size, :size]
    return gaussian_blur(field, np.full(len(field), sigma))


def _class_figure(rng: np.random.Generator, size: int) -> np.ndarray:
    """Oriented elliptical blob mask in [0, 1] — the class's 'shape'."""
    cy, cx = rng.uniform(0.3, 0.7, size=2) * size
    ry, rx = rng.uniform(0.15, 0.45, size=2) * size
    theta = rng.uniform(0, np.pi)
    yy, xx = np.mgrid[0:size, 0:size]
    y0, x0 = yy - cy, xx - cx
    yr = y0 * np.cos(theta) + x0 * np.sin(theta)
    xr = -y0 * np.sin(theta) + x0 * np.cos(theta)
    dist = (yr / ry) ** 2 + (xr / rx) ** 2
    return np.exp(-dist)


def _class_prototype(rng: np.random.Generator, channels: int, size: int) -> np.ndarray:
    """Prototype in [0, 1]: strong *luminance* structure plus a color accent.

    The luminance pattern (shared across channels) is what survives the
    paper's augmentation pipeline — grayscale averages channels and color
    jitter is an affine intensity map, but neither destroys spatial
    luminance structure.  A weaker per-channel color accent adds realism
    without carrying the class identity.
    """
    grid = _grid_side(size)
    luminance = _smooth_field(rng.normal(size=(1, 1, grid, grid)), size, sigma=0.8)[0]
    luminance = luminance / (np.abs(luminance).max() + 1e-8)
    figure = _class_figure(rng, size)
    figure_sign = rng.choice([-1.0, 1.0])
    pattern = 0.35 * luminance[0] + 0.45 * figure_sign * figure
    color = rng.uniform(-0.15, 0.15, size=(channels, 1, 1))
    return np.clip(0.5 + pattern[None] + color, 0.0, 1.0)


#: RNG namespace tag for domain-shift draws ("DOM"), so a domain's
#: transform can never collide with another consumer of the same seed.
_DOMAIN_TAG = 0x444F4D


def apply_domain_shift(x: np.ndarray, domain: int, strength: float = 0.5,
                       seed: int = 0) -> np.ndarray:
    """Deterministic nuisance transform defining domain ``domain``.

    A pure function of ``(domain, strength, seed)``: the same inputs give
    the same shifted arrays on every process.  Domain 0 is the identity —
    the reference domain — so a one-domain stream degenerates to the
    unshifted data.  The transforms change *style*, not content:

    - images ``(N, C, H, W)``: a per-domain smooth additive color field
      (the :func:`_smooth_field` generator the prototypes use) plus
      per-channel gains, clipped back to ``[0, 1]``;
    - tabular ``(N, F)``: a per-feature affine map (gain + offset).
    """
    x = np.asarray(x, dtype=np.float32)
    if domain < 0:
        raise ValueError("domain must be >= 0")
    if strength < 0:
        raise ValueError("strength must be >= 0")
    if domain == 0 or strength == 0 or len(x) == 0:
        return x.copy()
    rng = np.random.default_rng([seed, _DOMAIN_TAG, domain])
    if x.ndim == 4:
        _n, channels, height, width = x.shape
        if height != width:
            raise ValueError(f"images must be square, got {x.shape}")
        grid = _grid_side(height)
        field = _smooth_field(rng.normal(size=(1, channels, grid, grid)), height,
                              sigma=1.0)[0]
        gain = 1.0 + 0.3 * strength * rng.uniform(-1.0, 1.0,
                                                  size=(channels, 1, 1))
        shifted = x * gain[None].astype(np.float32)
        shifted = shifted + (0.25 * strength * field)[None].astype(np.float32)
        return np.clip(shifted, 0.0, 1.0).astype(np.float32)
    if x.ndim == 2:
        n_features = x.shape[1]
        gain = 1.0 + 0.3 * strength * rng.uniform(-1.0, 1.0, size=n_features)
        offset = 0.25 * strength * rng.normal(size=n_features)
        return (x * gain + offset).astype(np.float32)
    raise ValueError(f"unsupported data shape {x.shape}")


def make_image_dataset(config: SyntheticImageConfig) -> tuple[ArrayDataset, ArrayDataset]:
    """Generate the (train, test) pair for ``config``.

    Returns
    -------
    (train, test):
        :class:`ArrayDataset` objects with x in [0, 1], shape (N, C, H, W).
    """
    root = np.random.default_rng(config.seed)
    class_seeds = root.integers(0, 2**31 - 1, size=config.n_classes)
    sample_rng = np.random.default_rng(root.integers(0, 2**31 - 1))

    channels, size = config.channels, config.image_size
    prototypes = [_class_prototype(np.random.default_rng(seed), channels, size)
                  for seed in class_seeds]
    grid = _grid_side(size)
    n_coarse = channels * grid * grid

    def draw(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        x = np.empty((len(prototypes), per_class, channels, size, size), dtype=np.float32)
        for label, proto in enumerate(prototypes):
            # Row i holds sample i's draws in the order a per-sample loop
            # makes them: its coarse grid, then its pixel noise.
            z = sample_rng.standard_normal((per_class, n_coarse + channels * size * size))
            instance = _smooth_field(z[:, :n_coarse].reshape(per_class, channels, grid, grid),
                                     size, sigma=0.8)
            # ``0.0 + scale * z`` is how Generator.normal(scale=...) forms
            # its values, so the noise keeps that arithmetic bit for bit.
            noise = 0.0 + config.pixel_noise * z[:, n_coarse:].reshape(instance.shape)
            # float64 until the clip, then one cast to float32.
            x[label] = np.clip(proto + config.intra_class_std * instance + noise, 0.0, 1.0)
        y = np.repeat(np.arange(len(prototypes), dtype=np.int64), per_class)
        return x.reshape(-1, channels, size, size), y

    x_train, y_train = draw(config.train_per_class)
    x_test, y_test = draw(config.test_per_class)
    train = ArrayDataset(x_train, y_train, name=config.name + "-train")
    test = ArrayDataset(x_test, y_test, name=config.name + "-test")
    return train, test
