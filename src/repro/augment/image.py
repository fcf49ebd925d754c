"""Image augmentations, vectorized over (N, C, H, W) batches in [0, 1].

These are numpy re-implementations of the torchvision transforms SimSiam
uses; each applies independently per sample in the batch.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.augment.base import Augmentation, Compose
from repro.utils.arrays import sorted_unique


@functools.lru_cache(maxsize=128)
def _pad_index(size: int, pad: int, mode: str) -> np.ndarray:
    """Source index of each position of ``np.pad(..., pad, mode=mode)``.

    Cached and shared between calls, so it is read-only.
    """
    index = np.pad(np.arange(size), pad, mode=mode)
    index.flags.writeable = False
    return index


class RandomCrop(Augmentation):
    """Pad-and-crop: reflect-pad by ``padding`` then crop back at a random offset."""

    def __init__(self, padding: int = 1):
        if padding < 0:
            raise ValueError("padding must be >= 0")
        self.padding = padding

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.padding == 0:
            return x
        p = self.padding
        n, c, h, w = x.shape
        offsets = rng.integers(0, 2 * p + 1, size=(n, 2))
        # One gather: sample i's crop reads the reflect-padded rows and
        # columns starting at its offsets, without building the padded batch.
        rows = _pad_index(h, p, "reflect")[offsets[:, :1] + np.arange(h)]
        cols = _pad_index(w, p, "reflect")[offsets[:, 1:] + np.arange(w)]
        return x[np.arange(n)[:, None, None, None],
                 np.arange(c)[None, :, None, None],
                 rows[:, None, :, None], cols[:, None, None, :]]


class RandomHorizontalFlip(Augmentation):
    def __init__(self, p: float = 0.5):
        self.p = p

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flip = rng.uniform(size=len(x)) < self.p
        out = x.copy()
        out[flip] = out[flip, :, :, ::-1]
        return out


class ColorJitter(Augmentation):
    """Per-sample brightness and contrast jitter (the color part of SimSiam's jitter)."""

    def __init__(self, brightness: float = 0.2, contrast: float = 0.2, p: float = 0.8):
        self.brightness = brightness
        self.contrast = contrast
        self.p = p

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = len(x)
        apply = rng.uniform(size=n) < self.p
        bright = rng.uniform(-self.brightness, self.brightness, size=(n, 1, 1, 1))
        contrast = rng.uniform(1 - self.contrast, 1 + self.contrast, size=(n, 1, 1, 1))
        mean = x.mean(axis=(2, 3), keepdims=True)
        jittered = (x - mean) * contrast + mean + bright
        out = np.where(apply[:, None, None, None], jittered, x)
        return np.clip(out, 0.0, 1.0).astype(x.dtype)


class RandomGrayscale(Augmentation):
    def __init__(self, p: float = 0.2):
        self.p = p

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        apply = rng.uniform(size=len(x)) < self.p
        gray = x.mean(axis=1, keepdims=True)
        gray = np.broadcast_to(gray, x.shape)
        return np.where(apply[:, None, None, None], gray, x).astype(x.dtype)


def _gaussian_taps(sigmas: np.ndarray) -> np.ndarray:
    """Row ``n``: taps ``0..R`` of sample ``n``'s normalized 1-D Gaussian.

    Each kernel is built as ``scipy.ndimage``'s ``_gaussian_kernel1d`` builds
    it (radius ``int(4 * s + 0.5)``), zero past the sample's own radius.  It is
    normalized by the sum of exactly its own ``2r + 1`` taps: numpy's pairwise
    sum groups differently once zeros pad a row, so rows are summed per
    radius.  ``s <= 1e-15`` gives the identity kernel (scipy skips the axis).
    """
    active = sigmas > 1e-15
    radii = np.where(active, (4.0 * sigmas + 0.5).astype(np.int64), 0)
    taps = np.zeros((len(sigmas), radii.max(initial=0) + 1))
    taps[~active, 0] = 1.0
    for radius in sorted_unique(radii[active]):
        rows = np.nonzero(active & (radii == radius))[0]
        offsets = np.arange(-radius, radius + 1)
        s = sigmas[rows, None]
        kernel = np.exp(-0.5 / (s * s) * offsets ** 2)
        kernel = kernel / kernel.sum(axis=1, keepdims=True)
        taps[rows, :radius + 1] = kernel[:, radius:]
    return taps


def _correlate(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """One symmetric-kernel pass along ``axis`` in float64, as scipy's
    ``correlate1d`` computes it: ``x0 * w0``, then ``(left + right) * wj``
    from the outermost tap in, over ``reflect`` borders (numpy's
    ``symmetric``).  A tap past a sample's radius adds ``+0.0``, which
    leaves every value unchanged unless the window is all ``-0.0``."""
    radius = taps.shape[1] - 1
    size = x.shape[axis]
    padded = x.astype(np.float64).take(_pad_index(size, radius, "symmetric"),
                                       axis=axis)
    shape = (-1,) + (1,) * (x.ndim - 1)
    index = [slice(None)] * x.ndim

    def window(start: int) -> np.ndarray:
        index[axis] = slice(start, start + size)
        return padded[tuple(index)]

    out = window(radius) * taps[:, 0].reshape(shape)
    for j in range(radius, 0, -1):
        out += (window(radius - j) + window(radius + j)) * taps[:, j].reshape(shape)
    return out


def gaussian_blur(x: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Blur each (C, H, W) sample of ``x`` over H and W with its own sigma.

    Byte-equal to ``scipy.ndimage.gaussian_filter(x[i], sigma=(0, s, s))``
    per sample: same kernels, same float64 arithmetic in the same order,
    the same ``reflect`` borders, and the H pass rounded to ``x.dtype``
    before the W pass, as scipy stores it.
    """
    taps = _gaussian_taps(np.asarray(sigmas, dtype=np.float64))
    rows = _correlate(x, taps, axis=2).astype(x.dtype)
    return _correlate(rows, taps, axis=3).astype(x.dtype)


class GaussianBlur(Augmentation):
    def __init__(self, sigma: tuple[float, float] = (0.1, 1.0), p: float = 0.5):
        self.sigma = sigma
        self.p = p

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = x.copy()
        apply = rng.uniform(size=len(x)) < self.p
        sigmas = rng.uniform(self.sigma[0], self.sigma[1], size=len(x))
        chosen = np.nonzero(apply)[0]
        out[chosen] = gaussian_blur(x[chosen], sigmas[chosen])
        return out


def simsiam_image_pipeline() -> Compose:
    """The paper's image op set: crop, flip, color jitter, grayscale, blur."""
    return Compose([
        RandomCrop(),
        RandomHorizontalFlip(),
        ColorJitter(),
        RandomGrayscale(),
        GaussianBlur(),
    ])
