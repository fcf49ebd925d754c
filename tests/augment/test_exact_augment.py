"""The vectorized blur, crop and image generator against the per-sample
forms they replaced.

``GaussianBlur`` and ``_smooth_field`` must give the bytes of
``scipy.ndimage.gaussian_filter``, and ``RandomCrop`` and
``make_image_dataset`` the bytes of their old per-sample loops, kept here as
references.  Every augmentation and field case also checks that the
generator's next draw equals the reference's, so the ops draw the same
random numbers in the same order.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.augment import GaussianBlur, RandomCrop
from repro.data.synthetic import (SyntheticImageConfig, _class_prototype, _smooth_field,
                                  make_image_dataset)


def reference_blur(op: GaussianBlur, x, rng):
    """The per-sample scipy loop ``GaussianBlur`` ran before it was vectorized."""
    out = x.copy()
    apply = rng.uniform(size=len(x)) < op.p
    sigmas = rng.uniform(op.sigma[0], op.sigma[1], size=len(x))
    for i in np.nonzero(apply)[0]:
        out[i] = ndimage.gaussian_filter(x[i], sigma=(0, sigmas[i], sigmas[i]))
    return out


def reference_crop(op: RandomCrop, x, rng):
    """The per-sample loop ``RandomCrop`` ran before it was vectorized."""
    if op.padding == 0:
        return x
    p = op.padding
    n, _c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="reflect")
    out = np.empty_like(x)
    offsets = rng.integers(0, 2 * p + 1, size=(n, 2))
    for i in range(n):
        dy, dx = offsets[i]
        out[i] = padded[i, :, dy:dy + h, dx:dx + w]
    return out


def reference_smooth_field(rng, channels, size, grid=4, sigma=1.0):
    """``_smooth_field`` as it was written against scipy."""
    grid = min(grid, size)
    coarse = rng.normal(size=(channels, grid, grid))
    reps = int(np.ceil(size / grid))
    field = np.kron(coarse, np.ones((reps, reps)))[:, :size, :size]
    return ndimage.gaussian_filter(field, sigma=(0, sigma, sigma))


def reference_image_dataset(config: SyntheticImageConfig):
    """``make_image_dataset``'s per-sample loop: ``(train.x, train.y, test.x, test.y)``."""
    root = np.random.default_rng(config.seed)
    class_seeds = root.integers(0, 2**31 - 1, size=config.n_classes)
    sample_rng = np.random.default_rng(root.integers(0, 2**31 - 1))
    prototypes = [_class_prototype(np.random.default_rng(seed), config.channels,
                                   config.image_size) for seed in class_seeds]

    def draw(per_class):
        xs, ys = [], []
        for label, proto in enumerate(prototypes):
            for _ in range(per_class):
                instance = reference_smooth_field(sample_rng, config.channels,
                                                  config.image_size, grid=4, sigma=0.8)
                x = proto + config.intra_class_std * instance
                x = x + sample_rng.normal(scale=config.pixel_noise, size=x.shape)
                xs.append(np.clip(x, 0.0, 1.0))
                ys.append(label)
        return np.asarray(xs, dtype=np.float32), np.asarray(ys, dtype=np.int64)

    return (*draw(config.train_per_class), *draw(config.test_per_class))


def assert_same_bytes_and_draws(op, reference, x, seed):
    """``op`` and ``reference`` agree byte for byte and leave equal generators."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = op(x, rng)
    expected = reference(op, x, ref_rng)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert rng.random() == ref_rng.random()


#: Sigma ranges: below, across and beyond the default (0.1, 1.0), and
#: sigma = 0, which scipy treats as the identity.  At sigma 3 the radius is
#: 12, larger than every image here.
SIGMA_RANGES = [(0.0, 0.0), (0.01, 0.2), (0.1, 1.0), (0.5, 3.0)]


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("sigma", SIGMA_RANGES)
def test_blur_is_byte_equal_to_scipy(sigma, p):
    shapes = np.random.default_rng(1000 * int(10 * p) + SIGMA_RANGES.index(sigma))
    op = GaussianBlur(sigma=sigma, p=p)
    for case in range(30):
        n = int(shapes.integers(1, 13))
        h, w = (int(v) for v in shapes.integers(1, 10, size=2))
        x = shapes.uniform(0.0, 1.0, size=(n, 3, h, w)).astype(np.float32)
        assert_same_bytes_and_draws(op, reference_blur, x, seed=case)


def test_blur_is_byte_equal_to_scipy_on_training_batches():
    """The e2e shape: default sigma and p on (32, 3, 8, 8) float32 batches."""
    images = np.random.default_rng(7)
    op = GaussianBlur()
    for case in range(100):
        x = images.uniform(0.0, 1.0, size=(32, 3, 8, 8)).astype(np.float32)
        assert_same_bytes_and_draws(op, reference_blur, x, seed=case)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 12])
def test_smooth_field_is_byte_equal_to_scipy(size):
    """A batch of fields from one block of normals equals one scipy field per
    sample, each drawing its grid from the generator in turn."""
    params = np.random.default_rng(size)
    grid = min(4, size)
    for case in range(20):
        n = int(params.integers(1, 6))
        channels = int(params.integers(1, 4))
        sigma = float(params.uniform(0.3, 3.0))
        rng, ref_rng = (np.random.default_rng(case), np.random.default_rng(case))
        fields = _smooth_field(rng.normal(size=(n, channels, grid, grid)), size, sigma)
        expected = np.stack([reference_smooth_field(ref_rng, channels, size, grid=4,
                                                    sigma=sigma) for _ in range(n)])
        assert fields.dtype == np.float64
        assert fields.tobytes() == expected.tobytes()
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 12])
def test_image_dataset_is_byte_equal_to_the_per_sample_loop(size):
    params = np.random.default_rng(100 + size)
    for case in range(4):
        config = SyntheticImageConfig(
            n_classes=int(params.integers(1, 4)),
            train_per_class=int(params.integers(1, 6)),
            test_per_class=int(params.integers(1, 4)),
            image_size=size, channels=int(params.integers(1, 4)),
            intra_class_std=float(params.uniform(0.0, 0.8)),
            pixel_noise=float(params.choice([0.0, params.uniform(0.0, 0.1)])),
            seed=case)
        train, test = make_image_dataset(config)
        arrays = (train.x, train.y, test.x, test.y)
        for got, want in zip(arrays, reference_image_dataset(config)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("padding", [0, 1, 2, 4])
def test_crop_is_byte_equal_to_the_per_sample_loop(padding):
    shapes = np.random.default_rng(padding)
    op = RandomCrop(padding=padding)
    for case in range(25):
        n = int(shapes.integers(1, 13))
        # Sizes from 1 up: reflect padding wider than the image repeats.
        h, w = (int(v) for v in shapes.integers(1, 10, size=2))
        x = shapes.uniform(0.0, 1.0, size=(n, 3, h, w)).astype(np.float32)
        assert_same_bytes_and_draws(op, reference_crop, x, seed=case)
