"""Tests for image and tabular augmentation pipelines."""

import numpy as np
import pytest

from repro.augment import (
    ColorJitter,
    Compose,
    GaussianBlur,
    RandomCrop,
    RandomGrayscale,
    RandomHorizontalFlip,
    TabularCrop,
    TwoViewAugment,
    simsiam_image_pipeline,
    tabular_pipeline,
)


@pytest.fixture
def images(rng):
    return rng.uniform(0, 1, size=(8, 3, 8, 8)).astype(np.float32)


class TestImageOps:
    def test_crop_preserves_shape(self, images, rng):
        out = RandomCrop(padding=2)(images, rng)
        assert out.shape == images.shape

    def test_crop_zero_padding_is_identity(self, images, rng):
        np.testing.assert_array_equal(RandomCrop(padding=0)(images, rng), images)

    def test_crop_negative_padding_raises(self):
        with pytest.raises(ValueError):
            RandomCrop(padding=-1)

    def test_flip_p1_reverses_width(self, images, rng):
        out = RandomHorizontalFlip(p=1.0)(images, rng)
        np.testing.assert_array_equal(out, images[:, :, :, ::-1])

    def test_flip_p0_is_identity(self, images, rng):
        np.testing.assert_array_equal(RandomHorizontalFlip(p=0.0)(images, rng), images)

    def test_flip_is_involution(self, images, rng):
        flip = RandomHorizontalFlip(p=1.0)
        np.testing.assert_array_equal(flip(flip(images, rng), rng), images)

    def test_color_jitter_stays_in_range(self, images, rng):
        out = ColorJitter(brightness=0.5, contrast=0.5, p=1.0)(images, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.dtype == images.dtype

    def test_color_jitter_p0_identity(self, images, rng):
        np.testing.assert_allclose(ColorJitter(p=0.0)(images, rng), images)

    def test_grayscale_equalizes_channels(self, images, rng):
        out = RandomGrayscale(p=1.0)(images, rng)
        np.testing.assert_allclose(out[:, 0], out[:, 1])
        np.testing.assert_allclose(out[:, 1], out[:, 2])

    def test_blur_reduces_variance(self, images, rng):
        out = GaussianBlur(sigma=(2.0, 2.0), p=1.0)(images, rng)
        assert out.var() < images.var()

    def test_blur_preserves_mean(self, images, rng):
        out = GaussianBlur(sigma=(1.0, 1.0), p=1.0)(images, rng)
        np.testing.assert_allclose(out.mean(), images.mean(), atol=0.02)


class TestComposition:
    def test_identity(self, images, rng):
        np.testing.assert_array_equal(Compose([])(images, rng), images)

    def test_compose_applies_in_order(self, images, rng):
        # flip then flip = identity; crop(0) is identity too
        pipeline = Compose([RandomHorizontalFlip(1.0), RandomHorizontalFlip(1.0), RandomCrop(0)])
        np.testing.assert_array_equal(pipeline(images, rng), images)

    def test_simsiam_pipeline_shape_and_range(self, images, rng):
        out = simsiam_image_pipeline()(images, rng)
        assert out.shape == images.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_two_views_differ(self, images, rng):
        two = TwoViewAugment(simsiam_image_pipeline())
        v1, v2 = two(images, rng)
        assert v1.shape == images.shape
        assert not np.allclose(v1, v2)

    def test_does_not_mutate_input(self, images, rng):
        original = images.copy()
        simsiam_image_pipeline()(images, rng)
        np.testing.assert_array_equal(images, original)


class TestTabularCrop:
    @pytest.fixture
    def table(self, rng):
        return rng.normal(size=(50, 6)).astype(np.float32)

    def test_requires_fit(self, table, rng):
        with pytest.raises(RuntimeError):
            TabularCrop(0.3)(table, rng)

    def test_corrupts_expected_fraction(self, table, rng):
        crop = TabularCrop(0.5, reference=table)
        out = crop(table, rng)
        changed = (out != table).mean()
        assert 0.3 < changed < 0.6  # ~0.5 minus accidental equal draws

    def test_zero_rate_is_identity(self, table, rng):
        crop = TabularCrop(0.0, reference=table)
        np.testing.assert_array_equal(crop(table, rng), table)

    def test_replacement_values_from_marginals(self, table, rng):
        """Corrupted cells must hold values present in the same column."""
        crop = TabularCrop(1.0, reference=table)
        out = crop(table[:5], rng)
        for col in range(table.shape[1]):
            assert np.isin(out[:, col], table[:, col]).all()

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            TabularCrop(1.5)

    def test_pipeline_factory(self, table, rng):
        pipe = tabular_pipeline(table, corruption_rate=0.3)
        out = pipe(table, rng)
        assert out.shape == table.shape
