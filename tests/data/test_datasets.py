"""Tests for dataset containers, loaders, and generators."""

import hashlib

import numpy as np
import pytest

from repro.augment.image import gaussian_blur
from repro.data import IMAGE_PRESETS, ArrayDataset, DataLoader, synthetic
from repro.data.synthetic import SyntheticImageConfig, apply_domain_shift, make_image_dataset
from repro.data.tabular import TABULAR_PRESETS, TabularConfig, make_tabular_dataset


class TestArrayDataset:
    def test_basic_accessors(self):
        ds = ArrayDataset(np.zeros((10, 3)), np.arange(10) % 2, name="d")
        assert len(ds) == 10
        x, y = ds[3]
        assert x.shape == (3,)
        np.testing.assert_array_equal(ds.classes, [0, 1])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 2)), np.zeros(4))

    def test_filter_classes(self):
        ds = ArrayDataset(np.zeros((10, 2)), np.arange(10) % 5)
        filtered = ds.filter_classes([0, 1])
        assert set(filtered.y.tolist()) == {0, 1}
        assert len(filtered) == 4

    def test_concatenate(self):
        a = ArrayDataset(np.zeros((3, 2)), np.zeros(3))
        b = ArrayDataset(np.ones((2, 2)), np.ones(2))
        merged = ArrayDataset.concatenate([a, b])
        assert len(merged) == 5
        assert set(merged.classes.tolist()) == {0, 1}

    def test_concatenate_empty_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset.concatenate([])


class TestDataLoader:
    def _dataset(self, n=25):
        return ArrayDataset(np.arange(n)[:, None].astype(np.float32), np.zeros(n))

    def test_batch_count_keeps_short_batch(self):
        loader = DataLoader(self._dataset(25), 10, rng=np.random.default_rng(0))
        assert len(loader) == 3
        assert [len(x) for x, _y in loader] == [10, 10, 5]

    def test_covers_all_samples_once(self):
        ds = self._dataset(25)
        loader = DataLoader(ds, 10, rng=np.random.default_rng(0))
        seen = np.concatenate([x[:, 0] for x, _y in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(25))

    def test_seeded_shuffle_reproducible(self):
        ds = self._dataset(20)
        def order(seed):
            loader = DataLoader(ds, 20, rng=np.random.default_rng(seed))
            return next(iter(loader))[0][:, 0]
        np.testing.assert_array_equal(order(1), order(1))
        assert not np.array_equal(order(1), order(2))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._dataset(), 0)


class TestEpochSeededShuffle:
    """Regression: with ``seed`` set, the shuffle order is a pure function
    of ``(seed, epoch)`` — never of the rng argument, global numpy state,
    or how many times the loader was iterated before (the property the
    sharded regime's iteration-order stability rests on)."""

    def _dataset(self, n=30):
        return ArrayDataset(np.arange(n)[:, None].astype(np.float32), np.zeros(n))

    def _order(self, loader):
        return np.concatenate([x[:, 0] for x, _y in loader])

    def test_same_seed_epoch_same_order(self):
        ds = self._dataset()
        a = DataLoader(ds, 7, seed=42)
        b = DataLoader(ds, 7, seed=42)
        np.testing.assert_array_equal(self._order(a), self._order(b))

    def test_order_ignores_rng_argument_and_global_state(self):
        ds = self._dataset()
        reference = self._order(DataLoader(ds, 7, seed=42))

        # Deliberate global-stream churn: the point of the test is that the
        # loader's order is immune to it.
        np.random.seed(0)  # repro-lint: disable=DET001
        noisy_rng = np.random.default_rng(777)
        noisy_rng.standard_normal(100)
        loader = DataLoader(ds, 7, rng=noisy_rng, seed=42)
        np.random.standard_normal(50)  # perturb global state mid-flight  # repro-lint: disable=DET001
        np.testing.assert_array_equal(self._order(loader), reference)

    def test_reiteration_does_not_advance_the_order(self):
        # A stateful-rng loader reshuffles every pass; a seeded loader
        # replays the same epoch until told otherwise.
        ds = self._dataset()
        loader = DataLoader(ds, 7, seed=42)
        first = self._order(loader)
        np.testing.assert_array_equal(self._order(loader), first)

        stateful = DataLoader(ds, 7, rng=np.random.default_rng(42))
        assert not np.array_equal(self._order(stateful), self._order(stateful))

    def test_set_epoch_selects_distinct_reproducible_orders(self):
        ds = self._dataset()
        loader = DataLoader(ds, 7, seed=42)
        epoch0 = self._order(loader)
        loader.set_epoch(1)
        epoch1 = self._order(loader)
        assert not np.array_equal(epoch0, epoch1)
        loader.set_epoch(0)
        np.testing.assert_array_equal(self._order(loader), epoch0)

    def test_seeds_are_independent_streams(self):
        ds = self._dataset()
        assert not np.array_equal(self._order(DataLoader(ds, 7, seed=1)),
                                  self._order(DataLoader(ds, 7, seed=2)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DataLoader(self._dataset(), 7, seed=-1)


class TestSyntheticImages:
    CONFIG = SyntheticImageConfig(n_classes=4, train_per_class=15, test_per_class=5,
                                  image_size=8, seed=3, name="t")

    def test_shapes_and_ranges(self):
        train, test = make_image_dataset(self.CONFIG)
        assert train.x.shape == (60, 3, 8, 8)
        assert test.x.shape == (20, 3, 8, 8)
        assert train.x.min() >= 0.0 and train.x.max() <= 1.0
        assert len(train.classes) == 4

    def test_deterministic_per_seed(self):
        a, _ = make_image_dataset(self.CONFIG)
        b, _ = make_image_dataset(self.CONFIG)
        np.testing.assert_array_equal(a.x, b.x)

    def test_different_seeds_differ(self):
        from dataclasses import replace
        a, _ = make_image_dataset(self.CONFIG)
        b, _ = make_image_dataset(replace(self.CONFIG, seed=99))
        assert not np.allclose(a.x, b.x)

    def test_classes_are_separable_in_pixels(self):
        """Nearest-centroid in pixel space must beat chance by a wide margin:
        the continual benchmark is meaningless if classes are not learnable."""
        train, test = make_image_dataset(self.CONFIG)
        centroids = np.stack([train.x[train.y == c].reshape(-1, 192).mean(axis=0)
                              for c in train.classes])
        flat = test.x.reshape(len(test), -1)
        d2 = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        accuracy = (train.classes[d2.argmin(axis=1)] == test.y).mean()
        assert accuracy > 0.6  # chance is 0.25

    def test_intra_class_std_controls_difficulty(self):
        from dataclasses import replace
        easy_train, easy_test = make_image_dataset(replace(self.CONFIG, intra_class_std=0.05))
        hard_train, hard_test = make_image_dataset(replace(self.CONFIG, intra_class_std=0.8))

        def centroid_accuracy(train, test):
            centroids = np.stack([train.x[train.y == c].reshape(-1, 192).mean(axis=0)
                                  for c in train.classes])
            flat = test.x.reshape(len(test), -1)
            d2 = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            return (train.classes[d2.argmin(axis=1)] == test.y).mean()

        assert centroid_accuracy(easy_train, easy_test) > centroid_accuracy(hard_train, hard_test)


def _digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


#: name -> (config, sha256 of train.x, train.y, test.x, test.y).  Every run,
#: golden pin and e2e digest starts from these bytes, so a faster generator
#: must reproduce them exactly.
DATA_DIGESTS = {
    "cifar10-like": (IMAGE_PRESETS["cifar10-like"]["ci"].config,
                     "d86838e5c51b2ac2ce9618409a4b3530d5096a68403a6ec58434ebaca8455a6e"),
    "cifar100-like": (IMAGE_PRESETS["cifar100-like"]["ci"].config,
                      "9e0021549026aae0ffef5ed8e10dca545464d796d9a11934b7233173e629011f"),
    "tiny-imagenet-like": (IMAGE_PRESETS["tiny-imagenet-like"]["ci"].config,
                           "e707923f8600b719bf7238e26ef60d20787e53ca83b8b000925fbaddcec0f9b8"),
    "domainnet-like": (IMAGE_PRESETS["domainnet-like"]["ci"].config,
                       "b891f4b276c33045300dd660272adf4a29a1174958fc6065bc2ce600be9eddb8"),
    # conftest.tiny_sequence's config.
    "tiny": (SyntheticImageConfig(n_classes=6, train_per_class=20, test_per_class=10,
                                  image_size=8, seed=7, name="tiny"),
             "2e20403985fad8bcb97a4b9836c1b3e08ad99fcaeb023caf03942e90081e27fc"),
    # The 4-grid does not divide the image size.
    "size-10": (SyntheticImageConfig(image_size=10, n_classes=3, train_per_class=4,
                                     test_per_class=2, seed=3),
                "61c2076cb0de1d77e2a55f32a6092727d671286f0dd0f2f08c986c0cb6e834d4"),
    "gray-32": (SyntheticImageConfig(image_size=32, channels=1, n_classes=2,
                                     train_per_class=3, test_per_class=2, seed=5),
                "86570cc96dd77b15ef216adf1c1998219a5b72b09bf1ba766c1c889aee257382"),
}

#: domain -> sha256 of apply_domain_shift(cifar10-like/ci test.x, domain).
SHIFT_DIGESTS = {
    1: "c8d1af76bce3e5146bdfdfcc76923012b0d3564d9a9d54b25bfbdcc9e79b7e41",
    2: "d70080e5eb6d05b417a433297369a07114ab46cb0bb1709b08cd29e4d4322dd6",
}


class TestSyntheticImageBytes:
    @pytest.mark.parametrize("name", sorted(DATA_DIGESTS))
    def test_generated_bytes_are_pinned(self, name):
        config, expected = DATA_DIGESTS[name]
        train, test = make_image_dataset(config)
        assert _digest(train.x, train.y, test.x, test.y) == expected

    @pytest.mark.parametrize("domain", sorted(SHIFT_DIGESTS))
    def test_domain_shift_bytes_are_pinned(self, domain):
        _train, test = make_image_dataset(IMAGE_PRESETS["cifar10-like"]["ci"].config)
        assert _digest(apply_domain_shift(test.x, domain)) == SHIFT_DIGESTS[domain]

    def test_generation_blurs_in_blocks_not_per_sample(self, monkeypatch):
        """One blur per prototype and per (class, split): a per-sample loop
        makes 1,010 calls on this preset."""
        calls = []

        def counting_blur(x, sigmas):
            calls.append(len(x))
            return gaussian_blur(x, sigmas)

        monkeypatch.setattr(synthetic, "gaussian_blur", counting_blur)
        config = IMAGE_PRESETS["cifar10-like"]["ci"].config
        make_image_dataset(config)
        assert len(calls) <= 3 * config.n_classes
        assert sum(calls) == config.n_classes * (
            1 + config.train_per_class + config.test_per_class)


class TestSyntheticTabular:
    def test_preset_shapes_match_table2(self):
        """Feature counts and positive rates from Table II of the paper."""
        assert TABULAR_PRESETS["bank"].n_features == 16
        assert TABULAR_PRESETS["income"].n_features == 14
        assert TABULAR_PRESETS["shrutime"].positive_rate == pytest.approx(0.2037)
        assert TABULAR_PRESETS["blastchar"].size == 7043

    def test_generated_shape_and_split(self):
        config = TabularConfig("t", size=500, n_features=8, positive_rate=0.2, seed=0)
        train, test = make_tabular_dataset(config)
        assert len(train) + len(test) == 500
        assert len(test) == 100  # 20% split, Sec. IV-A1
        assert train.x.shape[1] == 8

    def test_positive_rate_approximate(self):
        config = TabularConfig("t", size=4000, n_features=8, positive_rate=0.25, seed=1)
        train, test = make_tabular_dataset(config)
        overall = np.concatenate([train.y, test.y]).mean()
        assert abs(overall - 0.25) < 0.03

    def test_standardized_features(self):
        config = TabularConfig("t", size=1000, n_features=6, positive_rate=0.3, seed=2)
        train, test = make_tabular_dataset(config)
        full = np.concatenate([train.x, test.x])
        np.testing.assert_allclose(full.mean(axis=0), 0.0, atol=0.01)
        np.testing.assert_allclose(full.std(axis=0), 1.0, atol=0.01)

    def test_classes_linearly_separable_above_chance(self):
        config = TabularConfig("t", size=2000, n_features=10, positive_rate=0.3,
                               class_separation=2.0, seed=3)
        train, test = make_tabular_dataset(config)
        # nearest class-mean classifier
        mu0 = train.x[train.y == 0].mean(axis=0)
        mu1 = train.x[train.y == 1].mean(axis=0)
        pred = (np.linalg.norm(test.x - mu1, axis=1)
                < np.linalg.norm(test.x - mu0, axis=1)).astype(int)
        accuracy = (pred == test.y).mean()
        assert accuracy > 0.75
