"""Property-based tests for the data substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import ArrayDataset, DataLoader
from repro.data.splits import class_incremental_split
from repro.data.synthetic import SyntheticImageConfig, make_image_dataset
from repro.data.tabular import TabularConfig, make_tabular_dataset


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 5), st.integers(3, 12), st.integers(0, 1000))
def test_synthetic_images_always_valid(n_classes, per_class, seed):
    config = SyntheticImageConfig(
        n_classes=n_classes, train_per_class=per_class, test_per_class=2,
        image_size=8, seed=seed)
    train, test = make_image_dataset(config)
    assert train.x.shape == (n_classes * per_class, 3, 8, 8)
    assert train.x.min() >= 0.0 and train.x.max() <= 1.0
    assert np.isfinite(train.x).all()
    assert len(np.unique(train.y)) == n_classes
    assert len(test) == n_classes * 2


@settings(max_examples=10, deadline=None)
@given(st.integers(100, 400), st.integers(2, 12),
       st.floats(0.05, 0.5), st.integers(0, 1000))
def test_synthetic_tabular_always_valid(size, n_features, positive_rate, seed):
    config = TabularConfig("t", size=size, n_features=n_features,
                           positive_rate=positive_rate, seed=seed)
    train, test = make_tabular_dataset(config)
    assert len(train) + len(test) == size
    assert train.x.shape[1] == n_features
    assert np.isfinite(train.x).all()
    assert set(np.unique(np.concatenate([train.y, test.y]))) <= {0, 1}


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 30), st.integers(1, 10), st.integers(0, 100))
def test_loader_partitions_dataset_exactly(n, batch_size, seed):
    ds = ArrayDataset(np.arange(n)[:, None].astype(np.float32), np.zeros(n))
    loader = DataLoader(ds, batch_size, rng=np.random.default_rng(seed))
    seen = np.concatenate([x[:, 0] for x, _y in loader])
    np.testing.assert_array_equal(np.sort(seen), np.arange(n))
    assert len(loader) == (n + batch_size - 1) // batch_size


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(6, 2), (6, 3), (6, 6), (12, 4), (12, 3)]), st.integers(0, 50))
def test_split_is_a_partition(shape, seed):
    n_classes, n_tasks = shape
    y = np.repeat(np.arange(n_classes), 4)
    x = np.random.default_rng(seed).normal(size=(len(y), 3)).astype(np.float32)
    train = ArrayDataset(x, y)
    test = ArrayDataset(x.copy(), y.copy())
    sequence = class_incremental_split(train, test, n_tasks,
                                       rng=np.random.default_rng(seed))
    covered = sorted(c for task in sequence for c in task.classes)
    assert covered == list(range(n_classes))
    assert sum(len(task.train) for task in sequence) == len(train)
