"""Tests for the streaming ridge probe and its mergeable statistics.

The load-bearing property is the merge contract: shard-partial sufficient
statistics combine along the fixed binary reduction tree, so any contiguous
split of the block sequence into any number of shards — merged in any
order — is bit-for-bit identical to the single-pass accumulation, and both
equal :func:`repro.eval.ridge.tree_reduce` over the per-block
contributions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import KNNClassifier, LinearProbe, RidgeProbe, RidgeStatistics
from repro.eval.protocol import make_probe, probe_names, register_probe
from repro.eval.ridge import tree_reduce
from repro.utils.rng import fallback_rng


def _blobs(rng, n, dim=6, n_classes=3, spread=4.0):
    centers = spread * rng.normal(size=(n_classes, dim))
    labels = rng.integers(0, n_classes, size=n)
    return (centers[labels] + rng.normal(size=(n, dim))).astype(np.float32), labels


def _block_contribution(x, y, classes):
    """Reference single-block ``(A, B)`` matching RidgeStatistics.update."""
    x_aug = np.concatenate([np.asarray(x, dtype=np.float64),
                            np.ones((len(x), 1), dtype=np.float64)], axis=1)
    onehot = np.zeros((len(x), classes.size), dtype=np.float64)
    onehot[np.arange(len(x)), np.searchsorted(classes, y)] = 1.0
    return onehot.T @ x_aug, x_aug.T @ x_aug


def _block_values(seed: int, n_blocks: int, shape: tuple[int, ...]):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)).astype(np.float32)
            for _ in range(n_blocks)]


class TestTreeReduce:
    @given(seed=st.integers(0, 2 ** 32 - 1), n_blocks=st.integers(3, 12))
    @settings(max_examples=30)
    def test_reduction_order_is_load_bearing(self, seed, n_blocks):
        """Float addition is not associative: the fixed tree exists because
        a left-fold over the same values is allowed to differ in the last
        ulps.  (Equality is permitted — just never required.)"""
        values = _block_values(seed, n_blocks, (64,))
        tree = tree_reduce(values)
        fold = values[0]
        for value in values[1:]:
            fold = fold + value
        # Cancellation makes plain rtol misleading: summands span 10**+-3,
        # so an element near zero carries rounding error relative to the
        # *inputs*, not to itself.  Tolerate error scaled to input magnitude.
        atol = 1e-4 * float(np.max(np.abs(values)))
        np.testing.assert_allclose(tree, fold, rtol=1e-3, atol=atol)

    def test_reduce_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            tree_reduce([])


class TestRidgeStatistics:
    def test_single_pass_equals_tree_reduce_over_blocks(self, rng):
        x, y = _blobs(rng, 90)
        classes = np.unique(y)
        blocks = [(x[s:s + 16], y[s:s + 16]) for s in range(0, len(x), 16)]
        stats = RidgeStatistics(x.shape[1], classes)
        for bx, by in blocks:
            stats.update(bx, by)
        a, b = stats.reduced()
        contribs = [_block_contribution(bx, by, classes) for bx, by in blocks]
        np.testing.assert_array_equal(a, tree_reduce([c[0] for c in contribs]))
        np.testing.assert_array_equal(b, tree_reduce([c[1] for c in contribs]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_blocks=st.integers(1, 12))
    def test_merge_equals_single_pass_bit_for_bit(self, data, n_blocks):
        """Any contiguous split, any merge order == the single pass."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        sizes = [data.draw(st.integers(1, 7)) for _ in range(n_blocks)]
        x, y = _blobs(rng, sum(sizes))
        classes = np.unique(y)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        blocks = [(x[s:e], y[s:e]) for s, e in zip(offsets, offsets[1:])]

        single = RidgeStatistics(x.shape[1], classes)
        for bx, by in blocks:
            single.update(bx, by)
        a_single, b_single = single.reduced()

        n_cuts = data.draw(st.integers(0, n_blocks - 1))
        cuts = sorted(data.draw(
            st.lists(st.integers(1, n_blocks - 1), min_size=n_cuts,
                     max_size=n_cuts, unique=True))) if n_blocks > 1 else []
        bounds = [0] + cuts + [n_blocks]
        shards = []
        for start, stop in zip(bounds, bounds[1:]):
            shard = RidgeStatistics(x.shape[1], classes, start_block=start)
            for bx, by in blocks[start:stop]:
                shard.update(bx, by)
            shards.append(shard)
        order = data.draw(st.permutations(range(len(shards))))
        merged = shards[order[0]]
        for index in order[1:]:
            merged = merged.merge(shards[index])
        a_merged, b_merged = merged.reduced()
        np.testing.assert_array_equal(a_single, a_merged)
        np.testing.assert_array_equal(b_single, b_merged)
        assert merged.n_samples == len(x)
        assert merged.n_blocks == n_blocks

    def test_update_validates(self, rng):
        stats = RidgeStatistics(4, np.array([0, 1]))
        with pytest.raises(ValueError, match="shape"):
            stats.update(np.zeros((3, 5)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="length mismatch"):
            stats.update(np.zeros((3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="at least one sample"):
            stats.update(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="class universe"):
            stats.update(np.zeros((2, 4)), np.array([0, 7]))

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            RidgeStatistics(0, np.array([0]))
        with pytest.raises(ValueError):
            RidgeStatistics(4, np.array([]))
        with pytest.raises(ValueError):
            RidgeStatistics(4, np.array([0]), start_block=-1)

    def test_merge_rejects_overlap_and_mismatch(self, rng):
        x, y = _blobs(rng, 20)
        classes = np.unique(y)
        a = RidgeStatistics(x.shape[1], classes)
        a.update(x[:10], y[:10])
        b = RidgeStatistics(x.shape[1], classes)  # same block 0
        b.update(x[10:], y[10:])
        with pytest.raises(ValueError, match="overlapping"):
            a.merge(b)
        with pytest.raises(ValueError, match="dim mismatch"):
            a.merge(RidgeStatistics(x.shape[1] + 1, classes))
        with pytest.raises(ValueError, match="class universe mismatch"):
            a.merge(RidgeStatistics(x.shape[1], np.array([0, 1, 2, 3])))
        with pytest.raises(TypeError):
            a.merge(object())

    def test_reduced_rejects_gaps(self, rng):
        x, y = _blobs(rng, 20)
        classes = np.unique(y)
        stats = RidgeStatistics(x.shape[1], classes)
        stats.update(x[:10], y[:10])
        gap = RidgeStatistics(x.shape[1], classes, start_block=5)
        gap.update(x[10:], y[10:])
        with pytest.raises(ValueError, match="gap"):
            stats.merge(gap).reduced()
        with pytest.raises(ValueError, match="no blocks"):
            RidgeStatistics(x.shape[1], classes).reduced()

    def test_class_counts(self, rng):
        x, y = _blobs(rng, 60)
        stats = RidgeStatistics(x.shape[1], np.unique(y))
        stats.update(x, y)
        np.testing.assert_array_equal(stats.class_counts(),
                                      np.bincount(y, minlength=3))


class TestRidgeSolve:
    def test_grid_matches_direct_solve(self, rng):
        """Eigendecomposition reuse gives the same W as a per-λ solve."""
        x, y = _blobs(rng, 80, dim=5)
        stats = RidgeStatistics(5, np.unique(y))
        stats.update(x, y)
        a, b = stats.reduced()
        m = stats._standardizer(b)
        a_std, b_std = a @ m, m.T @ b @ m
        lambdas = [1e-3, 1.0, 50.0]
        for lam, w in zip(lambdas, stats.solve_grid(lambdas)):
            w_ref = np.linalg.solve(
                (b_std + lam * np.eye(b.shape[0])).T, a_std.T).T @ m.T
            np.testing.assert_allclose(w, w_ref, rtol=1e-8, atol=1e-10)

    def test_grid_entry_identical_to_single_solve(self, rng):
        """λ-grid reuse is exact: a grid entry equals the lone solve."""
        x, y = _blobs(rng, 50, dim=4)
        stats = RidgeStatistics(4, np.unique(y))
        stats.update(x, y)
        grid = stats.solve_grid([0.1, 10.0])
        np.testing.assert_array_equal(grid[0], stats.solve(0.1))
        np.testing.assert_array_equal(grid[1], stats.solve(10.0))

    def test_solve_validates(self, rng):
        x, y = _blobs(rng, 30, dim=4)
        stats = RidgeStatistics(4, np.unique(y))
        stats.update(x, y)
        with pytest.raises(ValueError, match="non-empty"):
            stats.solve_grid([])
        with pytest.raises(ValueError, match=">= 0"):
            stats.solve(-1.0)


class TestRidgeProbe:
    def test_separable_clusters_learned(self, rng):
        train = np.concatenate([rng.normal(size=(40, 6)),
                                4.0 + rng.normal(size=(40, 6))])
        labels = np.array([0] * 40 + [1] * 40)
        probe = RidgeProbe().fit(train, labels)
        test = np.concatenate([rng.normal(size=(10, 6)),
                               4.0 + rng.normal(size=(10, 6))])
        assert probe.accuracy(test, [0] * 10 + [1] * 10) > 0.9
        assert probe.lambda_ in probe.lambdas

    def test_agrees_with_sgd_probe_on_synthetic_blobs(self, rng):
        """Closed form vs 50-epoch Adam: within one accuracy point."""
        x, y = _blobs(rng, 300, dim=16, n_classes=4, spread=1.2)
        test_x, test_y = _blobs(np.random.default_rng(99), 150, dim=16,
                                n_classes=4, spread=1.2)
        # same centers required: regenerate both splits from one stream
        rng2 = np.random.default_rng(5)
        centers = 1.2 * rng2.normal(size=(4, 16))
        y = rng2.integers(0, 4, size=400)
        x = (centers[y] + rng2.normal(size=(400, 16))).astype(np.float32)
        train_x, train_y, test_x, test_y = x[:300], y[:300], x[300:], y[300:]
        sgd = LinearProbe(rng=fallback_rng(3)).fit(train_x, train_y)
        ridge = RidgeProbe().fit(train_x, train_y)
        delta = abs(sgd.accuracy(test_x, test_y) - ridge.accuracy(test_x, test_y))
        assert delta <= 0.01

    def test_non_contiguous_labels(self, rng):
        train = np.concatenate([rng.normal(size=(20, 3)),
                                5.0 + rng.normal(size=(20, 3))])
        labels = np.array([7] * 20 + [42] * 20)
        predictions = RidgeProbe().fit(train, labels).predict(train)
        assert set(predictions.tolist()) <= {7, 42}

    def test_single_class(self, rng):
        x = rng.normal(size=(10, 4))
        probe = RidgeProbe().fit(x, np.full(10, 3))
        np.testing.assert_array_equal(probe.predict(rng.normal(size=(5, 4))),
                                      np.full(5, 3))

    def test_tiny_input_skips_validation_split(self, rng):
        probe = RidgeProbe().fit(rng.normal(size=(2, 3)), np.array([0, 1]))
        assert probe.lambda_ == probe.lambdas[0]

    def test_back_to_back_fits_identical(self, rng):
        x, y = _blobs(rng, 60)
        probe = RidgeProbe()
        first = probe.fit(x, y)._weights.copy()
        second = probe.fit(x, y)._weights
        np.testing.assert_array_equal(first, second)

    def test_fit_statistics_from_merged_shards(self, rng):
        x, y = _blobs(rng, 64, dim=5)
        classes = np.unique(y)
        left = RidgeStatistics(5, classes)
        left.update(x[:32], y[:32])
        right = RidgeStatistics(5, classes, start_block=1)
        right.update(x[32:], y[32:])
        probe = RidgeProbe().fit_statistics(left.merge(right), lam=1.0)
        assert probe.lambda_ == 1.0
        assert probe.accuracy(x, y) > 0.9

    def test_validates(self, rng):
        with pytest.raises(RuntimeError):
            RidgeProbe().predict(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            RidgeProbe().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            RidgeProbe().fit(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            RidgeProbe().fit(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            RidgeProbe(lambdas=[])
        with pytest.raises(ValueError):
            RidgeProbe(block_size=0)


class TestProbeRegistry:
    def test_names_and_types(self):
        assert probe_names() == ["knn", "linear", "ridge"]
        assert isinstance(make_probe("knn", knn_k=7), KNNClassifier)
        assert isinstance(make_probe("linear"), LinearProbe)
        assert isinstance(make_probe("ridge"), RidgeProbe)
        assert make_probe("knn", knn_k=7).k == 7

    def test_unknown_probe_raises(self):
        with pytest.raises(ValueError, match="unknown probe"):
            make_probe("mlp")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_probe("knn", lambda **kwargs: None)

    @pytest.mark.parametrize("probe", ["knn", "linear", "ridge"])
    def test_evaluate_task_accepts_every_probe(self, probe, tiny_sequence,
                                               fast_config, rng):
        from repro.continual import build_objective
        from repro.eval.protocol import evaluate_task
        objective = build_objective(fast_config,
                                    tiny_sequence[0].train.x.shape[1:], rng)
        accuracy = evaluate_task(objective, tiny_sequence[0], knn_k=5,
                                 probe=probe)
        assert 0.0 <= accuracy <= 1.0

    def test_config_rejects_unknown_probe(self):
        from repro.continual import ContinualConfig
        with pytest.raises(ValueError, match="unknown probe"):
            ContinualConfig(probe="nearest-centroid")

    def test_result_probe_metadata_round_trips(self, tmp_path):
        from repro.eval import ContinualResult
        from repro.utils.serialization import load_result, save_result
        result = ContinualResult(2, name="edsr", probe="ridge")
        result.record_row([0.5])
        state = result.state_dict()
        assert state["probe"] == "ridge"
        restored = ContinualResult(2)
        restored.load_state_dict(state)
        assert restored.probe == "ridge"
        # legacy checkpoint states (pre-registry) default to knn
        del state["probe"]
        restored.load_state_dict(state)
        assert restored.probe == "knn"
        save_result(result, tmp_path / "r.json")
        assert load_result(tmp_path / "r.json").probe == "ridge"
