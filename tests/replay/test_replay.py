"""Tests for replay losses and the noise machinery (Sec. III-B, Table IV)."""

import numpy as np
import pytest

from repro.augment.base import Compose
from repro.replay import (
    CSSReplay,
    DistillReplay,
    NoisyDistillReplay,
    knn_indices,
    make_replay,
    noise_scales,
)
from repro.ssl import DistillationHead, Encoder, SimSiam, build_backbone

NO_AUGMENT = Compose([])


class TestKNNIndices:
    def test_self_is_nearest_when_in_pool(self, rng):
        pool = rng.normal(size=(20, 4))
        idx = knn_indices(pool[:5], pool, k=1)
        np.testing.assert_array_equal(idx[:, 0], np.arange(5))

    def test_shape_and_clipping(self, rng):
        pool = rng.normal(size=(6, 3))
        idx = knn_indices(pool[:2], pool, k=10)
        assert idx.shape == (2, 6)  # k clipped to pool size

    def test_k_zero_raises(self, rng):
        with pytest.raises(ValueError):
            knn_indices(rng.normal(size=(2, 3)), rng.normal(size=(5, 3)), k=0)

    def test_finds_true_neighbours(self):
        pool = np.array([[0.0], [1.0], [10.0], [11.0]])
        idx = knn_indices(np.array([[0.4]]), pool, k=2)
        assert set(idx[0].tolist()) == {0, 1}

    def test_duplicated_pool_rows_rank_as_exact_neighbours(self, rng):
        # the expansion trick ||q||^2 + ||p||^2 - 2 q.p can go slightly
        # negative for identical rows; without clamping, the resulting
        # ordering of zero-distance duplicates is cancellation noise and a
        # distant row can outrank an exact copy
        base = rng.normal(size=(1, 16)) * 1e3
        pool = np.concatenate([
            np.repeat(base, 5, axis=0),   # five exact copies of the query
            base + rng.normal(size=(30, 16)),
        ], axis=0)
        idx = knn_indices(base, pool, k=5)
        assert set(idx[0].tolist()) == {0, 1, 2, 3, 4}

    def test_distances_never_negative_for_identical_data(self, rng):
        # regression guard for the clamp itself: all-duplicate pools must
        # not crash argpartition ordering regardless of magnitude
        row = (rng.normal(size=(1, 8)) * 1e4).astype(np.float64)
        pool = np.repeat(row, 12, axis=0)
        idx = knn_indices(pool, pool, k=3)
        assert idx.shape == (12, 3)
        assert np.all((idx >= 0) & (idx < 12))


class TestNoiseScales:
    def test_k_zero_gives_zero_scales(self, rng):
        reps = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(noise_scales(reps, reps, k=0), np.zeros((5, 4)))
        np.testing.assert_array_equal(noise_scales(reps, reps, k=0, mode="scalar"), np.zeros(5))

    def test_vector_mode_shape(self, rng):
        pool = rng.normal(size=(30, 6))
        scales = noise_scales(pool[:4], pool, k=5)
        assert scales.shape == (4, 6)
        assert (scales >= 0).all()

    def test_scalar_mode_shape(self, rng):
        pool = rng.normal(size=(30, 6))
        scales = noise_scales(pool[:4], pool, k=5, mode="scalar")
        assert scales.shape == (4,)

    def test_unknown_mode_raises(self, rng):
        pool = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            noise_scales(pool, pool, k=3, mode="adaptive")

    def test_tight_neighbourhood_gives_small_scale(self, rng):
        """Samples inside a dense blob get smaller r(x) than isolated ones."""
        blob = rng.normal(scale=0.01, size=(20, 4))
        spread = rng.normal(scale=5.0, size=(20, 4))
        pool = np.concatenate([blob, spread])
        scales = noise_scales(pool, pool, k=5, mode="scalar")
        assert scales[:20].mean() < scales[20:].mean()

    def test_scalar_is_mean_of_vector(self, rng):
        pool = rng.normal(size=(25, 4))
        vector = noise_scales(pool[:3], pool, k=6)
        scalar = noise_scales(pool[:3], pool, k=6, mode="scalar")
        np.testing.assert_allclose(scalar, vector.mean(axis=1), rtol=1e-5)


@pytest.fixture
def replay_setup(rng):
    encoder = Encoder(build_backbone("tiny-conv", rng, image_size=8), 16, rng=rng)
    objective = SimSiam(encoder, rng=rng)
    old = objective.copy()
    old.eval()
    head = DistillationHead(objective, rng=rng)
    batch = rng.uniform(0, 1, size=(6, 3, 8, 8)).astype(np.float32)
    return objective, old, head, batch


class TestReplayLosses:
    def test_factory(self):
        assert make_replay("css").name == "css"
        assert make_replay("dis").name == "dis"
        assert make_replay("rpl").name == "rpl"
        with pytest.raises(KeyError):
            make_replay("prototype")

    def test_css_replay_runs_without_old_model(self, replay_setup, rng):
        objective, _old, _head, batch = replay_setup
        loss = CSSReplay().loss(batch, objective=objective, old_objective=None,
                                head=None, augment=NO_AUGMENT, noise=None, rng=rng)
        assert np.isfinite(loss.item())

    def test_dis_replay_requires_old_model(self, replay_setup, rng):
        objective, _old, head, batch = replay_setup
        with pytest.raises(ValueError):
            DistillReplay().loss(batch, objective=objective, old_objective=None,
                                 head=head, augment=NO_AUGMENT, noise=None, rng=rng)

    def test_dis_replay_backward_flows(self, replay_setup, rng):
        objective, old, head, batch = replay_setup
        loss = DistillReplay().loss(batch, objective=objective, old_objective=old,
                                    head=head, augment=NO_AUGMENT, noise=None, rng=rng)
        loss.backward()
        assert all(p.grad is not None for p in objective.encoder.parameters())

    def test_rpl_requires_noise(self, replay_setup, rng):
        objective, old, head, batch = replay_setup
        with pytest.raises(ValueError):
            NoisyDistillReplay().loss(batch, objective=objective, old_objective=old,
                                      head=head, augment=NO_AUGMENT, noise=None, rng=rng)

    def test_rpl_zero_noise_equals_dis(self, replay_setup):
        """Fig. 6: 0 neighbours (zero scales) makes L_rpl == L_dis."""
        objective, old, head, batch = replay_setup
        objective.eval()
        zero_noise = np.zeros((len(batch), 16), dtype=np.float32)
        rpl = NoisyDistillReplay().loss(batch, objective=objective, old_objective=old,
                                        head=head, augment=NO_AUGMENT, noise=zero_noise,
                                        rng=np.random.default_rng(0))
        dis = DistillReplay().loss(batch, objective=objective, old_objective=old,
                                   head=head, augment=NO_AUGMENT, noise=None,
                                   rng=np.random.default_rng(0))
        assert rpl.item() == pytest.approx(dis.item(), rel=1e-5)

    def test_rpl_accepts_scalar_and_vector_noise(self, replay_setup, rng):
        objective, old, head, batch = replay_setup
        for noise in (np.full(len(batch), 0.1, dtype=np.float32),
                      np.full((len(batch), 16), 0.1, dtype=np.float32)):
            loss = NoisyDistillReplay().loss(batch, objective=objective, old_objective=old,
                                             head=head, augment=NO_AUGMENT, noise=noise, rng=rng)
            assert np.isfinite(loss.item())

    def test_old_model_unchanged_by_replay_training(self, replay_setup, rng):
        from repro.optim import SGD
        objective, old, head, batch = replay_setup
        old_state = old.state_dict()
        opt = SGD(objective.parameters() + head.parameters(), lr=0.1)
        for _ in range(3):
            opt.zero_grad()
            loss = DistillReplay().loss(batch, objective=objective, old_objective=old,
                                        head=head, augment=NO_AUGMENT, noise=None, rng=rng)
            loss.backward()
            opt.step()
        for key, value in old.state_dict().items():
            np.testing.assert_array_equal(value, old_state[key])
