"""Tests for the extension methods (Lin, PFR) and similarity replay sampling."""

import numpy as np
import pytest

from repro.continual import LinContinual, PFR, build_objective, make_method, run_method
from repro.continual.trainer import _build_augment


class TestLin:
    def test_factory_builds(self, tiny_sequence, fast_config, rng):
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        assert make_method("lin", objective, fast_config, rng).name == "lin"

    def test_stores_kmeans_memory(self, tiny_sequence, fast_config, rng):
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        method = LinContinual(objective, fast_config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        assert len(method.buffer) == method.buffer.per_task_quota

    def test_distance_preservation_term_active_after_first_task(self, tiny_sequence,
                                                                 fast_config, rng):
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        method = LinContinual(objective, fast_config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        method.begin_task(tiny_sequence[1], 1, 3)
        x = tiny_sequence[1].train.x[:8]
        v1, v2 = method.augment(x, rng)
        loss = method.batch_loss(v1, v2, x)
        assert np.isfinite(loss.item())
        loss.backward()
        assert all(p.grad is not None for p in objective.encoder.parameters())

    def test_full_run(self, tiny_sequence, fast_config):
        result, _ = run_method("lin", tiny_sequence, fast_config, seed=0)
        assert result.complete


class TestPFR:
    def test_full_run(self, tiny_sequence, fast_config):
        result, _ = run_method("pfr", tiny_sequence, fast_config, seed=0)
        assert result.complete

    def test_distill_bypasses_predictor(self, tiny_sequence, fast_config, rng):
        """PFR's alignment must not touch SimSiam's predictor parameters."""
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        method = PFR(objective, fast_config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[1], 1, 3)
        x = tiny_sequence[1].train.x[:6]
        loss = method._distill(x, objective.representation(x))
        loss.backward()
        predictor_grads = [p.grad for p in objective.predictor.parameters()]
        assert all(g is None for g in predictor_grads)
        head_grads = [p.grad for p in method.head.parameters()]
        assert all(g is not None for g in head_grads)


class TestSimilarityReplayInEDSR:
    def test_full_run_with_similarity_sampling(self, tiny_sequence, fast_config):
        config = fast_config.with_overrides(replay_sampling="similarity")
        result, _ = run_method("edsr", tiny_sequence, config, seed=0)
        assert result.complete

    def test_memory_reps_cached_per_task(self, tiny_sequence, fast_config, rng):
        from repro.continual import EDSR
        config = fast_config.with_overrides(replay_sampling="similarity")
        objective = build_objective(config, tiny_sequence[0].train.x.shape[1:], rng)
        method = EDSR(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        assert method._memory_old_reps is None  # nothing stored yet
        method.end_task(tiny_sequence[0], 0)
        method.begin_task(tiny_sequence[1], 1, 3)
        assert method._memory_old_reps is not None
        assert len(method._memory_old_reps) == len(method.buffer)

    def test_uniform_sampling_skips_cache(self, tiny_sequence, fast_config, rng):
        from repro.continual import EDSR
        objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        method = EDSR(objective, fast_config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        method.begin_task(tiny_sequence[1], 1, 3)
        assert method._memory_old_reps is None
