"""Tests for the BYOL extension objective."""

import numpy as np
import pytest

from repro.ssl import BYOL, Encoder, build_backbone


@pytest.fixture
def encoder(rng):
    return Encoder(build_backbone("tiny-conv", rng, image_size=8), 16, rng=rng)


@pytest.fixture
def batch(rng):
    return rng.uniform(0, 1, size=(12, 3, 8, 8)).astype(np.float32)


class TestBYOL:
    def test_invalid_tau(self, encoder, rng):
        with pytest.raises(ValueError):
            BYOL(encoder, tau=1.0, rng=rng)

    def test_target_params_not_trainable(self, encoder, rng):
        model = BYOL(encoder, rng=rng)
        trainable_ids = {id(p) for p in model.parameters()}
        target_ids = {id(p) for p in model._target.parameters()}
        assert trainable_ids.isdisjoint(target_ids)

    def test_loss_bounded_for_normalized_mse(self, encoder, batch, rng):
        model = BYOL(encoder, rng=rng)
        loss = model.css_loss(batch, batch)
        # || a - b ||^2 with unit a, b is in [0, 4]
        assert 0.0 <= loss.item() <= 4.0

    def test_momentum_update_moves_target(self, encoder, batch, rng):
        model = BYOL(encoder, tau=0.5, rng=rng)
        for p in model.encoder.parameters():
            p.data = p.data + 1.0
        before = model._target.parameters()[0].data.copy()
        model.momentum_update()
        after = model._target.parameters()[0].data
        assert not np.allclose(before, after)

    def test_tau_one_minus_epsilon_keeps_target_nearly_fixed(self, encoder, rng):
        model = BYOL(encoder, tau=0.999, rng=rng)
        online_first = model.encoder.parameters()[0]
        online_first.data = online_first.data + 10.0
        before = model._target.parameters()[0].data.copy()
        model.momentum_update()
        delta = np.abs(model._target.parameters()[0].data - before).max()
        assert delta <= 10.0 * 0.0011  # (1 - tau) * change

    def test_training_reduces_loss(self, encoder, batch, rng):
        from repro.optim import SGD
        model = BYOL(encoder, tau=0.9, rng=rng)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        first = None
        for _ in range(25):
            opt.zero_grad()
            noise = rng.normal(scale=0.05, size=batch.shape).astype(np.float32)
            loss = model.css_loss(batch, batch + noise)
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first

    def test_align_for_distillation(self, encoder, batch, rng):
        model = BYOL(encoder, rng=rng)
        current = model.representation(batch[:4])
        target = np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32)
        loss = model.align(current, target)
        assert np.isfinite(loss.item())
        loss.backward()
        assert all(p.grad is not None for p in encoder.parameters())

    def test_runs_in_continual_loop(self, tiny_sequence, fast_config):
        from repro.continual import run_method
        config = fast_config.with_overrides(objective="byol")
        result, _ = run_method("edsr", tiny_sequence, config, seed=0)
        assert result.complete
