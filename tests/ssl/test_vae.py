"""Tests for the VAE objective and generative replay."""

import numpy as np
import pytest

from repro.continual import ContinualConfig, build_objective, make_method, run_method
from repro.continual.generative import GenerativeReplay
from repro.optim import Adam
from repro.ssl.vae import VAE, VAEObjective
from repro.tensor import Tensor


@pytest.fixture
def vae(rng):
    return VAE(input_dim=48, latent_dim=8, hidden_dim=32, rng=rng)


@pytest.fixture
def batch(rng):
    return rng.uniform(0, 1, size=(16, 48)).astype(np.float32)


class TestVAE:
    def test_encode_decode_shapes(self, vae, batch):
        mu, logvar = vae.encode(Tensor(batch))
        assert mu.shape == (16, 8)
        assert logvar.shape == (16, 8)
        recon = vae.decode(mu)
        assert recon.shape == (16, 48)
        assert (recon.numpy() >= 0).all() and (recon.numpy() <= 1).all()

    def test_elbo_finite_and_backpropable(self, vae, batch, rng):
        loss = vae.elbo_loss(Tensor(batch), rng)
        assert np.isfinite(loss.item())
        loss.backward()
        assert all(p.grad is not None for p in vae.parameters())

    def test_elbo_accepts_image_shapes(self, vae, rng):
        images = rng.uniform(0, 1, size=(4, 3, 4, 4)).astype(np.float32)
        loss = vae.elbo_loss(Tensor(images), rng)
        assert np.isfinite(loss.item())

    def test_training_reduces_elbo(self, vae, batch, rng):
        optimizer = Adam(vae.parameters(), lr=5e-3)
        first = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = vae.elbo_loss(Tensor(batch), rng, kl_weight=0.1)
            loss.backward()
            optimizer.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first

    def test_sample_shape_and_range(self, vae, rng):
        samples = vae.sample(5, rng)
        assert samples.shape == (5, 48)
        assert (samples >= 0).all() and (samples <= 1).all()


class TestVAEObjective:
    def test_representation_is_posterior_mean(self, batch, rng):
        objective = VAEObjective(48, 8, rng=rng)
        reps = objective.representation(batch)
        mu, _logvar = objective.vae.encode(Tensor(batch))
        np.testing.assert_allclose(reps.numpy(), mu.numpy(), rtol=1e-5)

    def test_parameters_not_duplicated(self, rng):
        objective = VAEObjective(48, 8, rng=rng)
        ids = [id(p) for p in objective.parameters()]
        assert len(ids) == len(set(ids))
        assert len(ids) == len(objective.vae.parameters())

    def test_build_objective_vae_route(self, rng):
        config = ContinualConfig(objective="vae", representation_dim=8)
        objective = build_objective(config, (3, 4, 4), rng)
        assert isinstance(objective, VAEObjective)
        assert objective.representation_dim == 8


class TestGenerativeReplay:
    def test_requires_vae_objective(self, tiny_sequence, fast_config, rng):
        cssl = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
        with pytest.raises(TypeError):
            GenerativeReplay(cssl, fast_config, rng)

    def test_factory_and_full_run(self, tiny_sequence, fast_config):
        config = fast_config.with_overrides(objective="vae", optimizer="adam", lr=1e-3)
        result, _ = run_method("curl", tiny_sequence, config, seed=0)
        assert result.complete

    def test_replay_term_uses_old_decoder(self, tiny_sequence, fast_config, rng):
        config = fast_config.with_overrides(objective="vae", optimizer="adam", lr=1e-3)
        objective = build_objective(config, tiny_sequence[0].train.x.shape[1:], rng)
        method = make_method("curl", objective, config, rng)
        from repro.continual.trainer import _build_augment
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        assert method.old_objective is None
        method.begin_task(tiny_sequence[1], 1, 3)
        assert method.old_objective is not None
        x = tiny_sequence[1].train.x[:6]
        v1, v2 = method.augment(x, rng)
        loss = method.batch_loss(v1, v2, x)
        assert np.isfinite(loss.item())
