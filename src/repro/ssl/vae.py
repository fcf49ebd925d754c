"""Variational autoencoder objective — the pre-CSSL unsupervised family.

The paper's introduction positions CSSL-based UCL against the earlier
VAE-based UCL methods (VASE, CURL) and argues they "show a significant drop
in performance on complex data sets".  This module implements the VAE
substrate needed to *test* that claim: an MLP encoder/decoder VAE exposed
through the :class:`~repro.ssl.base.CSSLObjective` interface, so the
continual trainer, KNN evaluation, and method zoo all work unchanged.

- ``representation(x)`` returns the posterior mean ``mu`` (the standard
  VAE evaluation representation);
- ``css_loss(x1, x2)`` is the ELBO of the first augmented view (VAEs take a
  single view; the second is ignored);
- ``VAE.sample(n, rng)`` decodes prior samples — the primitive
  generative-replay methods (CURL-style) build on.
"""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.ssl.base import CSSLObjective
from repro.ssl.encoder import Encoder
from repro.tensor import engine, ops
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import fallback_rng


class VAE(Module):
    """MLP VAE on flattened inputs in [0, 1].

    Parameters
    ----------
    input_dim:
        Flattened sample width.
    latent_dim:
        Size of the latent (and evaluation-representation) space.
    hidden_dim:
        Width of the single hidden layer of encoder and decoder.
    """

    def __init__(self, input_dim: int, latent_dim: int, hidden_dim: int = 128,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or fallback_rng()
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.encoder = MLP([input_dim, hidden_dim], batch_norm=False,
                           final_activation=True, rng=rng)
        self.mu_head = Linear(hidden_dim, latent_dim, rng=rng)
        self.logvar_head = Linear(hidden_dim, latent_dim, rng=rng)
        self.decoder = MLP([latent_dim, hidden_dim, input_dim], batch_norm=False, rng=rng)

    def encode(self, x: Tensor) -> tuple[Tensor, Tensor]:
        hidden = self.encoder(x)
        return self.mu_head(hidden), self.logvar_head(hidden)

    def decode(self, z: Tensor) -> Tensor:
        return ops.sigmoid(self.decoder(z))

    def elbo_loss(self, x: Tensor, rng: np.random.Generator,
                  kl_weight: float = 1.0) -> Tensor:
        """Negative ELBO: MSE reconstruction + KL(q(z|x) || N(0, I))."""
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        cap = engine.active_capture()
        if cap is not None:
            cap.mark_unsafe("the VAE reparameterization draws fresh noise "
                            "every step; a tape would replay a frozen sample")
        mu, logvar = self.encode(x)
        epsilon = Tensor(rng.standard_normal(size=mu.shape).astype(np.float32))
        z = mu + ops.exp(logvar * 0.5) * epsilon
        reconstruction = self.decode(z)
        recon_loss = ((reconstruction - x) ** 2).sum(axis=1).mean()
        kl = (-0.5 * (1.0 + logvar - mu * mu - ops.exp(logvar)).sum(axis=1)).mean()
        return recon_loss + kl_weight * kl

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Decode ``n`` prior samples (no gradient)."""
        with no_grad():
            z = Tensor(rng.standard_normal(size=(n, self.latent_dim)).astype(np.float32))
            return self.decode(z).numpy()


class _LatentMeanEncoder(Module):
    """Adapter: exposes the VAE posterior mean as an Encoder-like module."""

    def __init__(self, vae: VAE):
        super().__init__()
        self.vae = vae
        self.output_dim = vae.latent_dim

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        mu, _logvar = self.vae.encode(x)
        return mu

    def features(self, x) -> Tensor:
        """The VAE encoder's hidden layer: the backbone output DER distils."""
        return self.vae.encoder(x if isinstance(x, Tensor) else Tensor(x))


class VAEObjective(CSSLObjective):
    """The VAE wrapped in the CSSL-objective interface.

    Training minimises the plain negative ELBO (KL weight 1); the
    evaluation representation is the posterior mean.
    """

    def __init__(self, input_dim: int, latent_dim: int, hidden_dim: int = 128,
                 rng: np.random.Generator | None = None):
        rng = rng or fallback_rng()
        vae = VAE(input_dim, latent_dim, hidden_dim, rng=rng)
        super().__init__(_LatentMeanEncoder(vae))
        self.vae = vae
        self._rng = rng

    def __setattr__(self, name, value):
        # `vae` is already registered through the encoder adapter; registering
        # it again would duplicate every parameter in the optimizer.
        if name == "vae":
            object.__setattr__(self, name, value)
            return
        super().__setattr__(name, value)

    def css_loss(self, x1: np.ndarray, x2: np.ndarray,
                 z: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """The ELBO of ``x1``; it reads the raw view, so ``z`` goes unused."""
        return self.vae.elbo_loss(Tensor(x1), self._rng)

    def align(self, current: Tensor, target: np.ndarray) -> Tensor:
        """Plain cosine alignment (lets distillation methods run on VAEs)."""
        return -(ops.cosine_similarity(current, Tensor(target))).mean()
