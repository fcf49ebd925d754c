"""CURL-style generative replay on a VAE objective.

The VAE-based UCL lineage (VASE, CURL — Sec. I of the paper) prevents
forgetting by *generating* old data from a snapshot of the previous model
instead of storing real samples.  This simplified CURL implements exactly
that mechanism:

``L = ELBO(x^n) + w * ELBO(x_gen),  x_gen ~ decoder_old(z), z ~ N(0, I)``

It requires the objective to be a :class:`~repro.ssl.vae.VAEObjective`.
The paper's claim this method exists to test: VAE-based UCL trails
CSSL-based UCL on image benchmarks (reproduced in
``benchmarks/test_ext3_vae_lineage.py``).
"""

from __future__ import annotations

import numpy as np

from repro.continual.config import ContinualConfig
from repro.continual.method import ContinualMethod
from repro.ssl.vae import VAEObjective
from repro.tensor.tensor import Tensor

#: Weight ``w`` of the generated batch's ELBO.
REPLAY_WEIGHT = 0.5


class GenerativeReplay(ContinualMethod):
    """Generative (pseudo-)replay from the previous increment's decoder."""

    name = "curl"
    uses_old_model = True

    def __init__(self, objective: VAEObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        if not isinstance(objective, VAEObjective):
            raise TypeError("GenerativeReplay requires a VAEObjective "
                            "(ContinualConfig(objective='vae'))")
        super().__init__(objective, config, rng)

    def batch_loss(self, view1, view2, raw) -> Tensor:
        loss = self.objective.css_loss(view1, view2)
        if self.old_objective is None or self.config.replay_batch_size == 0:
            return loss
        # The run generator draws the latents: a checkpoint records its
        # state, while the old model's deep-copied one would be lost.
        generated = self.old_objective.vae.sample(self.config.replay_batch_size,
                                                  self.rng)
        replay = self.objective.vae.elbo_loss(Tensor(generated), self.rng)
        return loss + REPLAY_WEIGHT * replay
