"""SimSiam (Chen & He 2021) — the paper's default CSSL objective (Eq. 3).

``L_css(x1, x2) = -1/2 [ cos(h(z1), sg(z2)) + cos(h(z2), sg(z1)) ]``

where ``z = f(x)`` is the encoder output, ``h`` is the 2-layer bottleneck
predictor, and ``sg`` is stop-gradient (``Tensor.detach``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.mlp import MLP
from repro.ssl.base import CSSLObjective
from repro.ssl.encoder import Encoder
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


class SimSiam(CSSLObjective):
    """SimSiam objective.

    Parameters
    ----------
    encoder:
        The shared encoder ``f``.
    predictor_hidden:
        Hidden width of the predictor ``h``; SimSiam uses a bottleneck
        (d/4 in the original paper).
    """

    def __init__(self, encoder: Encoder, predictor_hidden: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__(encoder)
        rng = rng or fallback_rng()
        d = encoder.output_dim
        hidden = predictor_hidden or max(d // 4, 4)
        self.predictor = MLP([d, hidden, d], batch_norm=True, rng=rng)

    @staticmethod
    def _negative_cosine(p: Tensor, z: Tensor) -> Tensor:
        """Mean of ``-cos(p, z)`` over the batch; ``z`` must be detached by the caller."""
        return -(ops.cosine_similarity(p, z)).mean()

    def pair_loss(self, x1: np.ndarray, x2: np.ndarray, z1: Tensor,
                  z2: Tensor) -> Tensor:
        p1 = self.predictor(z1)
        p2 = self.predictor(z2)
        loss = self._negative_cosine(p1, z2.detach()) + self._negative_cosine(p2, z1.detach())
        return loss * 0.5

    def align(self, current: Tensor, target: np.ndarray) -> Tensor:
        """SimSiam-style alignment: ``-cos(h(current), target)``.

        The prediction flows through the predictor so the distillation loss
        has the same geometry as ``L_css`` (this is CaSSLe's construction for
        SimSiam); the target is a fixed old-model representation.
        """
        p = self.predictor(current)
        return self._negative_cosine(p, Tensor(target))
