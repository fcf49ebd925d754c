"""BarlowTwins (Zbontar et al. 2021) — the alternative objective of Table VI.

``L_css = sum_a (1 - C_aa)^2 + lambda * sum_a sum_{b != a} C_ab^2`` (Eq. 4),
where ``C`` is the cross-correlation matrix between the two views' batch
representations, computed with per-dimension cosine normalization exactly as
the paper writes it.
"""

from __future__ import annotations

import numpy as np

from repro.ssl.base import CSSLObjective
from repro.ssl.encoder import Encoder
from repro.tensor import ops
from repro.tensor.tensor import Tensor


class BarlowTwins(CSSLObjective):
    """BarlowTwins objective with off-diagonal weight ``lambda``."""

    def __init__(self, encoder: Encoder, lambda_offdiag: float = 5e-3,
                 rng: np.random.Generator | None = None):
        super().__init__(encoder)
        self.lambda_offdiag = lambda_offdiag

    def _cross_correlation(self, z1: Tensor, z2: Tensor) -> Tensor:
        """C_ab = <z1[:,a], z2[:,b]> / (||z1[:,a]|| ||z2[:,b]||), Eq. 4."""
        # Center each dimension over the batch, then column-normalize via
        # the fused l2-normalize kernel (column axis, Eq. 4's eps).
        z1c = z1 - z1.mean(axis=0, keepdims=True)
        z2c = z2 - z2.mean(axis=0, keepdims=True)
        return ops.l2_normalize(z1c, axis=0, eps=1e-8).T @ ops.l2_normalize(z2c, axis=0, eps=1e-8)

    def _barlow_loss(self, z1: Tensor, z2: Tensor) -> Tensor:
        c = self._cross_correlation(z1, z2)
        d = c.shape[0]
        eye = np.eye(d, dtype=np.float32)
        diag_term = (((c - 1.0) * eye) ** 2).sum()
        offdiag_term = ((c * (1.0 - eye)) ** 2).sum()
        return diag_term + self.lambda_offdiag * offdiag_term

    def pair_loss(self, x1: np.ndarray, x2: np.ndarray, z1: Tensor,
                  z2: Tensor) -> Tensor:
        return self._barlow_loss(z1, z2)

    def align(self, current: Tensor, target: np.ndarray) -> Tensor:
        """Barlow-style alignment of ``current`` against fixed old targets.

        As the paper notes (Sec. IV-C3), this compares batch statistics that
        mix data and models, which makes Barlow distillation noisier than
        SimSiam distillation — the Table VI effect.
        """
        return self._barlow_loss(current, Tensor(target))
