"""Common interface for CSSL objectives.

A :class:`CSSLObjective` owns an :class:`~repro.ssl.encoder.Encoder` plus any
loss-specific heads (SimSiam's predictor), and exposes:

- ``css_loss(x1, x2)`` — the self-supervised objective on two views
  (Eq. 3 for SimSiam, Eq. 4 for BarlowTwins), split into ``encode``, one
  live-encoder pass per view, and ``pair_loss`` over those
  representations, so a method that also distils (Eq. 9) encodes each
  view once and passes the same ``z`` to ``css_loss`` and ``L_dis``;
- ``align(current, target)`` — the alignment term used by distillation,
  where ``target`` is a *fixed* numpy array from the old model.  The
  concrete form varies with the objective (Sec. II-B2: "the concrete
  definition of L_dis varies with different L_css").
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.ssl.encoder import Encoder
from repro.tensor.tensor import Tensor


class CSSLObjective(Module):
    """Base class for SimSiam / BarlowTwins objectives."""

    def __init__(self, encoder: Encoder):
        super().__init__()
        self.encoder = encoder

    @property
    def representation_dim(self) -> int:
        return self.encoder.output_dim

    def representation(self, x) -> Tensor:
        """Current-model representation of a batch (with gradient)."""
        return self.encoder(x)

    def encode(self, x1: np.ndarray, x2: np.ndarray) -> tuple[Tensor, Tensor]:
        """The live representations ``(f(x1), f(x2))``: one pass per view."""
        return self.encoder(x1), self.encoder(x2)

    def css_loss(self, x1: np.ndarray, x2: np.ndarray,
                 z: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """Self-supervised loss on two augmented views of the same batch.

        ``z`` is the views' :meth:`encode` output when the caller shares it
        with ``L_dis``; without it the views are encoded here.
        """
        z1, z2 = self.encode(x1, x2) if z is None else z
        return self.pair_loss(x1, x2, z1, z2)

    def pair_loss(self, x1: np.ndarray, x2: np.ndarray, z1: Tensor,
                  z2: Tensor) -> Tensor:
        """``L_css`` over the live representations ``z1``, ``z2`` of the
        views ``x1``, ``x2`` (which only a target network reads)."""
        raise NotImplementedError

    def align(self, current: Tensor, target: np.ndarray) -> Tensor:
        """Alignment loss pulling ``current`` toward the fixed ``target``."""
        raise NotImplementedError
