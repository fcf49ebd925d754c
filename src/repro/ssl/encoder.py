"""The encoder ``f(.)``: backbone + 2-layer projector MLP (Sec. IV-A5).

The paper concatenates a ResNet-18 with a 2-layer MLP for images, or uses a
7-layer MLP for tabular rows.  ``build_backbone`` exposes all backbones by
name so experiment configs stay declarative.
"""

from __future__ import annotations

import numpy as np

from repro.nn.convnet import TinyConvNet
from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.nn.resnet import resnet18, tiny_resnet
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


#: Backbone name -> builder, called with ``rng`` and the shape keywords of
#: :func:`build_backbone`; ``ContinualConfig.backbone`` must name one.
BACKBONES = {
    "tiny-conv": lambda rng, in_channels, image_size, **_: TinyConvNet(
        in_channels=in_channels, image_size=image_size, rng=rng),
    "tiny-resnet": lambda rng, in_channels, **_: tiny_resnet(
        in_channels=in_channels, rng=rng),
    "resnet18": lambda rng, in_channels, **_: resnet18(
        in_channels=in_channels, rng=rng),
    # 7 layers total as in the paper's tabular encoder.
    "mlp": lambda rng, input_dim, hidden_dim, **_: MLP(
        [input_dim] + [hidden_dim] * 6, batch_norm=True,
        final_activation=False, rng=rng),
}


def build_backbone(kind: str, rng: np.random.Generator, *, in_channels: int = 3,
                   image_size: int = 8, input_dim: int = 16,
                   hidden_dim: int = 64) -> Module:
    """Construct a named backbone.

    Parameters
    ----------
    kind:
        ``"tiny-conv"`` (default CPU image backbone), ``"tiny-resnet"``,
        ``"resnet18"`` (the paper's image backbone), or ``"mlp"``
        (tabular; a 7-layer MLP as in Sec. IV-A5).
    """
    if kind not in BACKBONES:
        raise ValueError(f"unknown backbone kind {kind!r}")
    return BACKBONES[kind](rng, in_channels=in_channels, image_size=image_size,
                           input_dim=input_dim, hidden_dim=hidden_dim)


class Encoder(Module):
    """``f(x)``: backbone features projected to the representation space.

    Parameters
    ----------
    backbone:
        Any module with an ``output_dim`` attribute mapping input batches to
        (N, output_dim) features.
    representation_dim:
        Width ``d`` of the representation space (paper: 2048 image /
        128 tabular; CI scale uses smaller ``d``).
    """

    def __init__(self, backbone: Module, representation_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or fallback_rng()
        self.backbone = backbone
        self.projector = MLP([backbone.output_dim, representation_dim, representation_dim],
                             batch_norm=True, rng=rng)
        self.output_dim = representation_dim

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.projector(self.backbone(x))

    def features(self, x) -> Tensor:
        """Backbone features without projection (used by the DER baseline)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.backbone(x)
