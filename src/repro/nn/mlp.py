"""Multi-layer perceptron used as projector, predictor, and tabular backbone.

The paper uses MLPs in three places: the 2-layer projector on top of the
backbone, SimSiam's 2-layer predictor ``h(.)``, the 2-layer distillation
projector ``p_dis(.)``, and a 7-layer MLP as the tabular-data encoder.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.activation import ReLU
from repro.nn.container import Sequential
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import BatchNorm1d
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


class MLP(Module):
    """Fully-connected network with optional hidden BatchNorm.

    Parameters
    ----------
    dims:
        Layer widths including input and output, e.g. ``[64, 128, 128]``
        builds two Linear layers.
    batch_norm:
        Insert BatchNorm1d after each hidden Linear.
    final_activation:
        Apply ReLU after the last layer too (backbones want this off for the
        output representation, projector heads sometimes want it on).
    rng:
        Generator for weight init.
    """

    def __init__(self, dims: Sequence[int], batch_norm: bool = True,
                 final_activation: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = rng or fallback_rng()
        self.dims = list(dims)
        layers: list[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng=rng))
            is_last = i == len(dims) - 2
            if not is_last or final_activation:
                if batch_norm:
                    layers.append(BatchNorm1d(dims[i + 1]))
                layers.append(ReLU())
        self.net = Sequential(*layers)
        self.output_dim = dims[-1]

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.net(x)
