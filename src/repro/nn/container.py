"""Module containers."""

from __future__ import annotations

from repro.nn.activation import ReLU
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.tensor import engine, ops
from repro.tensor.tensor import Tensor


class Sequential(Module):
    """Chains modules in order; submodules register as ``layer0`` etc.

    When fusion is enabled, an adjacent ``(Linear, ReLU)`` pair dispatches
    the fused ``linear_relu`` kernel at call time instead of two separate
    taped ops, and a ``(BatchNorm1d or BatchNorm2d, ReLU)`` pair runs the
    ReLU inside the ``batch_norm`` kernel.  The fusion is purely a
    call-time rewrite: the layer list, the parameters, and ``state_dict``
    layout are unchanged, and disabling fusion
    (:func:`repro.tensor.engine.no_fusion`) restores the unfused execution
    path exactly.
    """

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        layers = self.layers
        fuse = engine.fusion_enabled()
        i = 0
        count = len(layers)
        while i < count:
            layer = layers[i]
            if fuse and i + 1 < count and type(layers[i + 1]) is ReLU:
                kind = type(layer)
                if kind is Linear and x.ndim == 2:
                    x = ops.linear_relu(x, layer.weight, layer.bias)
                    i += 2
                    continue
                if kind is BatchNorm1d or kind is BatchNorm2d:
                    x = layer(x, relu=True)
                    i += 2
                    continue
            x = layer(x)
            i += 1
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
