"""The ReLU layer (a thin module wrapper around :func:`repro.tensor.ops.relu`)."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import ops
from repro.tensor.tensor import Tensor


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)
