"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor.engine import Context, Op, apply, register
from repro.tensor.tensor import Tensor


@register
class MaxPool2dOp(Op):
    """Non-overlapping max pooling (kernel == stride).

    The max is a chain of ``np.maximum`` over the k² strided slices
    ``x[:, :, i::k, j::k]``.  Ties split the gradient evenly, as in
    ``Tensor.max``; those weights are built only when a gradient is needed.
    """

    name = "maxpool2d"

    @staticmethod
    def forward(ctx: Context, x, *, kernel: int):
        h, w = x.shape[2:]
        if h % kernel or w % kernel:
            raise ValueError(f"MaxPool2d({kernel}) needs H, W divisible by "
                             f"{kernel}, got {(h, w)}")
        slices = [x[:, :, i::kernel, j::kernel]
                  for i in range(kernel) for j in range(kernel)]
        out = slices[0].copy()
        for window_slice in slices[1:]:
            np.maximum(out, window_slice, out=out)
        if any(ctx.needs_input_grad):
            hits = [(window_slice == out).astype(x.dtype) for window_slice in slices]
            # Small integer counts: exact in any summation order.
            count = sum(hits)
            for hit in hits:
                hit /= count
            ctx.weights = hits
            ctx.kernel = kernel
            ctx.shape = x.shape
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        # grad is often a strided view (conv's col2im returns the interior
        # of a padded buffer); one contiguous copy lets each of the k²
        # products below run over whole rows.
        grad = np.ascontiguousarray(grad)
        k = ctx.kernel
        gx = np.empty(ctx.shape, dtype=np.result_type(grad, ctx.weights[0]))
        for offset, weight in enumerate(ctx.weights):
            i, j = divmod(offset, k)
            np.multiply(grad, weight, out=gx[:, :, i::k, j::k])
        return (gx,)


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride), the common CNN case."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return apply("maxpool2d", x, kernel=self.kernel_size)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
