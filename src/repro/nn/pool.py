"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor.engine import Context, Op, apply, register
from repro.tensor.tensor import Tensor


@register
class MaxPool2dOp(Op):
    """Non-overlapping max pooling (kernel == stride)."""

    name = "maxpool2d"

    @staticmethod
    def forward(ctx: Context, x, *, kernel: int):
        n, c, h, w = x.shape
        oh, ow = h // kernel, w // kernel
        windows = x.reshape(n, c, oh, kernel, ow, kernel)
        out = windows.max(axis=(3, 5))
        # argmax mask for backward (ties split the gradient as in Tensor.max)
        expanded = out[:, :, :, None, :, None]
        mask = (windows == expanded).astype(x.dtype)
        mask /= mask.sum(axis=(3, 5), keepdims=True)
        ctx.mask = mask
        ctx.shape = (n, c, h, w)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        g_exp = grad[:, :, :, None, :, None] * ctx.mask
        return (g_exp.reshape(ctx.shape),)


@register
class AvgPool2dOp(Op):
    """Non-overlapping average pooling."""

    name = "avgpool2d"

    @staticmethod
    def forward(ctx: Context, x, *, kernel: int):
        n, c, h, w = x.shape
        oh, ow = h // kernel, w // kernel
        ctx.geometry = (n, c, oh, kernel, ow)
        ctx.shape = (n, c, h, w)
        windows = x.reshape(n, c, oh, kernel, ow, kernel)
        return windows.mean(axis=(3, 5))

    @staticmethod
    def backward(ctx: Context, grad):
        n, c, oh, kernel, ow = ctx.geometry
        scale = 1.0 / (kernel * kernel)
        g_exp = np.broadcast_to(grad[:, :, :, None, :, None] * scale,
                                (n, c, oh, kernel, ow, kernel))
        return (g_exp.reshape(ctx.shape),)


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride), the common CNN case."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"MaxPool2d({k}) needs H, W divisible by {k}, got {(h, w)}")
        return apply("maxpool2d", x, kernel=k)


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"AvgPool2d({k}) needs H, W divisible by {k}, got {(h, w)}")
        return apply("avgpool2d", x, kernel=k)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
