"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor.engine import Context, Op, apply, register
from repro.tensor.tensor import Tensor


def _window_max(slices, ties: bool):
    """The max over the k² window ``slices``, a chain of ``np.maximum``.

    With ``ties``, also the window's tie record for the backward: one bool
    hit mask per slice, stacked, and the number of hits per output.
    """
    out = slices[0].copy()
    for window_slice in slices[1:]:
        np.maximum(out, window_slice, out=out)
    if not ties:
        return out, None
    hits = np.stack([window_slice == out for window_slice in slices])
    return out, (hits, np.add.reduce(hits, axis=0,
                                     dtype=np.min_scalar_type(len(slices))))


def _window_grad(grad, ties, views, dtype) -> None:
    """Write ``grad`` times each slice's tie weight into its window view.

    Ties split the gradient evenly, as in ``Tensor.max``: the weight is
    ``hit.astype(dtype) / count``, exact small integers divided.
    """
    hits, count = ties
    for hit, view in zip(hits, views):
        np.multiply(grad, hit.astype(dtype) / count, out=view)


@register
class MaxPool2dOp(Op):
    """Non-overlapping max pooling (kernel == stride).

    The max is a chain of ``np.maximum`` over the k² strided slices
    ``x[:, :, i::k, j::k]``.  Ties split the gradient evenly, as in
    ``Tensor.max``; the tie masks are kept as bools, and only when a
    gradient is needed.
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
        out, ties = _window_max(slices, any(ctx.needs_input_grad))
        if ties is not None:
            ctx.ties = ties
            ctx.kernel = kernel
            ctx.shape = x.shape
            ctx.dtype = x.dtype
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        # grad is often a strided view (conv's col2im returns the interior
        # of a padded buffer); one contiguous copy lets each of the k²
        # products below run over whole rows.
        grad = np.ascontiguousarray(grad)
        k = ctx.kernel
        gx = np.empty(ctx.shape, dtype=np.result_type(grad, ctx.dtype))
        _window_grad(grad, ctx.ties, [gx[:, :, i::k, j::k]
                                      for i in range(k) for j in range(k)],
                     ctx.dtype)
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
