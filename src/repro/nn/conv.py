"""2-D convolution via im2col.

The forward pass lowers convolution to a single matmul over unfolded
patches; the whole lowering is one registered autograd op (``conv2d``) so
the col2im scatter runs in vectorized numpy instead of through generic
indexing, and the bias add is fused into the same kernel.  Tensors are
NCHW throughout, matching the torch convention the paper's models assume;
the unfold and the scatter work channels-last inside, the patch buffer's
own layout.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.engine import Context, Op, apply, register
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


def _out_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    return ((h + 2 * padding - kernel) // stride + 1,
            (w + 2 * padding - kernel) // stride + 1)


def _im2col(x: np.ndarray, kernel: int, stride: int,
            padding: int) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into (N, out_h, out_w, C*k*k) patches."""
    n, c, h, w = x.shape
    out_h, out_w = _out_hw(h, w, kernel, stride, padding)
    # One channels-last copy, zero-padded: each kernel offset's windows are
    # then (N, out_h, out_w, C) blocks with contiguous channel rows, the
    # patch buffer's own layout.
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    padded[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    cols = np.empty((n, out_h, out_w, c, kernel, kernel), dtype=x.dtype)
    # k*k slice copies: iterations over kernel offsets, not array elements.
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            cols[:, :, :, :, ki, kj] = padded[:, ki:i_max:stride, kj:j_max:stride]
    return cols.reshape(n, out_h, out_w, c * kernel * kernel), out_h, out_w


def _col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int], kernel: int,
            stride: int, padding: int) -> np.ndarray:
    """Scatter-add (N, out_h, out_w, C*k*k) patch gradients back to x.

    The scatter runs channels-last, like :func:`_im2col`, and every element
    receives its k*k contributions in kernel-offset order.  The result is
    the (N, C, H, W) interior of a C-contiguous padded buffer.
    """
    n, c, h, w = x_shape
    out_h, out_w = _out_hw(h, w, kernel, stride, padding)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    # k*k iterations over kernel offsets, not over array elements: each
    # slice assignment below is a full vectorized scatter.
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            padded[:, ki:i_max:stride, kj:j_max:stride] += cols[:, :, :, :, ki, kj]
    padded = np.ascontiguousarray(padded.transpose(0, 3, 1, 2))
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


@register
class Conv2dOp(Op):
    """im2col convolution with fused bias.

    Inputs: ``x`` (N, C_in, H, W), ``weight`` (C_in*k*k, C_out) and an
    optional trailing ``bias`` (C_out,).  Params carry the geometry.
    """

    name = "conv2d"

    @staticmethod
    def forward(ctx: Context, x, w, *bias, kernel: int, stride: int,
                padding: int):
        n = x.shape[0]
        cols, out_h, out_w = _im2col(x, kernel, stride, padding)
        flat = cols.reshape(-1, cols.shape[-1])            # (N*oh*ow, Cin*k*k)
        out_flat = flat @ w                                # (N*oh*ow, Cout)
        if bias:
            out_flat += bias[0]
        if any(ctx.needs_input_grad):
            ctx.save(flat, w)
            ctx.geometry = (x.shape, kernel, stride, padding, out_h, out_w)
        return np.ascontiguousarray(
            out_flat.reshape(n, out_h, out_w, w.shape[1]).transpose(0, 3, 1, 2))

    @staticmethod
    def backward(ctx: Context, grad):
        flat, w = ctx.saved
        x_shape, kernel, stride, padding, out_h, out_w = ctx.geometry
        n = x_shape[0]
        c_out = w.shape[1]
        g_flat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        gx = gw = None
        if ctx.needs_input_grad[0]:
            cols_grad = g_flat @ w.T
            gx = _col2im(cols_grad.reshape(n, out_h, out_w, -1), x_shape,
                         kernel, stride, padding)
        if ctx.needs_input_grad[1]:
            gw = flat.T @ g_flat
        if len(ctx.needs_input_grad) > 2 and ctx.needs_input_grad[2]:
            return gx, gw, g_flat.sum(axis=0)
        return (gx, gw) + (None,) * (len(ctx.needs_input_grad) - 2)


class Conv2d(Module):
    """Convolution layer ``(N, C_in, H, W) -> (N, C_out, H', W')``."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or fallback_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        # Stored as (C_in*k*k, C_out) so forward is one matmul over patches.
        self.weight = Parameter(init.kaiming_uniform(rng, (fan_in, out_channels), fan_in))
        if bias:
            bound = 1.0 / np.sqrt(fan_in)
            self.bias = Parameter(rng.uniform(-bound, bound, size=(out_channels,)).astype(np.float32))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects NCHW input, got shape {x.shape}")
        params = dict(kernel=self.kernel_size, stride=self.stride,
                      padding=self.padding)
        if self.bias is not None:
            return apply("conv2d", x, self.weight, self.bias, **params)
        return apply("conv2d", x, self.weight, **params)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
                f"s={self.stride}, p={self.padding})")
