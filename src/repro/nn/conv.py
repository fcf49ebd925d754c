"""2-D convolution via im2col, and the conv stage that carries its BatchNorm.

The forward pass lowers convolution to a single matmul over unfolded
patches; the whole lowering is one registered autograd op (``conv2d``) so
the col2im scatter runs in vectorized numpy instead of through generic
indexing, and the bias add is fused into the same kernel.  Tensors are
NCHW throughout, matching the torch convention the paper's models assume;
the unfold and the scatter work channels-last inside, the patch buffer's
own layout.

``conv_stage`` runs a Conv2d, the BatchNorm2d it feeds, an optional ReLU
and an optional MaxPool2d as one dispatch, channels-last inside, with the
IEEE operations of the ``conv2d``, BatchNorm and ``maxpool2d`` kernels in
their order (see :class:`ConvStageOp`); :func:`run_stage` is its layer
form.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init, norm
from repro.nn.module import Module, Parameter
from repro.nn.pool import _window_grad, _window_max
from repro.tensor import engine, ops
from repro.tensor.engine import Context, Op, apply, register
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


def _out_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    return ((h + 2 * padding - kernel) // stride + 1,
            (w + 2 * padding - kernel) // stride + 1)


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` (N, C, H, W) as one zero-padded channels-last copy.

    Each kernel offset's windows of the copy are (N, out_h, out_w, C)
    blocks with contiguous channel rows, the patch buffer's own layout.
    """
    n, c, h, w = x.shape
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    padded[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    return padded


def _unfold(padded: np.ndarray, kernel: int, stride: int, out_h: int,
            out_w: int) -> np.ndarray:
    """The (N, out_h, out_w, C*k*k) patches of a :func:`_pad` buffer."""
    n, c = padded.shape[0], padded.shape[3]
    cols = np.empty((n, out_h, out_w, c, kernel, kernel), dtype=padded.dtype)
    # k*k slice copies: iterations over kernel offsets, not array elements.
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            cols[:, :, :, :, ki, kj] = padded[:, ki:i_max:stride, kj:j_max:stride]
    return cols.reshape(n, out_h, out_w, c * kernel * kernel)


def _im2col(x: np.ndarray, kernel: int, stride: int,
            padding: int) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into (N, out_h, out_w, C*k*k) patches."""
    out_h, out_w = _out_hw(x.shape[2], x.shape[3], kernel, stride, padding)
    return _unfold(_pad(x, padding), kernel, stride, out_h, out_w), out_h, out_w


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


def _conv_grads(g_flat, w, flat, need_x: bool, geometry):
    """The conv's input and weight gradients from its (N*oh*ow, C_out)
    output gradient ``g_flat``; ``flat`` is the (N*oh*ow, C_in*k*k) patch
    matrix, or ``None`` when the weight needs no gradient."""
    x_shape, kernel, stride, padding, out_h, out_w = geometry
    gx = gw = None
    if need_x:
        cols_grad = g_flat @ w.T
        gx = _col2im(cols_grad.reshape(x_shape[0], out_h, out_w, -1), x_shape,
                     kernel, stride, padding)
    if flat is not None:
        gw = flat.T @ g_flat
    return gx, gw


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
        needs = ctx.needs_input_grad
        g_flat = grad.transpose(0, 2, 3, 1).reshape(-1, w.shape[1])
        gx, gw = _conv_grads(g_flat, w, flat if needs[1] else None, needs[0],
                             ctx.geometry)
        if len(needs) > 2 and needs[2]:
            return gx, gw, g_flat.sum(axis=0)
        return (gx, gw) + (None,) * (len(needs) - 2)


# ----------------------------------------------------------------------
# The conv stage
# ----------------------------------------------------------------------
_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def _lane_sums(a: np.ndarray) -> np.ndarray:
    """Sum (N, L, C) over L for each (sample, channel), in numpy's pairwise
    order: fewer than 8 values in order; up to 128 in 8 interleaved lanes
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest in
    order; more split at half, rounded down to a multiple of 8.

    Partial sums may differ from numpy's in the sign of a zero (its lanes
    start from the first value, these from ``0.0``), never in a value; the
    reduction over samples that follows starts from ``0.0`` in both.
    """
    n = a.shape[1]
    if n < 8:
        return np.add.reduce(a, axis=1)
    if n <= _PAIRWISE_BLOCK:
        blocks = n - n % 8
        lanes = np.add.reduce(
            a[:, :blocks].reshape(a.shape[0], blocks // 8, 8, a.shape[2]), axis=1)
        pairs = lanes[:, 0::2] + lanes[:, 1::2]
        quads = pairs[:, 0::2] + pairs[:, 1::2]
        total = quads[:, 0] + quads[:, 1]
        for i in range(blocks, n):
            total += a[:, i]
        return total
    half = n // 2
    half -= half % 8
    return _lane_sums(a[:, :half]) + _lane_sums(a[:, half:])


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` over axes (0, 2, 3) of the C-contiguous NCHW array
    whose channels-last (N, H*W, C) form is ``a``, byte for byte.

    numpy sums each (sample, channel)'s contiguous H*W row pairwise and
    adds the row sums over samples in order; with one channel the reduced
    axes coalesce into one pairwise sum over N*H*W.
    """
    n, rows, c = a.shape
    if c == 1:
        a = a.reshape(1, n * rows, 1)
    return np.add.reduce(_lane_sums(a), axis=0)


def _param_sum(a: np.ndarray) -> np.ndarray:
    """A BatchNorm parameter gradient, as ``_unbroadcast(g, (1, C, 1, 1))``
    gave it: a (1, C, 1, 1) gradient is returned as it is, since
    ``np.add.reduce`` would turn its ``-0.0`` entries into ``0.0``."""
    if a.shape[0] * a.shape[1] == 1:
        return a.reshape(-1).copy()
    return _channel_sum(a)


def _one_dtype(x, w, weight, bias, running) -> bool:
    """Whether the stage's arrays share one float32/float64 dtype (running
    statistics may be narrower): then every intermediate keeps it."""
    dtype = x.dtype
    return (dtype in (np.float32, np.float64)
            and dtype == w.dtype == weight.dtype == bias.dtype
            and all(np.result_type(dtype, r) == dtype for r in running or ()))


@register
class ConvStageOp(Op):
    """Conv2d → BatchNorm2d → optional ReLU → optional MaxPool2d, one dispatch.

    Inputs: ``x`` (N, C_in, H, W), the bias-free conv weight
    (C_in*k*k, C_out) and the BatchNorm weight and bias (C_out,), all of one
    float32 or float64 dtype.  Params: the conv geometry, ``eps``, ``relu``,
    ``pool`` (the MaxPool2d kernel, or 0) and ``running``: ``None`` for the
    train form, which exposes its batch statistics as ``ctx.mean``/
    ``ctx.var`` (C_out,), or the eval form's ``(running_mean, running_var)``.

    Input and output are NCHW; inside, the conv output stays in the
    channels-last rows the matmul gives, and the BatchNorm passes run in
    place on them.  The op performs the IEEE operations of the ``conv2d``
    kernel, the BatchNorm kernel (its affine, eval form and ReLU included)
    and the ``maxpool2d`` kernel in their order, so it equals that chain
    byte for byte: per-channel vectors broadcast as rows, and every
    per-channel sum (the batch statistics and the four backward sums) is
    :func:`_channel_sum`, numpy's order for the contiguous NCHW array the
    chain summed.  That holds for an incoming gradient in C order (every
    gradient the engine hands it); without ReLU and pool, the bias gradient
    sums the incoming gradient as it is laid out, as the chain did.

    Saved for backward: the zero-padded channels-last input (only when the
    weight needs a gradient; backward rebuilds the patches from it), the
    normalized activations, the ReLU mask and the pool's tie masks as
    bools with their count.
    """

    name = "conv_stage"

    @staticmethod
    def forward(ctx: Context, x, w, weight, bias, *, kernel: int, stride: int,
                padding: int, eps: float, relu: bool = False, pool: int = 0,
                running=None):
        if not _one_dtype(x, w, weight, bias, running):
            raise TypeError("conv_stage needs x and its parameters in one "
                            "float32 or float64 dtype")
        need_w = ctx.needs_input_grad[1]
        need_grad = any(ctx.needs_input_grad)
        n = x.shape[0]
        out_h, out_w = _out_hw(x.shape[2], x.shape[3], kernel, stride, padding)
        if pool and (out_h % pool or out_w % pool):
            raise ValueError(f"MaxPool2d({pool}) needs H, W divisible by "
                             f"{pool}, got {(out_h, out_w)}")
        padded = _pad(x, padding)
        # The conv output, (N*oh*ow, C_out) channels-last rows, which the
        # BatchNorm passes below normalize in place.
        xhat = _unfold(padded, kernel, stride, out_h, out_w).reshape(
            n * out_h * out_w, -1) @ w
        rows = xhat.reshape(n, out_h * out_w, -1)
        m = None
        if running is None:
            m = xhat.shape[0]
            mean = _channel_sum(rows)
            np.true_divide(mean, np.intp(m), out=mean, casting="unsafe")
            np.subtract(xhat, mean, out=xhat)
            var = _channel_sum(rows * rows)
            np.true_divide(var, np.intp(m), out=var, casting="unsafe")
            scale = 1.0 / np.sqrt(var + eps)
            np.multiply(xhat, scale, out=xhat)
            ctx.mean = mean
            ctx.var = var
        else:
            running_mean, running_var = running
            scale = np.sqrt(running_var + np.float32(eps))
            np.subtract(xhat, running_mean, out=xhat)
            np.divide(xhat, scale, out=xhat)
        y = xhat * weight
        y += bias
        mask = None
        if relu:
            if need_grad:
                mask = y > 0
            np.maximum(y, 0.0, out=y)
        out = y.reshape(n, out_h, out_w, -1)
        ties = None
        if pool:
            out, ties = _window_max([out[:, i::pool, j::pool]
                                     for i in range(pool) for j in range(pool)],
                                    need_grad)
        if need_grad:
            ctx.save(xhat, scale, weight, mask, ties,
                     padded if need_w else None, w)
            ctx.m = m
            ctx.pool = pool
            ctx.geometry = (x.shape, kernel, stride, padding, out_h, out_w)
        # A copy, not ascontiguousarray: that keeps a view when H*W or C is
        # 1, whose size-1 axes carry other strides than a new array's.
        return out.transpose(0, 3, 1, 2).copy()

    @staticmethod
    def backward(ctx: Context, grad):
        xhat, scale, weight, mask, ties, padded, w = ctx.saved
        need_x, need_w, need_weight, need_bias = ctx.needs_input_grad
        geometry = ctx.geometry
        x_shape, kernel, stride, _padding, out_h, out_w = geometry
        pool = ctx.pool
        shape = (x_shape[0], out_h, out_w, xhat.shape[1])
        # The BatchNorm output's gradient, channels-last, in the dtype the
        # chain gave it: the pool's backward promotes it, a ReLU mask not.
        dtype = np.result_type(grad, xhat)
        incoming = grad.transpose(0, 2, 3, 1)
        if pool:
            g = np.empty(shape, dtype=dtype)
            _window_grad(incoming, ties, [g[:, i::pool, j::pool]
                                          for i in range(pool)
                                          for j in range(pool)], xhat.dtype)
            if mask is not None:
                np.multiply(g, mask.reshape(shape), out=g)
        else:
            g = np.empty(shape, dtype=grad.dtype)
            if mask is not None:
                np.multiply(incoming, mask.reshape(shape), out=g)
            else:
                np.copyto(g, incoming)
        rows = g.reshape(shape[0], out_h * out_w, shape[3])
        xhat_rows = xhat.reshape(rows.shape)
        grads = [None, None, None, None]
        if need_weight:
            grads[2] = _param_sum(rows * xhat_rows)
        if need_bias:
            if pool or mask is not None:
                grads[3] = _param_sum(rows)
            elif grad.shape[0] * grad.shape[2] * grad.shape[3] == 1:
                grads[3] = grad.reshape(-1)
            else:  # the incoming gradient itself, summed as it is laid out
                grads[3] = np.add.reduce(grad, axis=(0, 2, 3))
        if not (need_x or need_w):
            return grads
        rows = rows.astype(dtype, copy=False)
        np.multiply(rows, weight, out=rows)
        m = ctx.m
        if m is None:
            np.divide(rows, scale, out=rows)
        else:
            sum_g = _channel_sum(rows)
            product = rows * xhat_rows
            sum_gx = _channel_sum(product)
            np.multiply(xhat_rows, sum_gx, out=product)
            np.multiply(rows, m, out=rows)
            np.subtract(rows, sum_g, out=rows)
            np.subtract(rows, product, out=rows)
            np.multiply(rows, scale / m, out=rows)
        flat = rows.reshape(-1, shape[3])
        cols = None
        if need_w:
            cols = _unfold(padded, kernel, stride, out_h, out_w).reshape(
                flat.shape[0], -1)
        grads[0], grads[1] = _conv_grads(flat, w, cols, need_x, geometry)
        return grads


def run_stage(x: Tensor, conv: "Conv2d", batch_norm: norm.BatchNorm2d,
              relu: bool = False, pool=None) -> Tensor:
    """``conv`` → ``batch_norm`` → [ReLU] → [``pool``] as one ``conv_stage``.

    Under :func:`~repro.tensor.engine.no_fusion`, for a conv with a bias,
    or when the input and the parameters mix dtypes, the layers run one by
    one.  The train form updates ``batch_norm``'s running statistics
    through the op's stat callback, as the layer does.
    """
    running = None if batch_norm.training else (batch_norm.running_mean,
                                                batch_norm.running_var)
    if not (engine.fusion_enabled() and conv.bias is None and x.ndim == 4
            and _one_dtype(x.data, conv.weight.data, batch_norm.weight.data,
                           batch_norm.bias.data, running)):
        x = batch_norm(conv(x))
        if relu:
            x = ops.relu(x)
        return x if pool is None else pool(x)
    params = dict(kernel=conv.kernel_size, stride=conv.stride,
                  padding=conv.padding, eps=norm.EPS, relu=relu,
                  pool=0 if pool is None else pool.kernel_size)
    if running is not None:
        norm.mark_eval_unsafe()
        return ops.conv_stage(x, conv.weight, batch_norm.weight,
                              batch_norm.bias, running=running, **params)
    out_h, out_w = _out_hw(x.shape[2], x.shape[3], conv.kernel_size,
                           conv.stride, conv.padding)
    count = x.shape[0] * out_h * out_w

    def callback(mean, var):
        norm.update_running_stats((batch_norm,), mean, var, count)
    return ops.conv_stage(x, conv.weight, batch_norm.weight, batch_norm.bias,
                          stat_callback=callback, **params)


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
