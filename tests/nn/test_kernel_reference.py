"""Reference parity for the rewritten ``maxpool2d``, ``conv2d``, ``conv_stage`` and ``mlp`` kernels.

``MaxPool2dOp`` takes its max as a chain of ``np.maximum`` over the k²
slices ``x[:, :, i::k, j::k]``; ``_im2col`` and ``_col2im`` copy and
scatter-add k² channels-last slices; ``ConvStageOp`` runs a conv, its
BatchNorm, a ReLU and a max-pool in one channels-last dispatch; ``MlpOp``
runs a whole run of Linear[+BatchNorm1d][+ReLU] blocks in one dispatch.
The functions below are the forms they replaced: the 6-D reshape max-pool
with its broadcast tie mask, the ``as_strided`` im2col, the NCHW col2im,
the deleted one-dispatch ``batch_norm`` kernel (kept here as
``BatchNormOp``, and itself checked against the BatchNorm layer's old op
sequence: the affine-less train kernel or the eval ``sub``/``add``/
``sqrt``/``div`` chain, then ``reshape``/``mul``/``reshape``/``add`` and a
``relu`` op), a conv stage's ``conv2d``/``batch_norm``/``maxpool2d``
dispatches, and a run's per-layer dispatches (``linear``, the deleted
``linear_relu`` kernel kept here, ``batch_norm``) with each BatchNorm
layer's own running-statistics EMA.  Both sides perform the same IEEE
operations in the same accumulation order, so every comparison is on
bytes, dtypes and strides, with no tolerance.  Strides count because a
reduction downstream may sum a contiguous array in another order than a
strided view of the same values.
"""

import itertools

import numpy as np
import pytest

from repro.nn import (MLP, BatchNorm1d, BatchNorm2d, Conv2d, Linear,
                      MaxPool2d, ReLU, Sequential, TinyConvNet, conv, norm,
                      tiny_resnet)
from repro.nn.pool import MaxPool2dOp
from repro.tensor import Tensor, engine, no_fusion, ops
from repro.tensor.core_ops import _unbroadcast
from repro.tensor.engine import Context, Op, apply, apply_ctx, register

DTYPES = [np.float32, np.float64]


# -- the replaced implementations ----------------------------------------
def reference_maxpool(x, kernel):
    """6-D reshape max with the ``windows == out`` tie-split mask."""
    n, c, h, w = x.shape
    windows = x.reshape(n, c, h // kernel, kernel, w // kernel, kernel)
    out = windows.max(axis=(3, 5))
    mask = (windows == out[:, :, :, None, :, None]).astype(x.dtype)
    mask /= mask.sum(axis=(3, 5), keepdims=True)
    return out, mask


def reference_maxpool_backward(grad, mask, shape):
    return (grad[:, :, :, None, :, None] * mask).reshape(shape)


def reference_im2col(x, kernel, stride, padding):
    """``as_strided`` window view plus one transposed contiguous copy."""
    n, c, h, w = x.shape
    out_h, out_w = conv._out_hw(h, w, kernel, stride, padding)
    if padding:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    strides = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(strides[0], strides[1], strides[2] * stride,
                 strides[3] * stride, strides[2], strides[3]),
        writeable=False)
    cols = np.ascontiguousarray(view.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(n, out_h, out_w, c * kernel * kernel), out_h, out_w


def reference_col2im(cols, x_shape, kernel, stride, padding):
    """k² slice ``+=`` reading a transposed view of the patch gradient."""
    n, c, h, w = x_shape
    out_h, out_w = conv._out_hw(h, w, kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            padded[:, :, ki:i_max:stride, kj:j_max:stride] += cols[:, :, :, :, ki, kj]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# -- inputs ----------------------------------------------------------------
def make_input(kind, shape, dtype, seed=0):
    """Inputs rich in exact ties, where the max and its mask are fragile."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.normal(size=shape)
    elif kind == "relu":  # post-ReLU activations: many exact zeros
        x = np.maximum(rng.normal(size=shape), 0.0)
    elif kind == "constant":  # every window is one big tie
        x = np.full(shape, 0.75, dtype=dtype)
    elif kind == "signed_zero":  # windows mixing -0.0 and 0.0
        x = rng.choice([-0.0, 0.0], size=shape)
    elif kind == "quantized":  # ties of every multiplicity
        x = np.round(rng.normal(size=shape) * 2.0) / 2.0
    else:
        raise ValueError(kind)
    return x.astype(dtype)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


# -- maxpool2d -------------------------------------------------------------
def run_maxpool(x, kernel, grad=None):
    ctx = Context()
    ctx.needs_input_grad = (grad is not None,)
    out = MaxPool2dOp.forward(ctx, x, kernel=kernel)
    if grad is None:
        return out, None
    (gx,) = MaxPool2dOp.backward(ctx, grad)
    return out, gx


@pytest.mark.parametrize("grad_dtype", DTYPES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["normal", "relu", "constant", "signed_zero",
                                  "quantized"])
@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_maxpool_matches_reference(kernel, kind, dtype, grad_dtype):
    x = make_input(kind, (2, 3, 6, 12), dtype)
    # A strided view, as conv's col2im hands the upstream gradient back.
    grad = make_input("normal", (2, 3, 6 // kernel + 2, 12 // kernel + 2),
                      grad_dtype, seed=1)[:, :, 1:-1, 1:-1]
    want_out, mask = reference_maxpool(x, kernel)
    out, gx = run_maxpool(x, kernel, grad)
    assert_same_bytes(out, want_out)
    assert_same_bytes(gx, reference_maxpool_backward(grad, mask, x.shape))
    # The no-grad path returns the same bytes without building a mask.
    assert_same_bytes(run_maxpool(x, kernel)[0], want_out)


@pytest.mark.parametrize("dtype", DTYPES)
def test_maxpool_every_signed_zero_window_matches_reference(dtype):
    """All 16 arrangements of -0.0 / 0.0 in a 2x2 window, one per channel."""
    patterns = list(itertools.product([-0.0, 0.0], repeat=4))
    x = np.array(patterns, dtype=dtype).reshape(1, len(patterns), 2, 2)
    grad = np.arange(1, len(patterns) + 1, dtype=dtype).reshape(1, -1, 1, 1)
    want_out, mask = reference_maxpool(x, 2)
    out, gx = run_maxpool(x, 2, grad)
    assert_same_bytes(out, want_out)
    assert_same_bytes(gx, reference_maxpool_backward(grad, mask, x.shape))


# -- conv2d ----------------------------------------------------------------
GEOMETRIES = list(itertools.product([1, 2, 3], [1, 2], [0, 1, 2]))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
def test_im2col_matches_reference(kernel, stride, padding, dtype):
    x = make_input("relu", (2, 3, 7, 6), dtype)
    cols, out_h, out_w = conv._im2col(x, kernel, stride, padding)
    want, want_h, want_w = reference_im2col(x, kernel, stride, padding)
    assert (out_h, out_w) == (want_h, want_w)
    assert_same_bytes(cols, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
def test_col2im_matches_reference(kernel, stride, padding, dtype):
    x_shape = (2, 3, 7, 6)
    out_h, out_w = conv._out_hw(7, 6, kernel, stride, padding)
    cols = make_input("normal", (2, out_h, out_w, 3 * kernel * kernel), dtype)
    assert_same_bytes(conv._col2im(cols, x_shape, kernel, stride, padding),
                      reference_col2im(cols, x_shape, kernel, stride, padding))


def run_conv(x, w, bias, grad, **geometry):
    ctx = Context()
    ctx.needs_input_grad = (True, True, True)
    out = conv.Conv2dOp.forward(ctx, x, w, bias, **geometry)
    return (out, *conv.Conv2dOp.backward(ctx, grad))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
def test_conv_op_matches_reference_kernels(kernel, stride, padding, dtype,
                                           monkeypatch):
    """The whole op, forward and every gradient, with either kernel pair."""
    x = make_input("relu", (2, 3, 7, 6), dtype)
    w = make_input("normal", (3 * kernel * kernel, 4), dtype, seed=2)
    bias = make_input("normal", (4,), dtype, seed=3)
    out_h, out_w = conv._out_hw(7, 6, kernel, stride, padding)
    grad = make_input("normal", (2, 4, out_h, out_w), dtype, seed=4)
    geometry = dict(kernel=kernel, stride=stride, padding=padding)
    got = run_conv(x, w, bias, grad, **geometry)
    monkeypatch.setattr(conv, "_im2col", reference_im2col)
    monkeypatch.setattr(conv, "_col2im", reference_col2im)
    want = run_conv(x, w, bias, grad, **geometry)
    for got_array, want_array in zip(got, want, strict=True):
        assert_same_bytes(got_array, want_array)


# -- batch_norm --------------------------------------------------------------
EPS = 1e-5


@register
class BatchNormOp(Op):
    """The deleted one-dispatch ``batch_norm`` kernel, kept as the reference.

    ``y = xhat * w + b`` per channel, then ``max(y, 0)`` when ``relu``; the
    train form (no running statistics) exposes its keepdims batch
    statistics on ``ctx.mean``/``ctx.var``.  Backward, with
    ``g = grad * (y > 0)`` and ``gx = g * w``: ``dbias = sum(g)``,
    ``dweight = sum(g * xhat)``, and ``dx = inv/m * (m*gx - sum(gx) - xhat
    * sum(gx * xhat))`` (train) or ``gx / std`` (eval).
    """

    name = "reference_batch_norm"

    @staticmethod
    def forward(ctx, x, weight, bias, *, axes, eps, relu=False,
                running_mean=None, running_var=None):
        axes = tuple(axes)
        shape = tuple(1 if a in axes else n for a, n in enumerate(x.shape))
        if running_mean is None:
            mean = x.mean(axis=axes, keepdims=True)
            centered = x - mean
            var = np.mean(centered * centered, axis=axes, keepdims=True)
            scale = 1.0 / np.sqrt(var + eps)
            xhat = centered * scale
            ctx.m = int(np.prod([x.shape[a] for a in axes]))
            ctx.mean = mean
            ctx.var = var
        else:
            scale = np.sqrt(running_var.reshape(shape) + np.float32(eps))
            xhat = (x - running_mean.reshape(shape)) / scale
        w = weight.reshape(shape)
        y = xhat * w + bias.reshape(shape)
        mask = None
        if relu:
            if any(ctx.needs_input_grad):
                mask = y > 0
            y = np.maximum(y, 0.0, out=y)
        ctx.save(xhat, scale, w, mask)
        ctx.axes = axes
        ctx.train = running_mean is None
        return y

    @staticmethod
    def backward(ctx, grad):
        xhat, scale, w, mask = ctx.saved
        g = grad if mask is None else grad * mask
        need_x, need_w, need_b = ctx.needs_input_grad
        gw = _unbroadcast(g * xhat, w.shape).reshape(-1) if need_w else None
        gb = _unbroadcast(g, w.shape).reshape(-1) if need_b else None
        if not need_x:
            return None, gw, gb
        gx = g * w
        if not ctx.train:
            return gx / scale, gw, gb
        axes, m = ctx.axes, ctx.m
        sum_g = gx.sum(axis=axes, keepdims=True)
        sum_gx = (gx * xhat).sum(axis=axes, keepdims=True)
        return (scale / m) * (m * gx - sum_g - xhat * sum_gx), gw, gb


def reference_batch_norm(x, weight, bias, axes, relu, running=None):
    """The replaced layer sequence, forward; returns ``(out, backward)``.

    Train: the affine-less ``batch_norm`` kernel.  Eval: ``x - mean``,
    ``var + eps`` (``eps`` coerced to a float32 constant), ``sqrt``, ``/``.
    Then ``w.reshape`` and ``mul``, ``b.reshape`` and ``add``, then ``relu``.
    ``backward(grad)`` returns ``(dx, dweight, dbias)`` as those ops'
    backward passes computed them.
    """
    if running is None:
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = np.mean(centered * centered, axis=axes, keepdims=True)
        inv = 1.0 / np.sqrt(var + EPS)
        xhat = centered * inv
        m = int(np.prod([x.shape[a] for a in axes]))
        shape = mean.shape
    else:
        shape = tuple(1 if a in axes else n for a, n in enumerate(x.shape))
        centered = x - running[0].reshape(shape)
        std = np.sqrt(running[1].reshape(shape)
                      + np.asarray(EPS, dtype=np.float32))
        xhat = centered / std
    w, b = weight.reshape(shape), bias.reshape(shape)
    product = xhat * w
    y = product + b
    out = np.maximum(y, 0.0) if relu else y
    mask = y > 0

    def backward(grad):
        gy = grad * mask if relu else grad
        gproduct = _unbroadcast(gy, product.shape)
        dbias = _unbroadcast(gy, b.shape).reshape(bias.shape)
        gxhat = _unbroadcast(gproduct * w, xhat.shape)
        dweight = _unbroadcast(gproduct * xhat, w.shape).reshape(weight.shape)
        if running is None:
            sum_g = gxhat.sum(axis=axes, keepdims=True)
            sum_gx = (gxhat * xhat).sum(axis=axes, keepdims=True)
            dx = (inv / m) * (m * gxhat - sum_g - xhat * sum_gx)
        else:
            dx = _unbroadcast(_unbroadcast(gxhat / std, centered.shape), x.shape)
        return dx, dweight, dbias

    return out, backward


BN_SHAPES = {
    "1d": ((6, 5), (0,)),
    "2d": ((3, 4, 5, 6), (0, 2, 3)),
    "2d-1x1": ((6, 4, 1, 1), (0, 2, 3)),
}
NEEDS = list(itertools.product([False, True], repeat=3))


def make_batch_norm_inputs(shape, seed=0):
    rng = np.random.default_rng(seed)
    channels = shape[1]
    if len(shape) == 4:
        # conv2d hands BatchNorm2d a channels-last buffer viewed as NCHW.
        n, c, h, w = shape
        x = rng.normal(size=(n, h, w, c)).astype(np.float32).transpose(0, 3, 1, 2)
    else:
        x = rng.normal(size=shape).astype(np.float32)
    weight = rng.normal(size=channels).astype(np.float32)
    bias = rng.normal(size=channels).astype(np.float32)
    running = (rng.normal(size=channels).astype(np.float32),
               rng.uniform(0.2, 2.0, size=channels).astype(np.float32))
    grad = rng.normal(size=shape).astype(np.float32)
    return x, weight, bias, running, grad


def needs_id(needs):
    """``grad-xb`` when x and the bias need a gradient and the weight not."""
    names = "".join(name for name, need in zip("xwb", needs) if need)
    return f"grad-{names or 'none'}"


@pytest.mark.parametrize("needs", NEEDS, ids=needs_id)
@pytest.mark.parametrize("relu", [False, True], ids=["affine", "relu"])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("layout", sorted(BN_SHAPES))
def test_batch_norm_matches_reference(layout, mode, relu, needs):
    shape, axes = BN_SHAPES[layout]
    x, weight, bias, running, grad = make_batch_norm_inputs(shape)
    stats = {} if mode == "train" else dict(running_mean=running[0],
                                            running_var=running[1])
    ctx = Context()
    ctx.needs_input_grad = needs
    out = BatchNormOp.forward(ctx, x, weight, bias, axes=axes, eps=EPS,
                              relu=relu, **stats)
    want_out, reference_backward = reference_batch_norm(
        x, weight, bias, axes, relu, None if mode == "train" else running)
    assert_same_bytes(out, want_out)
    if mode == "train":
        assert_same_bytes(ctx.mean, x.mean(axis=axes, keepdims=True))
    if not any(needs):
        return
    got = BatchNormOp.backward(ctx, grad)
    for need, got_array, want_array in zip(needs, got, reference_backward(grad),
                                           strict=True):
        if need:
            assert_same_bytes(got_array, want_array)
        else:
            assert got_array is None


# -- conv_stage ----------------------------------------------------------------
#: (H, W) of the 8x8 and 12x12 stage inputs and of what their pools leave:
#: per-sample sums of 64, 16 and 4 values (two 8-lane blocks and more, one
#: with a remainder, the short loop) and of 144, 36 and 9 (the split at 128).
SUM_SHAPES = [(8, 8), (4, 4), (2, 2), (12, 12), (6, 6), (3, 3), (1, 1)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("channels", [1, 5])
@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("h,w", SUM_SHAPES)
def test_channel_sum_matches_numpy(h, w, batch, channels, dtype):
    """The stage's per-channel sum is ``np.add.reduce`` over (0, 2, 3) of
    the contiguous NCHW array, from the channels-last rows."""
    rng = np.random.default_rng(0)
    x = (rng.normal(size=(batch, channels, h, w))
         * rng.uniform(0.1, 100.0, size=(1, channels, 1, 1))).astype(dtype)
    rows = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(batch, h * w,
                                                                 channels)
    assert_same_bytes(conv._channel_sum(rows), np.add.reduce(x, axis=(0, 2, 3)))


def make_stage_inputs(batch, size, kernel, dtype, seed=0):
    """x, the conv weight, the BatchNorm weight and bias, running stats.

    Sample 0 is all zeros (when there are others); channel 1's conv weights
    are zero, so it is one constant; channel 2's BatchNorm weight is zero,
    so every pool window of it is a tie."""
    rng = np.random.default_rng(seed)
    c_in, c_out = 3, 4
    x = np.maximum(rng.normal(size=(batch, c_in, size, size)), 0.0)
    if batch > 1:
        x[0] = 0.0
    w = rng.normal(size=(c_in * kernel * kernel, c_out))
    w[:, 1] = 0.0
    weight = rng.normal(size=c_out)
    weight[2] = 0.0
    bias = rng.normal(size=c_out)
    running = (rng.normal(size=c_out).astype(np.float32),
               rng.uniform(0.2, 2.0, size=c_out).astype(np.float32))
    return [a.astype(dtype) for a in (x, w, weight, bias)], running


def stage_grad(out_shape, dtype, seed=1):
    """A C-ordered strided view, as conv's col2im hands a gradient back."""
    n, c, h, w = out_shape
    grad = np.random.default_rng(seed).normal(size=(n, c, h + 2, w + 2))
    return grad.astype(dtype)[:, :, 1:-1, 1:-1]


def reference_stage(arrays, grad, needs, *, relu, pool, running, **geometry):
    """The stage as the ``conv2d``, ``batch_norm`` and ``maxpool2d`` kernels
    it replaces, forward and backward; returns the output, the BatchNorm's
    context and the four input gradients."""
    x, w, weight, bias = arrays
    need_x, need_w, need_weight, need_bias = needs
    conv_ctx, norm_ctx, pool_ctx = Context(), Context(), Context()
    conv_ctx.needs_input_grad = (need_x, need_w)
    norm_ctx.needs_input_grad = (need_x or need_w, need_weight, need_bias)
    pool_ctx.needs_input_grad = (any(needs),)
    stats = {} if running is None else dict(running_mean=running[0],
                                            running_var=running[1])
    y = conv.Conv2dOp.forward(conv_ctx, x, w, **geometry)
    y = BatchNormOp.forward(norm_ctx, y, weight, bias, axes=(0, 2, 3),
                            eps=norm.EPS, relu=relu, **stats)
    if pool:
        y = MaxPool2dOp.forward(pool_ctx, y, kernel=pool)
    if not any(needs):
        return y, norm_ctx, [None] * 4
    g = MaxPool2dOp.backward(pool_ctx, grad)[0] if pool else grad
    g, g_weight, g_bias = BatchNormOp.backward(norm_ctx, g)
    g_x = g_w = None
    if need_x or need_w:
        g_x, g_w = conv.Conv2dOp.backward(conv_ctx, g)
    return y, norm_ctx, [g_x, g_w, g_weight, g_bias]


#: Which of (x, conv weight, BatchNorm weight, BatchNorm bias) need a
#: gradient: a training step's layers, the first layer (data input) and a
#: frozen stage that passes a gradient through.
STAGE_NEEDS = {"grad-all": (True,) * 4, "grad-params": (False, True, True, True),
               "grad-x": (True, False, False, False), "grad-none": (False,) * 4}
STAGE_GEOMETRIES = [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]


def check_stage(arrays, grad, needs, **params):
    """The op against :func:`reference_stage`: output, batch statistics
    and every input gradient, raw."""
    want, norm_ctx, want_grads = reference_stage(arrays, grad, needs, **params)
    ctx = Context()
    ctx.needs_input_grad = needs
    out = conv.ConvStageOp.forward(ctx, *arrays, eps=norm.EPS, **params)
    assert_same_bytes(out, want)
    if params["running"] is None:
        assert_same_bytes(ctx.mean, norm_ctx.mean.reshape(-1))
        assert_same_bytes(ctx.var, norm_ctx.var.reshape(-1))
    if not any(needs):
        assert ctx.saved == ()
        return
    got_grads = conv.ConvStageOp.backward(ctx, grad)
    for need, got, want_grad in zip(needs, got_grads, want_grads, strict=True):
        if need:
            assert_same_bytes(got, want_grad)
        else:
            assert got is None


@pytest.mark.parametrize("needs", sorted(STAGE_NEEDS))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", [8, 12])
@pytest.mark.parametrize("kernel,stride,padding", STAGE_GEOMETRIES)
@pytest.mark.parametrize("pool", [0, 2], ids=["no-pool", "pool"])
@pytest.mark.parametrize("relu", [False, True], ids=["affine", "relu"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_conv_stage_matches_chain(mode, relu, pool, kernel, stride, padding,
                                  size, dtype, needs):
    arrays, running = make_stage_inputs(16, size, kernel, dtype)
    out_h, out_w = conv._out_hw(size, size, kernel, stride, padding)
    grad = stage_grad((16, 4, out_h // (pool or 1), out_w // (pool or 1)), dtype)
    check_stage(arrays, grad, STAGE_NEEDS[needs], kernel=kernel, stride=stride,
                padding=padding, relu=relu, pool=pool,
                running=None if mode == "train" else running)


@pytest.mark.parametrize("relu", [False, True], ids=["affine", "relu"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_conv_stage_matches_chain_on_one_value_per_channel(mode, relu):
    """One 1x1 sample: the chain returned each BatchNorm parameter's
    gradient unsummed, so a ``-0.0`` in it stays."""
    arrays, running = make_stage_inputs(1, 1, 1, np.float32)
    check_stage(arrays, stage_grad((1, 4, 1, 1), np.float32), (True,) * 4,
                kernel=1, stride=1, padding=0, relu=relu, pool=0,
                running=None if mode == "train" else running)


def test_conv_stage_rejects_mixed_dtypes():
    arrays, _running = make_stage_inputs(2, 8, 3, np.float32)
    arrays[2] = arrays[2].astype(np.float64)
    with pytest.raises(TypeError, match="one float32 or float64 dtype"):
        apply("conv_stage", *arrays, kernel=3, stride=1, padding=1,
              eps=norm.EPS)


def per_layer_batch_norm(monkeypatch):
    """Run every BatchNorm layer as the deleted ``batch_norm`` kernel."""
    def train(x, weight, bias, axes, eps, *, stat_callback):
        y, ctx = apply_ctx("reference_batch_norm", x, weight, bias, axes=axes,
                           eps=eps)
        stat_callback(ctx.mean, ctx.var)
        return y, ctx.mean, ctx.var

    def evaluate(x, weight, bias, running_mean, running_var, axes, eps):
        return apply("reference_batch_norm", x, weight, bias, axes=axes,
                     eps=eps, running_mean=running_mean,
                     running_var=running_var)

    monkeypatch.setattr(ops, "batch_norm_train", train)
    monkeypatch.setattr(ops, "batch_norm_eval", evaluate)


def run_backbone(model, x, grad):
    """One forward and backward; the output, the input's gradient, every
    parameter's gradient and every buffer."""
    inputs = Tensor(x, requires_grad=True)
    out = model(inputs)
    out.backward(grad)
    return ([out.data, inputs.grad] + [p.grad for p in model.parameters()]
            + [buf for _name, buf in model.named_buffers()])


BACKBONES = {
    "convnet": lambda size: TinyConvNet(image_size=size,
                                        rng=np.random.default_rng(0)),
    "resnet": lambda size: tiny_resnet(rng=np.random.default_rng(0)),
}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("backbone,size,batch", [
    *(("convnet", size, batch) for size in (8, 12)
      for batch in (1, 16, 24, 32, 128)),
    ("resnet", 8, 1), ("resnet", 8, 16)])
def test_backbone_matches_per_layer_chain(backbone, size, batch, training,
                                          monkeypatch):
    """TinyConvNet's three stages and tiny_resnet's stem, block convs and
    projection shortcut, each one ``conv_stage``, equal the layers run one
    by one with the deleted ``batch_norm`` kernel: output, input and
    parameter gradients and the running buffers after the EMA."""
    rng = np.random.default_rng(1)
    x = np.maximum(rng.normal(size=(batch, 3, size, size)), 0.0).astype(np.float32)
    x[0] = 0.0
    fused = BACKBONES[backbone](size).train(training)
    grad = rng.normal(size=(batch, fused.output_dim)).astype(np.float32)
    dispatched = dispatched_ops(monkeypatch, fused, x)
    assert "conv_stage" in dispatched
    assert not {"conv2d", "maxpool2d"} & set(dispatched)
    got = run_backbone(BACKBONES[backbone](size).train(training), x, grad)
    with monkeypatch.context() as patch, no_fusion():
        per_layer_batch_norm(patch)
        want = run_backbone(BACKBONES[backbone](size).train(training), x, grad)
    for got_array, want_array in zip(got, want, strict=True):
        assert_same_bytes(got_array, want_array)


# -- dispatch budget -------------------------------------------------------
def dispatched_ops(monkeypatch, block, x):
    """The op names one forward of ``block`` dispatches."""
    names = []
    dispatch = engine.apply_ctx

    def counting(name, *inputs, **params):
        names.append(name)
        return dispatch(name, *inputs, **params)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "apply_ctx", counting)
        block(Tensor(x))
    return names


def linear_block():
    rng = np.random.default_rng(0)
    return (Sequential(Linear(4, 6, rng=rng), BatchNorm1d(6), ReLU()),
            rng.normal(size=(5, 4)).astype(np.float32))


def conv_block():
    rng = np.random.default_rng(0)
    return (Sequential(Conv2d(3, 4, 3, padding=1, bias=False, rng=rng),
                       BatchNorm2d(4), ReLU(), MaxPool2d(2)),
            rng.normal(size=(2, 3, 4, 4)).astype(np.float32))


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("build,budget", [
    (linear_block, ["mlp"]),
    (conv_block, ["conv_stage"]),
], ids=["linear-bn-relu", "conv-bn-relu-pool"])
def test_block_dispatch_budget(build, budget, training, monkeypatch):
    """A run of Linear blocks is one dispatch, and so is a conv stage (the
    conv, its BatchNorm, the ReLU and the pool), in either mode."""
    block, x = build()
    block.train(training)
    assert dispatched_ops(monkeypatch, block, x) == budget
    with no_fusion():
        composed = dispatched_ops(monkeypatch, block, x)
    assert composed.count("relu") == 1
    assert budget[0] not in composed


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_tabular_backbone_is_one_dispatch(training, monkeypatch):
    """The 7-layer tabular encoder, 6 BatchNorm layers and all, is one run."""
    model = MLP(TABULAR_DIMS, rng=np.random.default_rng(0))
    model.train(training)
    x = np.random.default_rng(1).normal(size=(8, 20)).astype(np.float32)
    assert dispatched_ops(monkeypatch, model, x) == ["mlp"]


# -- mlp -----------------------------------------------------------------------
@register
class ReferenceLinearReluOp(Op):
    """The deleted ``linear_relu`` kernel, kept as the reference."""

    name = "reference_linear_relu"

    @staticmethod
    def forward(ctx, x, w, *bias):
        y = x @ w
        if bias:
            y += bias[0]
        mask = y > 0
        ctx.save(x, w, mask)
        return np.maximum(y, 0.0, out=y)

    @staticmethod
    def backward(ctx, grad):
        x, w, mask = ctx.saved
        gy = grad * mask
        gx = gy @ w.T if ctx.needs_input_grad[0] else None
        gw = x.T @ gy if ctx.needs_input_grad[1] else None
        if len(ctx.needs_input_grad) > 2 and ctx.needs_input_grad[2]:
            return gx, gw, gy.sum(axis=0)
        return (gx, gw) + (None,) * (len(ctx.needs_input_grad) - 2)


def reference_running_stats(running_mean, running_var, mean, var, count):
    """The per-layer EMA each BatchNorm layer ran on its own buffers."""
    m = norm.MOMENTUM
    unbias = count / max(count - 1, 1)
    return (((1 - m) * running_mean + m * mean.reshape(-1)).astype(np.float32),
            ((1 - m) * running_var + m * unbias * var.reshape(-1)).astype(np.float32))


def per_layer_run(x, params, layers, running):
    """The run as the dispatches it replaces; returns the output and the
    train-form layers' ``(mean, var)``."""
    params, stats, batch = iter(params), iter(running), []
    for bias, mode, relu in layers:
        inputs = [x, next(params)] + ([next(params)] if bias else [])
        kernel = "reference_linear_relu" if relu and mode is None else "linear"
        x = apply(kernel, *inputs)
        if mode == "train":
            x, ctx = apply_ctx("reference_batch_norm", x, next(params),
                               next(params), axes=(0,), eps=norm.EPS, relu=relu)
            batch.append((ctx.mean, ctx.var))
        elif mode == "eval":
            running_mean, running_var = next(stats)
            x = apply("reference_batch_norm", x, next(params), next(params),
                      axes=(0,), eps=norm.EPS, relu=relu,
                      running_mean=running_mean, running_var=running_var)
    return x, batch


TABULAR_DIMS = [20, 32, 32, 32, 32, 32, 32, 16]
#: (bias, norm, relu) per Linear: the 7-layer tabular backbone, the VAE's
#: BatchNorm-less encoder (final ReLU) and decoder (none), and a run whose
#: BatchNorm layers are in different modes.
MLP_RUNS = {
    "tabular": ((True, "train", True),) * 6 + ((True, None, False),),
    "tabular-eval": ((True, "eval", True),) * 6 + ((True, None, False),),
    "vae-encoder": ((True, None, True),),
    "vae-decoder": ((True, None, True), (True, None, False)),
    "mixed-modes": ((True, "train", True), (True, "eval", True),
                    (False, "train", False), (True, "eval", False),
                    (False, None, True)),
}
MLP_WIDTHS = {"tabular": TABULAR_DIMS, "tabular-eval": TABULAR_DIMS,
              "vae-encoder": [12, 8], "vae-decoder": [4, 8, 12],
              "mixed-modes": [6, 5, 4, 7, 3, 5]}


def make_mlp_inputs(run, rows, dtype, seed=0):
    """x, the parameters in input order, running stats and an upstream grad."""
    rng = np.random.default_rng(seed)
    widths = MLP_WIDTHS[run]
    x = rng.normal(size=(rows, widths[0])).astype(dtype)
    params, running = [], []
    for (bias, mode, _relu), (fan_in, fan_out) in zip(
            MLP_RUNS[run], zip(widths, widths[1:])):
        params.append(rng.normal(size=(fan_in, fan_out)).astype(np.float32))
        if bias:
            params.append(rng.normal(size=fan_out).astype(np.float32))
        if mode is not None:
            params += [rng.normal(size=fan_out).astype(np.float32)
                       for _ in range(2)]
            running.append((rng.normal(size=fan_out).astype(np.float32),
                            rng.uniform(0.2, 2.0, size=fan_out).astype(np.float32)))
    grad = rng.normal(size=(rows, widths[-1])).astype(dtype)
    return x, params, running, grad


def leaves(x, params, grad_x, frozen):
    """Fresh leaf tensors: ``x`` needing a gradient or not, and the first
    ``frozen`` parameters needing none."""
    return ([Tensor(x, requires_grad=grad_x)]
            + [Tensor(p, requires_grad=i >= frozen) for i, p in enumerate(params)])


@pytest.mark.parametrize("frozen", [False, True], ids=["all-grads", "first-frozen"])
@pytest.mark.parametrize("grad_x", [True, False], ids=["grad-x", "data-x"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rows", [12, 1])
@pytest.mark.parametrize("run", sorted(MLP_RUNS))
def test_mlp_matches_per_layer_dispatches(run, rows, dtype, grad_x, frozen):
    """Output, every input gradient and every running buffer after the EMA.

    ``first-frozen`` leaves the first layer's parameters without a
    gradient, so with ``data-x`` the backward stops above that layer."""
    layers = MLP_RUNS[run]
    x, params, running, grad = make_mlp_inputs(run, rows, dtype)
    modes = [mode for _bias, mode, _relu in layers if mode is not None]
    stats = [pair for pair, mode in zip(running, modes) if mode == "eval"]
    initial = [pair for pair, mode in zip(running, modes) if mode == "train"]
    bias, mode, _relu = layers[0]
    frozen = (1 + bias + 2 * (mode is not None)) if frozen else 0

    ref_inputs = leaves(x, params, grad_x, frozen)
    want, batch = per_layer_run(ref_inputs[0], ref_inputs[1:], layers, stats)
    got_inputs = leaves(x, params, grad_x, frozen)
    got, ctx = apply_ctx("mlp", *got_inputs, layers=layers, eps=norm.EPS,
                         running=tuple(stats))
    assert_same_bytes(got.data, want.data)

    assert got.requires_grad == want.requires_grad
    if want.requires_grad:
        want.backward(grad)
        got.backward(grad)
    for got_leaf, want_leaf in zip(got_inputs, ref_inputs, strict=True):
        if want_leaf.grad is None:
            assert got_leaf.grad is None
        else:
            assert_same_bytes(got_leaf.grad, want_leaf.grad)

    if not batch:
        return
    layers_of_run = [BatchNorm1d(mean.size) for mean, _var in initial]
    for layer, (mean, var) in zip(layers_of_run, initial):
        layer._set_buffer("running_mean", mean)
        layer._set_buffer("running_var", var)
    norm.update_running_stats(layers_of_run, ctx.mean, ctx.var, rows)
    for layer, (mean, var), (batch_mean, batch_var) in zip(
            layers_of_run, initial, batch, strict=True):
        want_mean, want_var = reference_running_stats(mean, var, batch_mean,
                                                      batch_var, rows)
        assert_same_bytes(layer.running_mean, want_mean)
        assert_same_bytes(layer.running_var, want_var)


@pytest.mark.parametrize("tail", ["float32", "float64"])
def test_sequential_run_matches_per_layer_dispatches(tail, monkeypatch):
    """The layer-level fold: a tabular MLP whose BatchNorm layers alternate
    modes equals its per-layer dispatches, running buffers included.  From
    a float64 fourth Linear on, the statistics of its train-form layers
    would mix dtypes, so the run goes layer by layer, each BatchNorm layer
    on its own (here as the deleted kernel, the per-layer reference)."""
    model = MLP(TABULAR_DIMS, rng=np.random.default_rng(0))
    if tail == "float64":
        linear = model.net.layers[9]
        # No forward has run: no graph holds the rebound weight.
        linear.weight.data = linear.weight.data.astype(np.float64)  # repro-lint: disable=AD001
        per_layer_batch_norm(monkeypatch)
    batch_norms = [m for m in model.modules() if isinstance(m, BatchNorm1d)]
    for i, layer in enumerate(batch_norms):
        layer.train(i % 2 == 0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 20)).astype(np.float32)
    grad = rng.normal(size=(8, 16)).astype(np.float32)
    params = [p.data for p in model.parameters()]
    layers = tuple((True, "train" if bn.training else "eval", True)
                   for bn in batch_norms) + ((True, None, False),)
    stats = [(bn.running_mean, bn.running_var) for bn in batch_norms
             if not bn.training]
    trained = [bn for bn in batch_norms if bn.training]
    initial = [(bn.running_mean, bn.running_var) for bn in trained]

    ref_inputs = leaves(x, params, False, 0)
    want, batch = per_layer_run(ref_inputs[0], ref_inputs[1:], layers, stats)
    want.backward(grad)
    dispatched = dispatched_ops(monkeypatch, model, x)
    assert (dispatched == ["mlp"]) == (tail == "float32")
    for bn, (mean, var) in zip(trained, initial):  # undo that forward's EMA
        bn._set_buffer("running_mean", mean)
        bn._set_buffer("running_var", var)
    model.zero_grad()
    out = model(Tensor(x))
    out.backward(grad)
    assert_same_bytes(out.data, want.data)
    for param, want_leaf in zip(model.parameters(), ref_inputs[1:], strict=True):
        assert_same_bytes(param.grad, want_leaf.grad)
    for layer, (mean, var), (batch_mean, batch_var) in zip(
            trained, initial, batch, strict=True):
        want_mean, want_var = reference_running_stats(mean, var, batch_mean,
                                                      batch_var, 8)
        assert_same_bytes(layer.running_mean, want_mean)
        assert_same_bytes(layer.running_var, want_var)


def test_a_repeated_layer_makes_no_run(monkeypatch):
    """Its weights would take their gradient contributions in another
    order than per-layer dispatch gives them."""
    rng = np.random.default_rng(0)
    layer = Linear(4, 4, rng=rng)
    block = Sequential(layer, ReLU(), layer)
    x = rng.normal(size=(3, 4)).astype(np.float32)
    assert dispatched_ops(monkeypatch, block, x) == ["linear", "relu", "linear"]


@pytest.mark.parametrize("change", ["conv-bias", "float64-norm"])
def test_a_stage_the_op_cannot_take_runs_layer_by_layer(change, monkeypatch):
    """A conv with a bias, or a stage whose arrays mix dtypes, keeps its
    per-layer dispatches."""
    rng = np.random.default_rng(0)
    conv_layer = Conv2d(3, 4, 3, padding=1, bias=change == "conv-bias", rng=rng)
    norm_layer = BatchNorm2d(4)
    if change == "float64-norm":
        # No forward has run: no graph holds the rebound weight.
        norm_layer.weight.data = norm_layer.weight.data.astype(np.float64)  # repro-lint: disable=AD001
    block = Sequential(conv_layer, norm_layer, ReLU(), MaxPool2d(2))
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    dispatched = dispatched_ops(monkeypatch, block, x)
    assert "conv_stage" not in dispatched
    assert dispatched[0] == "conv2d" and dispatched[-2:] == ["relu", "maxpool2d"]
