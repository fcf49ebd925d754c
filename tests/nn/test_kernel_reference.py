"""Reference parity for the rewritten ``maxpool2d``, ``conv2d``, ``batch_norm`` and ``mlp`` kernels.

``MaxPool2dOp`` takes its max as a chain of ``np.maximum`` over the k²
slices ``x[:, :, i::k, j::k]``; ``_im2col`` and ``_col2im`` copy and
scatter-add k² channels-last slices; ``BatchNormOp`` applies the affine,
the eval form and a trailing ReLU inside one dispatch; ``MlpOp`` runs a
whole run of Linear[+BatchNorm1d][+ReLU] blocks in one dispatch.  The
functions below are the forms they replaced: the 6-D reshape max-pool
with its broadcast tie mask, the ``as_strided`` im2col, the NCHW col2im,
the BatchNorm layer's op sequence (the affine-less train kernel or the
eval ``sub``/``add``/``sqrt``/``div`` chain, then ``reshape``/``mul``/
``reshape``/``add`` and a ``relu`` op), and a run's per-layer dispatches
(``linear``, the deleted ``linear_relu`` kernel kept here, ``batch_norm``)
with each BatchNorm layer's own running-statistics EMA.  Both sides
perform the same IEEE operations in the same accumulation order, so every
comparison is on bytes, dtypes and strides, with no tolerance.  Strides
count because a reduction downstream may sum a contiguous array in
another order than a strided view of the same values.
"""

import itertools

import numpy as np
import pytest

from repro.nn import (MLP, BatchNorm1d, BatchNorm2d, Conv2d, Linear,
                      MaxPool2d, ReLU, Sequential, conv, norm)
from repro.nn.pool import MaxPool2dOp
from repro.tensor import Tensor, engine, no_fusion
from repro.tensor.core_ops import BatchNormOp, _unbroadcast
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
    (conv_block, ["conv2d", "batch_norm", "maxpool2d"]),
], ids=["linear-bn-relu", "conv-bn-relu-pool"])
def test_block_dispatch_budget(build, budget, training, monkeypatch):
    """A run of Linear blocks is one dispatch; a conv layer is one, and its
    BatchNorm, carrying the affine and the ReLU, another."""
    block, x = build()
    block.train(training)
    assert dispatched_ops(monkeypatch, block, x) == budget
    with no_fusion():
        composed = dispatched_ops(monkeypatch, block, x)
    assert composed.count("relu") == 1
    assert "batch_norm" not in composed and "mlp" not in composed


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
            x, ctx = apply_ctx("batch_norm", x, next(params), next(params),
                               axes=(0,), eps=norm.EPS, relu=relu)
            batch.append((ctx.mean, ctx.var))
        elif mode == "eval":
            running_mean, running_var = next(stats)
            x = apply("batch_norm", x, next(params), next(params), axes=(0,),
                      eps=norm.EPS, relu=relu, running_mean=running_mean,
                      running_var=running_var)
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
    would mix dtypes, so the run goes layer by layer."""
    model = MLP(TABULAR_DIMS, rng=np.random.default_rng(0))
    if tail == "float64":
        linear = model.net.layers[9]
        # No forward has run: no graph holds the rebound weight.
        linear.weight.data = linear.weight.data.astype(np.float64)  # repro-lint: disable=AD001
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
