"""Registered :class:`~repro.tensor.engine.Op` classes for every primitive.

Part one is the core surface (arithmetic, shape, reductions, activations);
part two is the fused kernels (linear+bias, l2-normalize, row-wise cosine,
normalized MSE, and a whole run of MLP layers) whose backward passes
compute all input gradients from shared intermediates in a single call.
The conv stage (conv + BatchNorm + ReLU + max-pool) registers beside
``conv2d`` in ``repro.nn.conv``.  Each fused op has an exact unfused
reference composition — the parity property tests in
``tests/tensor/test_fusion_parity.py`` pin forward and gradients of the
two paths against each other.

All ops save what backward needs eagerly via ``ctx.save(...)`` and consult
``ctx.needs_input_grad`` to skip gradients nobody will consume.  ``None``
marks a skipped input gradient.  Every ``forward`` allocates its own
result; eager dispatch and tape replay run the same code.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.engine import DEFAULT_DTYPE, Context, Op, register


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
@register
class AddOp(Op):
    name = "add"

    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.shapes = (a.shape, b.shape)
        return a + b

    @staticmethod
    def backward(ctx: Context, grad):
        sa, sb = ctx.shapes
        ga = _unbroadcast(grad, sa) if ctx.needs_input_grad[0] else None
        gb = _unbroadcast(grad, sb) if ctx.needs_input_grad[1] else None
        return ga, gb


@register
class NegOp(Op):
    name = "neg"

    @staticmethod
    def forward(ctx: Context, a):
        return -a

    @staticmethod
    def backward(ctx: Context, grad):
        return (-grad,)


@register
class SubOp(Op):
    name = "sub"

    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.shapes = (a.shape, b.shape)
        return a - b

    @staticmethod
    def backward(ctx: Context, grad):
        sa, sb = ctx.shapes
        ga = _unbroadcast(grad, sa) if ctx.needs_input_grad[0] else None
        gb = _unbroadcast(-grad, sb) if ctx.needs_input_grad[1] else None
        return ga, gb


@register
class MulOp(Op):
    name = "mul"

    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save(a, b)
        return a * b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        ga = _unbroadcast(grad * b, a.shape) if ctx.needs_input_grad[0] else None
        gb = _unbroadcast(grad * a, b.shape) if ctx.needs_input_grad[1] else None
        return ga, gb


@register
class DivOp(Op):
    name = "div"

    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save(a, b)
        return a / b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        ga = _unbroadcast(grad / b, a.shape) if ctx.needs_input_grad[0] else None
        gb = (_unbroadcast(-grad * a / (b ** 2), b.shape)
              if ctx.needs_input_grad[1] else None)
        return ga, gb


@register
class PowOp(Op):
    name = "pow"

    @staticmethod
    def forward(ctx: Context, a, *, exponent: float):
        ctx.save(a)
        ctx.exponent = exponent
        return a ** exponent

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        e = ctx.exponent
        return (grad * e * a ** (e - 1),)


@register
class MatMulOp(Op):
    name = "matmul"

    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save(a, b)
        return a @ b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        ga = gb = None
        if ctx.needs_input_grad[0]:
            if b.ndim == 1:
                ga = np.outer(grad, b) if a.ndim == 2 else grad * b
            else:
                ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
        if ctx.needs_input_grad[1]:
            if a.ndim == 1:
                gb = np.outer(a, grad) if b.ndim == 2 else grad * a
            else:
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
        return ga, gb


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
@register
class ReshapeOp(Op):
    # Returns a view of its input.
    name = "reshape"

    @staticmethod
    def forward(ctx: Context, a, *, shape):
        ctx.original = a.shape
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad.reshape(ctx.original),)


@register
class TransposeOp(Op):
    # View op, like reshape.
    name = "transpose"

    @staticmethod
    def forward(ctx: Context, a, *, axes):
        ctx.inverse = np.argsort(axes)
        return a.transpose(axes)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad.transpose(ctx.inverse),)


@register
class GetItemOp(Op):
    name = "getitem"

    @staticmethod
    def forward(ctx: Context, a, *, index):
        ctx.index = index
        ctx.shape = a.shape
        ctx.dtype = a.dtype
        return np.asarray(a[index])

    @staticmethod
    def backward(ctx: Context, grad):
        full = np.zeros(ctx.shape, dtype=ctx.dtype)
        np.add.at(full, ctx.index, grad)
        return (full,)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
@register
class SumOp(Op):
    name = "sum"

    @staticmethod
    def forward(ctx: Context, a, *, axis=None, keepdims: bool = False):
        ctx.shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        return np.asarray(a.sum(axis=axis, keepdims=keepdims))

    @staticmethod
    def backward(ctx: Context, grad):
        if ctx.axis is None:
            return (np.broadcast_to(grad, ctx.shape),)
        expanded = grad if ctx.keepdims else np.expand_dims(grad, ctx.axis)
        return (np.broadcast_to(expanded, ctx.shape),)


@register
class MaxOp(Op):
    name = "max"

    @staticmethod
    def forward(ctx: Context, a, *, axis=None, keepdims: bool = False):
        out = np.asarray(a.max(axis=axis, keepdims=keepdims))
        ctx.save(a, out)
        ctx.axis = axis
        ctx.keepdims = keepdims
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        a, out = ctx.saved
        axis, keepdims = ctx.axis, ctx.keepdims
        if axis is None:
            mask = (a == out).astype(grad.dtype)
            mask /= mask.sum()
            return (mask * grad,)
        expanded = out if keepdims else np.expand_dims(out, axis)
        mask = (a == expanded).astype(grad.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)
        g_expanded = grad if keepdims else np.expand_dims(grad, axis)
        return (mask * g_expanded,)


# ----------------------------------------------------------------------
# Pointwise nonlinearities
# ----------------------------------------------------------------------
@register
class ExpOp(Op):
    name = "exp"

    @staticmethod
    def forward(ctx: Context, a):
        out = np.exp(a)
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * out,)


@register
class LogOp(Op):
    name = "log"

    @staticmethod
    def forward(ctx: Context, a):
        ctx.save(a)
        return np.log(a)

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        return (grad / a,)


@register
class SqrtOp(Op):
    name = "sqrt"

    @staticmethod
    def forward(ctx: Context, a):
        out = np.sqrt(a)
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * 0.5 / out,)


@register
class SigmoidOp(Op):
    name = "sigmoid"

    @staticmethod
    def forward(ctx: Context, a):
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * out * (1.0 - out),)


@register
class ReluOp(Op):
    name = "relu"

    @staticmethod
    def forward(ctx: Context, a):
        ctx.mask = a > 0
        return np.maximum(a, 0.0)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad * ctx.mask,)


# ----------------------------------------------------------------------
# Fused kernels
# ----------------------------------------------------------------------
@register
class LinearOp(Op):
    """Fused ``x @ w + b`` for 2-D activations (one kernel, one tape node).

    Reference composition: ``matmul`` then broadcast ``add``.
    """

    name = "linear"

    @staticmethod
    def forward(ctx: Context, x, w, *bias):
        ctx.save(x, w)
        out = x @ w
        if bias:
            out += bias[0]
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        x, w = ctx.saved
        gx = grad @ w.T if ctx.needs_input_grad[0] else None
        gw = x.T @ grad if ctx.needs_input_grad[1] else None
        if len(ctx.needs_input_grad) > 2 and ctx.needs_input_grad[2]:
            return gx, gw, grad.sum(axis=0)
        return (gx, gw) + (None,) * (len(ctx.needs_input_grad) - 2)


@register
class L2NormalizeOp(Op):
    """Fused ``x / sqrt(sum(x*x, axis) + eps)``.

    Reference composition: ``mul`` + ``sum`` + ``add`` + ``sqrt`` + ``div``
    (5 tape nodes).  Backward uses the closed form
    ``dx = (g - out * sum(g * out, axis)) / norm``, exact including eps
    because ``out * norm == x`` identically.
    """

    name = "l2normalize"

    @staticmethod
    def forward(ctx: Context, x, *, axis: int = -1, eps: float = 1e-12):
        norm = np.sqrt((x * x).sum(axis=axis, keepdims=True) + eps)
        out = x / norm
        ctx.save(out, norm)
        ctx.axis = axis
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        out, norm = ctx.saved
        inner = (grad * out).sum(axis=ctx.axis, keepdims=True)
        return ((grad - out * inner) / norm,)


@register
class CosineRowsOp(Op):
    """Fused row-wise cosine similarity ``sum(l2n(a) * l2n(b), axis)``.

    Reference composition: two ``l2_normalize`` chains + ``mul`` + ``sum``
    (12 tape nodes).  Shares the normalized activations between the two
    input gradients:

    ``ga = g * (b_hat - c * a_hat) / ||a||``,
    ``gb = g * (a_hat - c * b_hat) / ||b||``.
    """

    name = "cosine_rows"

    @staticmethod
    def forward(ctx: Context, a, b, *, axis: int = -1, eps: float = 1e-12):
        na = np.sqrt((a * a).sum(axis=axis, keepdims=True) + eps)
        nb = np.sqrt((b * b).sum(axis=axis, keepdims=True) + eps)
        ah = a / na
        bh = b / nb
        cos = (ah * bh).sum(axis=axis)
        ctx.save(ah, bh, na, nb)
        ctx.cos_kept = np.expand_dims(cos, axis)
        ctx.axis = axis
        return cos

    @staticmethod
    def backward(ctx: Context, grad):
        ah, bh, na, nb = ctx.saved
        c = ctx.cos_kept
        g = np.expand_dims(grad, ctx.axis)
        ga = g * (bh - c * ah) / na if ctx.needs_input_grad[0] else None
        gb = g * (ah - c * bh) / nb if ctx.needs_input_grad[1] else None
        return ga, gb


@register
class NormalizedMseOp(Op):
    """Fused BYOL regression loss ``sum((l2n(p) - l2n(t))**2, axis)``.

    Reference composition: two ``l2_normalize`` chains + ``sub`` + ``mul``
    + ``sum``.  With ``d = p_hat - t_hat``:

    ``gp = 2 * (g*d - p_hat * sum(g*d*p_hat, axis)) / ||p||`` and the
    symmetric expression for ``gt``.
    """

    name = "normalized_mse"

    @staticmethod
    def forward(ctx: Context, p, t, *, axis: int = -1, eps: float = 1e-12):
        np_norm = np.sqrt((p * p).sum(axis=axis, keepdims=True) + eps)
        nt_norm = np.sqrt((t * t).sum(axis=axis, keepdims=True) + eps)
        ph = p / np_norm
        th = t / nt_norm
        diff = ph - th
        result = (diff * diff).sum(axis=axis)
        ctx.save(ph, th, diff, np_norm, nt_norm)
        ctx.axis = axis
        return result

    @staticmethod
    def backward(ctx: Context, grad):
        ph, th, diff, np_norm, nt_norm = ctx.saved
        axis = ctx.axis
        g = np.expand_dims(grad, axis)
        gd = 2.0 * g * diff
        gp = gt = None
        if ctx.needs_input_grad[0]:
            gp = (gd - ph * (gd * ph).sum(axis=axis, keepdims=True)) / np_norm
        if ctx.needs_input_grad[1]:
            gt = (-gd + th * (gd * th).sum(axis=axis, keepdims=True)) / nt_norm
        return gp, gt


_FLOAT64 = np.dtype(np.float64)


def _policy_dtype(*arrays):
    """The dtype ``engine.result_dtype`` gives an op over strong ``arrays``."""
    for a in arrays:
        if a.dtype == _FLOAT64:
            return np.float64
    return DEFAULT_DTYPE


def _channel_sum(g):
    """``_unbroadcast(g, (1, C)).reshape(-1)`` for a 2-D ``g``: a row of
    one is returned as it is, since ``np.add.reduce`` would turn its
    ``-0.0`` entries into ``0.0``."""
    return g.reshape(-1) if g.shape[0] == 1 else np.add.reduce(g, axis=0)


@register
class MlpOp(Op):
    """A run of ``Linear`` layers, each optionally followed by
    ``BatchNorm1d`` and/or ``ReLU``, as one dispatch over 2-D input.

    The inputs are ``x`` and then, per layer, the Linear weight, its bias
    if it has one, and the BatchNorm weight and bias if it has one.
    ``layers`` holds one ``(bias, norm, relu)`` per Linear: whether a bias
    follows the weight, ``None``, ``"train"`` or ``"eval"`` for the
    BatchNorm1d after it, and whether a ReLU ends the block.  ``running``
    lists the eval-form layers' ``(running_mean, running_var)`` in order.

    Reference composition: one ``linear`` dispatch per Linear (or the
    retired ``linear_relu`` when a ReLU follows it directly) and one
    dispatch of the retired ``batch_norm`` kernel per BatchNorm1d, the
    ReLU folded in (both kept in ``tests/nn/test_kernel_reference.py``).  Each
    layer runs those kernels' IEEE operations in their order and casts its
    output to the dtype ``apply_ctx`` would give it, so the run equals the
    per-layer dispatches byte for byte.  Two spellings differ without
    changing a bit: the batch statistics are ``np.add.reduce`` then
    ``np.true_divide(s, np.intp(m), out=s, casting="unsafe")``, which is
    what ``np.mean`` runs, and the gradient sums are ``np.add.reduce``
    where the kernels call ``_unbroadcast`` (see ``_channel_sum``) or
    ``.sum``.  The train form exposes the batch statistics of its
    train-form BatchNorm layers, concatenated in layer order, as
    ``ctx.mean``/``ctx.var``.
    """

    name = "mlp"

    @staticmethod
    def forward(ctx: Context, x, *params, layers, eps: float, running=()):
        needs = ctx.needs_input_grad
        saved, means, variances = [], [], []
        stats = iter(running)
        need = needs[0]  # whether the current activation needs a gradient
        i = 0
        for bias, norm, relu in layers:
            w = params[i]
            y = x @ w
            if bias:
                b = params[i + 1]
                y += b
                dtype = _policy_dtype(x, w, b)
                out_need = need or needs[i + 1] or needs[i + 2]
            else:
                dtype = _policy_dtype(x, w)
                out_need = need or needs[i + 1]
            mask = None
            if relu and norm is None:
                if out_need:
                    mask = y > 0
                y = np.maximum(y, 0.0, out=y)
            if y.dtype != dtype:
                y = y.astype(dtype)
            if out_need:
                saved.append((False, x, w, i + 1, bias, mask, need))
            i += 1 + bias
            need = out_need
            x = y
            if norm is None:
                continue
            weight, shift = params[i], params[i + 1]
            if norm == "train":
                m = x.shape[0]
                mean = np.add.reduce(x, axis=0, keepdims=True)
                np.true_divide(mean, np.intp(m), out=mean, casting="unsafe")
                centered = x - mean
                var = np.add.reduce(centered * centered, axis=0, keepdims=True)
                np.true_divide(var, np.intp(m), out=var, casting="unsafe")
                scale = 1.0 / np.sqrt(var + eps)
                xhat = centered * scale
                means.append(mean.reshape(-1))
                variances.append(var.reshape(-1))
            else:
                m = None
                running_mean, running_var = next(stats)
                scale = np.sqrt(running_var.reshape(1, -1) + np.float32(eps))
                xhat = (x - running_mean.reshape(1, -1)) / scale
            y = xhat * weight + shift
            out_need = need or needs[i + 1] or needs[i + 2]
            mask = None
            if relu:
                if out_need:
                    mask = y > 0
                y = np.maximum(y, 0.0, out=y)
            dtype = _policy_dtype(x, weight, shift)
            if y.dtype != dtype:
                y = y.astype(dtype)
            if out_need:
                saved.append((True, xhat, scale, weight, i + 1, mask, m, need))
            i += 2
            need = out_need
            x = y
        ctx.save(*saved)
        if means:
            ctx.mean = np.concatenate(means)
            ctx.var = np.concatenate(variances)
        return x

    @staticmethod
    def backward(ctx: Context, grad):
        needs = ctx.needs_input_grad
        grads = [None] * len(needs)
        for record in reversed(ctx.saved):
            if record[0]:
                _norm, xhat, scale, weight, j, mask, m, need_x = record
                g = grad if mask is None else grad * mask
                if needs[j]:
                    grads[j] = _channel_sum(g * xhat)
                if needs[j + 1]:
                    grads[j + 1] = _channel_sum(g)
                if not need_x:
                    break
                gx = g * weight
                if m is None:
                    grad = gx / scale
                    continue
                sum_g = np.add.reduce(gx, axis=0, keepdims=True)
                sum_gx = np.add.reduce(gx * xhat, axis=0, keepdims=True)
                grad = (scale / m) * (m * gx - sum_g - xhat * sum_gx)
            else:
                _norm, x, w, j, bias, mask, need_x = record
                if mask is not None:
                    grad = grad * mask
                if needs[j]:
                    grads[j] = x.T @ grad
                if bias and needs[j + 1]:
                    grads[j + 1] = np.add.reduce(grad, axis=0)
                if not need_x:
                    break
                grad = grad @ w.T
        else:
            grads[0] = grad
        return grads
