"""Functional operations on :class:`~repro.tensor.tensor.Tensor`.

These are the pointwise nonlinearities and the composite conveniences
used across the library (``log_softmax``, ``l2_normalize``, ``mse``).
Each dispatches registered ops through the engine's ``apply`` choke
point; the fusable ones (``l2_normalize``,
``cosine_similarity``, ``normalized_mse``, ``linear``) consult
:func:`~repro.tensor.engine.fusion_enabled` and fall back to the unfused
reference composition under :func:`~repro.tensor.engine.no_fusion` so
parity tests can pin the two paths against each other.  ``mlp`` and
``conv_stage`` always dispatch their fused op: their per-layer reference
is the layers under ``no_fusion()``.  ``batch_norm_train`` and
``batch_norm_eval`` are compositions only; a BatchNorm layer outside an
``mlp`` run or a conv stage runs them.
"""

from __future__ import annotations

from repro.tensor import engine
from repro.tensor.engine import apply as _apply
from repro.tensor.tensor import Tensor


def exp(x: Tensor) -> Tensor:
    return _apply("exp", x)


def log(x: Tensor) -> Tensor:
    return _apply("log", x)


def sqrt(x: Tensor) -> Tensor:
    return _apply("sqrt", x)


def sigmoid(x: Tensor) -> Tensor:
    return _apply("sigmoid", x)


def relu(x: Tensor) -> Tensor:
    return _apply("relu", x)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - log(exp(shifted).sum(axis=axis, keepdims=True))


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalize rows to unit Euclidean norm (used by cosine similarities)."""
    if engine.fusion_enabled():
        return _apply("l2normalize", x, axis=axis, eps=eps)
    norm = sqrt((x * x).sum(axis=axis, keepdims=True) + eps)
    return x / norm


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error between two tensors (DER's distillation loss)."""
    diff = a - b
    return (diff * diff).mean()


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Row-wise cosine similarity."""
    if engine.fusion_enabled():
        return _apply("cosine_rows", a, b, axis=axis)
    return (l2_normalize(a, axis=axis) * l2_normalize(b, axis=axis)).sum(axis=axis)


def normalized_mse(p: Tensor, t: Tensor, axis: int = -1) -> Tensor:
    """Per-row ``sum((l2n(p) - l2n(t))**2, axis)`` (BYOL's regression loss)."""
    if engine.fusion_enabled():
        return _apply("normalized_mse", p, t, axis=axis)
    diff = l2_normalize(p, axis=axis) - l2_normalize(t, axis=axis)
    return (diff * diff).sum(axis=axis)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``x @ weight (+ bias)`` for 2-D activations."""
    if engine.fusion_enabled() and x.ndim == 2:
        if bias is None:
            return _apply("linear", x, weight)
        return _apply("linear", x, weight, bias)
    out = x @ weight
    return out if bias is None else out + bias


def mlp(x: Tensor, params, layers, *, eps: float, running=(),
        stat_callback=None) -> Tensor:
    """A run of MLP layers as one ``mlp`` dispatch (see ``MlpOp``).

    ``params`` are the run's parameters in layer order (each Linear's
    weight and bias, then its BatchNorm's weight and bias), ``layers`` one
    ``(bias, norm, relu)`` per Linear, ``running`` the eval-form
    BatchNorm layers' running statistics.  ``stat_callback(mean, var)``
    receives the train-form layers' batch statistics, concatenated (see
    :func:`_report_stats`).
    """
    out, ctx = engine.apply_ctx("mlp", x, *params, layers=layers, eps=eps,
                                running=running)
    _report_stats(stat_callback, ctx)
    return out


def conv_stage(x: Tensor, weight: Tensor, norm_weight: Tensor,
               norm_bias: Tensor, *, kernel: int, stride: int, padding: int,
               eps: float, relu: bool = False, pool: int = 0, running=None,
               stat_callback=None) -> Tensor:
    """A bias-free Conv2d, its BatchNorm2d, an optional ReLU and an
    optional MaxPool2d (kernel ``pool``) as one ``conv_stage`` dispatch
    (see ``ConvStageOp``).

    ``running`` is ``None`` for the train form, or the eval form's
    ``(running_mean, running_var)``.  ``stat_callback(mean, var)``
    receives the train form's batch statistics (see
    :func:`_report_stats`).  Its per-layer reference is the layers under
    ``no_fusion()``.
    """
    out, ctx = engine.apply_ctx("conv_stage", x, weight, norm_weight,
                                norm_bias, kernel=kernel, stride=stride,
                                padding=padding, eps=eps, relu=relu,
                                pool=pool, running=running)
    _report_stats(stat_callback, ctx)
    return out


def _report_stats(stat_callback, ctx) -> None:
    """Hand a fused op's batch statistics, ``ctx.mean``/``ctx.var``, to
    ``stat_callback`` (the running-stat update), and register it as a
    replay hook when a tape capture is active, so a replayed step updates
    the running averages exactly like an eager one."""
    if stat_callback is None:
        return
    stat_callback(ctx.mean, ctx.var)
    cap = engine.active_capture()
    if cap is not None:
        cap.record_stat_hook(stat_callback, ctx=ctx)


def _affine(xhat: Tensor, weight: Tensor, bias: Tensor,
            shape: tuple[int, ...]) -> Tensor:
    """The BatchNorm tail: ``xhat * weight + bias``."""
    return xhat * weight.reshape(*shape) + bias.reshape(*shape)


def batch_norm_train(x: Tensor, weight: Tensor, bias: Tensor,
                     axes: tuple[int, ...], eps: float, *,
                     stat_callback=None):
    """Train-mode batch normalization and its affine, composed of ops.

    Returns ``(y, mean, var)``.  ``mean``/``var`` are the batch statistics
    as plain keepdims arrays (for running-stat updates), not tensors on the
    tape.  ``stat_callback`` is the running-stat update itself, called here
    as ``callback(mean, var)`` and — when a tape capture is active —
    registered as a replay hook on the ``mean``/``var`` nodes so a
    replayed step updates the running averages exactly like an eager one.
    """
    axes = tuple(axes)
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    xhat = centered / sqrt(var + eps)
    if stat_callback is not None:
        stat_callback(mean.data, var.data)
        cap = engine.active_capture()
        if cap is not None:
            cap.record_stat_hook(stat_callback, tensors=(mean, var))
    return _affine(xhat, weight, bias, mean.shape), mean.data, var.data


def batch_norm_eval(x: Tensor, weight: Tensor, bias: Tensor,
                    running_mean, running_var, axes: tuple[int, ...],
                    eps: float) -> Tensor:
    """Eval-mode batch normalization over per-channel running statistics.

    ``running_mean``/``running_var`` are plain ``(C,)`` arrays: constants,
    not tensors on the tape.  Then the affine, as in
    :func:`batch_norm_train`.
    """
    axes = tuple(axes)
    shape = tuple(1 if a in axes else n for a, n in enumerate(x.shape))
    mean = Tensor(running_mean.reshape(shape))
    var = Tensor(running_var.reshape(shape))
    return _affine((x - mean) / sqrt(var + eps), weight, bias, shape)
