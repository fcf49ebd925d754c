"""Module containers."""

from __future__ import annotations

from repro.nn import norm
from repro.nn.activation import ReLU
from repro.nn.conv import Conv2d, run_stage
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.nn.pool import MaxPool2d
from repro.tensor import engine, ops
from repro.tensor.tensor import Tensor


class Sequential(Module):
    """Chains modules in order; submodules register as ``layer0`` etc.

    When fusion is enabled, each run of ``Linear`` layers, each optionally
    followed by a ``BatchNorm1d`` and/or a ``ReLU``, dispatches as one
    ``mlp`` op on 2-D input, and each ``Conv2d`` followed by a
    ``BatchNorm2d``, then optionally a ``ReLU`` and/or a ``MaxPool2d``,
    as one ``conv_stage`` op (see :func:`repro.nn.conv.run_stage`).  The
    runs and stages are found once, in ``__init__``; the fusion is a
    call-time rewrite: the layer list, the parameters, and ``state_dict``
    layout are unchanged, and disabling fusion
    (:func:`repro.tensor.engine.no_fusion`) runs the layers one by one.
    """

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
        self._plan = _plan(self.layers)

    def forward(self, x: Tensor) -> Tensor:
        if not engine.fusion_enabled():
            for layer in self.layers:
                x = layer(x)
            return x
        for blocks, stage, layers in self._plan:
            if stage is not None:
                x = run_stage(x, *stage)
                continue
            if blocks is not None and x.ndim == 2:
                out = _run(x, blocks)
                if out is not None:
                    x = out
                    continue
            for layer in layers:
                x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


def _plan(layers: list[Module]) -> list[tuple]:
    """Split ``layers`` into ``(blocks, stage, layers)`` entries.

    ``blocks`` is a run's ``(linear, batch_norm or None, relu)`` blocks,
    ``stage`` a conv stage's ``(conv, batch_norm, relu, pool or None)``,
    and ``layers`` the entry's layers, called one by one when it is
    neither (or its run falls back).  ``layers`` holding one module twice
    makes no runs or stages: that module's weights would take their
    gradient contributions in another order.
    """
    shared = len({id(layer) for layer in layers}) < len(layers)
    plan: list[tuple] = []
    i, count = 0, len(layers)
    while i < count:
        start, blocks, stage = i, [], None
        while not shared and i < count and type(layers[i]) is Linear:
            linear, batch_norm = layers[i], None
            i += 1
            if i < count and type(layers[i]) is BatchNorm1d:
                batch_norm = layers[i]
                i += 1
            relu = i < count and type(layers[i]) is ReLU
            i += relu
            blocks.append((linear, batch_norm, relu))
        if (not blocks and not shared and type(layers[i]) is Conv2d
                and i + 1 < count and type(layers[i + 1]) is BatchNorm2d):
            i += 2
            relu = i < count and type(layers[i]) is ReLU
            i += relu
            pool = layers[i] if i < count and type(layers[i]) is MaxPool2d else None
            i += pool is not None
            stage = (layers[start], layers[start + 1], relu, pool)
        elif not blocks:
            i += 1
        plan.append((tuple(blocks) or None, stage, layers[start:i]))
    return plan


def _run(x: Tensor, blocks) -> Tensor | None:
    """One ``mlp`` dispatch over a run, or ``None`` when it has several
    train-form BatchNorm layers and its parameters mix dtypes: the flat
    running-statistics EMA is exact only over statistics of one dtype."""
    params, layers, running, train = [], [], [], []
    for linear, batch_norm, relu in blocks:
        params.append(linear.weight)
        if linear.bias is not None:
            params.append(linear.bias)
        mode = None
        if batch_norm is not None:
            params += (batch_norm.weight, batch_norm.bias)
            if batch_norm.training:
                mode = "train"
                train.append(batch_norm)
            else:
                mode = "eval"
                running.append((batch_norm.running_mean, batch_norm.running_var))
        layers.append((linear.bias is not None, mode, relu))
    if len(train) > 1 and len({p.dtype for p in params}) > 1:
        return None
    if running:
        norm.mark_eval_unsafe()
    callback = None
    if train:
        count = x.shape[0]

        def callback(mean, var):
            norm.update_running_stats(train, mean, var, count)
    return ops.mlp(x, params, tuple(layers), eps=norm.EPS,
                   running=tuple(running), stat_callback=callback)
