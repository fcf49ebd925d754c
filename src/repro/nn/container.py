"""Module containers."""

from __future__ import annotations

from repro.nn import norm
from repro.nn.activation import ReLU
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.tensor import engine, ops
from repro.tensor.tensor import Tensor


class Sequential(Module):
    """Chains modules in order; submodules register as ``layer0`` etc.

    When fusion is enabled, each run of ``Linear`` layers, each optionally
    followed by a ``BatchNorm1d`` and/or a ``ReLU``, dispatches as one
    ``mlp`` op on 2-D input, and a ``(BatchNorm1d or BatchNorm2d, ReLU)``
    pair outside such a run runs the ReLU inside the ``batch_norm``
    kernel.  The runs are found once, in ``__init__``; the fusion is a
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
        for blocks, steps in self._plan:
            if blocks is not None and x.ndim == 2:
                out = _run(x, blocks)
                if out is not None:
                    x = out
                    continue
            for layer, relu in steps:
                x = layer(x, relu=True) if relu else layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


def _plan(layers: list[Module]) -> list[tuple]:
    """Split ``layers`` into ``(blocks, steps)`` entries.

    ``blocks`` is ``None`` for a single layer, or a run's
    ``(linear, batch_norm or None, relu)`` blocks; ``steps`` is the
    entry's ``(layer, relu)`` calls layer by layer.  ``layers`` holding
    one module twice makes no runs: that module's weights would take
    their gradient contributions in another order.
    """
    shared = len({id(layer) for layer in layers}) < len(layers)
    plan: list[tuple] = []
    i, count = 0, len(layers)
    while i < count:
        start, blocks = i, []
        while not shared and i < count and type(layers[i]) is Linear:
            linear, batch_norm = layers[i], None
            i += 1
            if i < count and type(layers[i]) is BatchNorm1d:
                batch_norm = layers[i]
                i += 1
            relu = i < count and type(layers[i]) is ReLU
            i += relu
            blocks.append((linear, batch_norm, relu))
        if not blocks:
            i += 1 + _folds_relu(layers, i)
        plan.append((tuple(blocks) or None, _steps(layers[start:i])))
    return plan


def _steps(layers: list[Module]) -> list[tuple[Module, bool]]:
    """``(layer, relu)`` per call, a ReLU after a BatchNorm folded into it."""
    steps, i = [], 0
    while i < len(layers):
        fold = _folds_relu(layers, i)
        steps.append((layers[i], fold))
        i += 1 + fold
    return steps


def _folds_relu(layers: list[Module], i: int) -> bool:
    """Whether ``layers[i]`` is a BatchNorm that runs the next layer's ReLU."""
    return (type(layers[i]) in (BatchNorm1d, BatchNorm2d) and i + 1 < len(layers)
            and type(layers[i + 1]) is ReLU)


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
