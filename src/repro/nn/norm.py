"""Batch normalization (1-D and 2-D).

Training mode normalizes with batch statistics and updates exponential
running averages; eval mode uses the running averages.  Running stats are
registered buffers so they travel with ``state_dict`` snapshots of the old
model, which matters for distillation: the frozen old model must normalize
exactly as it did when it finished its task.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor
from repro.tensor import engine, ops

#: Weight of the newest batch in the running-statistics EMA, and the
#: variance floor inside the square root (torch's defaults).
MOMENTUM = 0.1
EPS = 1e-5


class _BatchNorm(Module):
    def __init__(self, num_features: int):
        super().__init__()
        self.num_features = num_features
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def _normalize(self, x: Tensor, axes: tuple[int, ...]) -> Tensor:
        # The composed ops: a BatchNorm layer on its own is not a hot path
        # (inside an ``mlp`` run or a conv stage it runs in that dispatch).
        if self.training:
            # The batch statistics reach update_running_stats through the
            # stat callback.
            count = math.prod(x.shape[a] for a in axes)
            return ops.batch_norm_train(
                x, self.weight, self.bias, axes, EPS,
                stat_callback=lambda mean, var: update_running_stats(
                    (self,), mean, var, count))[0]
        mark_eval_unsafe()
        return ops.batch_norm_eval(x, self.weight, self.bias, self.running_mean,
                                   self.running_var, axes, EPS)


def update_running_stats(layers, mean: np.ndarray, var: np.ndarray,
                         count: int) -> None:
    """One EMA step of the running statistics of ``layers`` from one batch.

    ``mean``/``var`` are the layers' batch statistics over ``count``
    values per channel, concatenated in layer order.  The EMA runs once
    over the concatenated buffers; elementwise it is each layer's own, so
    every buffer gets the bytes a per-layer update would give it.  Routed
    through a ``stat_callback`` so a tape replay (which skips the layers'
    Python code entirely) re-fires the same update with the replayed
    batch statistics.
    """
    m = MOMENTUM
    running_mean = np.concatenate([layer.running_mean for layer in layers])
    running_var = np.concatenate([layer.running_var for layer in layers])
    running_mean = ((1 - m) * running_mean + m * mean.reshape(-1)).astype(np.float32)
    # unbiased variance for the running estimate, as torch does
    unbias = count / max(count - 1, 1)
    running_var = ((1 - m) * running_var + m * unbias * var.reshape(-1)).astype(np.float32)
    start = 0
    for layer in layers:
        stop = start + layer.running_mean.size
        layer._set_buffer("running_mean", running_mean[start:stop])
        layer._set_buffer("running_var", running_var[start:stop])
        start = stop


def mark_eval_unsafe() -> None:
    """Poison an active tape capture: eval-form BatchNorm reads running
    statistics the tape would bake in as constants."""
    cap = engine.active_capture()
    if cap is not None:
        cap.mark_unsafe("eval-mode BatchNorm reads running stats the "
                        "tape would bake in as constants")


class BatchNorm1d(_BatchNorm):
    """Normalizes (N, F) activations per feature.

    Inside a run of MLP layers (see :class:`~repro.nn.container.Sequential`)
    the layer runs in the run's ``mlp`` dispatch.
    """

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, F), got {x.shape}")
        return self._normalize(x, axes=(0,))


class BatchNorm2d(_BatchNorm):
    """Normalizes (N, C, H, W) activations per channel.

    After a Conv2d the layer runs in the conv's ``conv_stage`` dispatch
    (see :func:`repro.nn.conv.run_stage`).
    """

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W), got {x.shape}")
        return self._normalize(x, axes=(0, 2, 3))
