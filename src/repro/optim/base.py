"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Holds a parameter list and applies the update rule in flat groups.

    :meth:`step` gathers the parameters that have a gradient, groups them
    by step count and by the dtypes of every array the rule reads, and
    runs the subclass's :meth:`_update` once per group over flat
    concatenations.  The rule is elementwise, so each parameter gets the
    bytes a per-parameter update would give it.  State (the step count and
    the arrays named by :attr:`state_arrays`) is kept per parameter id.
    The trainer builds a fresh optimizer for every task and every restore,
    so this state is never checkpointed.
    """

    #: Per-parameter state arrays the rule keeps; each starts as zeros
    #: shaped like its parameter.
    state_arrays: tuple[str, ...] = ()

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer got an empty parameter list")
        if len({id(p) for p in self.parameters}) < len(self.parameters):
            raise ValueError("optimizer got a parameter more than once")
        self.lr = float(lr)
        self._state: dict[int, dict] = {}

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear gradients before the next backward.

        ``set_to_none=False`` zero-fills each existing ``.grad`` array in
        place instead of dropping it, so the engine accumulates the next
        backward into the same buffers (no per-step gradient allocation).
        Note :meth:`step` then updates every parameter that has ever
        received a gradient — with sparse gradients and momentum/weight
        decay this is not equivalent to skipping grad-less parameters,
        which is why ``set_to_none=True`` stays the default.
        """
        for p in self.parameters:
            p.zero_grad(set_to_none=set_to_none)

    def step(self) -> None:
        """Update every parameter that has a gradient, one group at a time."""
        names = self.state_arrays
        groups: dict[tuple, list] = {}
        for p in self.parameters:
            grad = p.grad
            if grad is None:
                continue
            data = p.data
            if grad.shape != data.shape:
                raise ValueError(f"gradient of shape {grad.shape} for a "
                                 f"parameter of shape {data.shape}")
            state = self._state.setdefault(id(p), {})
            key = (state.get("step", 0), data.dtype, grad.dtype,
                   *[state[name].dtype if name in state else data.dtype
                     for name in names])
            groups.setdefault(key, []).append((p, data, grad, state))
        for (count, *_dtypes), members in groups.items():
            step = count + 1
            data, buffers = self._update(
                np.concatenate([data for _p, data, _grad, _state in members],
                               axis=None),
                np.concatenate([grad for _p, _data, grad, _state in members],
                               axis=None),
                {name: np.concatenate([state[name] if name in state
                                       else np.zeros_like(data)
                                       for _p, data, _grad, state in members],
                                      axis=None)
                 for name in names},
                step)
            start = 0
            for p, old, _grad, state in members:
                stop = start + old.size
                p.data = data[start:stop].reshape(old.shape)
                for name, array in buffers.items():
                    state[name] = array[start:stop].reshape(old.shape)
                state["step"] = step
                start = stop

    def _update(self, data: np.ndarray, grad: np.ndarray,
                buffers: dict[str, np.ndarray],
                step: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The rule over one group: flat ``data``, ``grad`` and state
        ``buffers``, and the group's new step count; returns the new data
        and buffers."""
        raise NotImplementedError
