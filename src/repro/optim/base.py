"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable

from repro.nn.module import Parameter


class Optimizer:
    """Holds a parameter list and applies per-parameter updates.

    Subclasses implement :meth:`_update` for a single parameter given its
    gradient; state (momentum buffers etc.) is kept per parameter id.  The
    trainer builds a fresh optimizer for every task and every restore, so
    this state is never checkpointed.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer got an empty parameter list")
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
        for p in self.parameters:
            if p.grad is None:
                continue
            state = self._state.setdefault(id(p), {})
            self._update(p, state)

    def _update(self, param: Parameter, state: dict) -> None:
        raise NotImplementedError
