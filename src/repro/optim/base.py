"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Holds a parameter list and applies per-parameter updates.

    Subclasses implement :meth:`_update` for a single parameter given its
    gradient; state (momentum buffers etc.) is kept per parameter id.
    State serialization (:meth:`state_dict` / :meth:`load_state_dict`) keys
    the per-parameter slots by *position* in the parameter list, so a resumed
    optimizer over freshly constructed parameters of the same model picks up
    its momentum/moment buffers exactly where it left off.
    """

    #: Scalar attributes included in :meth:`state_dict`; subclasses extend.
    _hyper_keys: tuple[str, ...] = ("lr",)

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

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full optimizer state: hyper-parameters plus per-parameter slots.

        The ``state`` entry is a list aligned with ``self.parameters``;
        each element maps slot names (``momentum``, ``m``, ``v``, ``step``)
        to copied arrays/ints, so the snapshot is immune to later steps.
        """
        slots = []
        for p in self.parameters:
            slot = self._state.get(id(p), {})
            slots.append({k: v.copy() if isinstance(v, np.ndarray) else v
                          for k, v in slot.items()})
        return {
            "hyper": {key: getattr(self, key) for key in self._hyper_keys},
            "state": slots,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto this optimizer's parameters."""
        slots = state["state"]
        if len(slots) != len(self.parameters):
            raise ValueError(
                f"optimizer state holds {len(slots)} parameter slots, "
                f"this optimizer has {len(self.parameters)} parameters")
        for key, value in state["hyper"].items():
            if key not in self._hyper_keys:
                raise KeyError(f"unknown optimizer hyper-parameter {key!r}")
            setattr(self, key, value)
        self._state = {}
        for p, slot in zip(self.parameters, slots):
            if slot:
                self._state[id(p)] = {
                    k: v.copy() if isinstance(v, np.ndarray) else v
                    for k, v in slot.items()}
