"""``Module``/``Parameter`` infrastructure (the ``torch.nn.Module`` analog).

Modules form a tree via attribute assignment.  They provide:

- ``parameters()`` / ``named_parameters()`` traversal for optimizers,
- ``train()`` / ``eval()`` mode switching (BatchNorm behaves differently),
- ``state_dict()`` / ``load_state_dict()`` for snapshotting the *old model*
  used by distillation-based continual methods, and
- ``copy()`` producing an independent frozen clone of the module.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor import memplan
from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` registered as a learnable leaf of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters must stay on the tape even when created inside no_grad.
        self.requires_grad = True


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._modules: dict[str, "Module"] = {}
        # Train/eval mode is a runtime toggle, not model state: checkpoints
        # restore parameters/buffers and the loader decides the mode.
        self.training = True  # repro-lint: disable=SER002

    # ------------------------------------------------------------------
    # Attribute-based registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place of reference."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _name, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear parameter gradients.

        ``set_to_none=False`` zero-fills each existing ``.grad`` buffer in
        place instead of dropping it, so backward accumulates into the same
        arrays every step (no per-step gradient allocation).

        Like ``Optimizer.zero_grad``, this is a step boundary for the tape
        memory planner: live replay arenas are bump-reset here.
        """
        for p in self.parameters():
            p.zero_grad(set_to_none=set_to_none)
        memplan.on_step_boundary()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy all parameters and buffers into a flat ``name -> array`` map."""
        state: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state["buffer:" + name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        expected = set(params) | {"buffer:" + n for n, _b in self.named_buffers()}
        missing = expected - set(state)
        unexpected = set(state) - expected
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}")
            # Sanctioned rebind: loading a checkpoint happens outside any live
            # graph, and the version counter records it for safety anyway.
            param.data = state[name].copy().astype(param.data.dtype)  # repro-lint: disable=AD001
        self._load_buffers(state, prefix="")

    def _load_buffers(self, state: dict[str, np.ndarray], prefix: str) -> None:
        for name in list(self._buffers):
            key = "buffer:" + prefix + name
            self._set_buffer(name, state[key].copy())
        for name, module in self._modules.items():
            module._load_buffers(state, prefix + name + ".")

    def copy(self) -> "Module":
        """Deep, independent copy of this module (parameters and buffers)."""
        import copy as _copy

        clone = _copy.deepcopy(self)
        clone.zero_grad()
        return clone

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
