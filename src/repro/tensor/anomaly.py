"""Runtime autograd sanitizer (the ``torch.autograd.set_detect_anomaly`` analog).

Two orthogonal safety nets guard the tape:

- :func:`detect_anomaly` — a context manager that makes every primitive
  check its forward output, and :meth:`Tensor.backward` check every
  gradient contribution, for NaN/Inf.  Violations raise
  :class:`AnomalyError` naming the offending op; under anomaly mode each
  tensor also records the Python stack that created it so the error can
  point at the producing call site, exactly like torch's anomaly mode.
- a per-tensor version counter (always on, see ``tensor.py``) — rebinding
  ``t.data`` bumps ``t._version``; ``backward()`` compares each saved
  parent's current version against the version recorded when the op was
  taped and raises if a tensor saved for backward was modified after the
  fact.

Anomaly mode costs one ``np.isfinite`` reduction per op plus a stack
capture per tensor, so it is opt-in; the version counter is a single
integer bump and is always enforced.
"""

from __future__ import annotations

import contextlib
import traceback

import numpy as np

__all__ = ["AnomalyError", "detect_anomaly", "is_anomaly_enabled"]

_ANOMALY_ENABLED = False


class AnomalyError(RuntimeError):
    """Raised when anomaly mode finds a non-finite forward value or gradient."""


def is_anomaly_enabled() -> bool:
    """Return whether NaN/Inf checking is currently active."""
    return _ANOMALY_ENABLED


@contextlib.contextmanager
def detect_anomaly():
    """Enable NaN/Inf checking for every op taped inside the block.

    Forward: every op result dispatched through ``engine.apply`` is checked
    as it is created.  Backward: each gradient contribution produced while the
    context is active is checked before it is accumulated.  Both raise
    :class:`AnomalyError` naming the op; forward errors also carry the
    stack that created the tensor.
    """
    global _ANOMALY_ENABLED
    previous = _ANOMALY_ENABLED
    _ANOMALY_ENABLED = True
    try:
        yield
    finally:
        _ANOMALY_ENABLED = previous


def capture_stack(skip: int = 2, limit: int = 12) -> str:
    """Format the current Python stack, dropping ``skip`` innermost frames."""
    frames = traceback.format_stack()
    trimmed = frames[:-skip] if skip else frames
    return "".join(trimmed[-limit:])


def check_forward(data: np.ndarray, op: str) -> None:
    """Raise :class:`AnomalyError` if a forward output contains NaN/Inf."""
    if not np.isfinite(data).all():
        kind = "NaN" if np.isnan(data).any() else "Inf"
        raise AnomalyError(
            f"anomaly detected: forward of op '{op or 'leaf'}' produced {kind}\n"
            f"created at:\n{capture_stack(skip=3)}"
        )


def check_backward(grad: np.ndarray, op: str, created_at: str | None) -> None:
    """Raise :class:`AnomalyError` if a gradient contribution contains NaN/Inf."""
    if not np.isfinite(grad).all():
        kind = "NaN" if np.isnan(grad).any() else "Inf"
        where = f"\nforward was taped at:\n{created_at}" if created_at else ""
        raise AnomalyError(
            f"anomaly detected: backward of op '{op or 'leaf'}' produced "
            f"{'a NaN' if kind == 'NaN' else 'an Inf'} gradient{where}"
        )
