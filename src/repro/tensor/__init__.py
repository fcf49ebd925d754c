"""Reverse-mode automatic differentiation on numpy arrays.

This package is the computational substrate of the reproduction: a small but
complete autograd engine in the spirit of PyTorch's eager autograd.  The
:class:`~repro.tensor.tensor.Tensor` class wraps a ``numpy.ndarray`` and
records the operations applied to it; :meth:`Tensor.backward` replays the
recorded graph in reverse topological order and accumulates gradients.

Design notes
------------
- Broadcasting follows numpy semantics; gradients of broadcast operands are
  reduced back to the operand shape (see ``_unbroadcast``).
- ``Tensor.detach()`` implements the paper's stop-gradient ``sg(.)`` operator
  (Eq. 3 of the paper) exactly: it returns a view of the same data with the
  tape cut.
- ``no_grad()`` disables tape recording for inference-only code paths
  (evaluation, data selection, memory snapshots).
- ``detect_anomaly()`` enables the runtime sanitizer: every forward output
  and backward gradient is checked for NaN/Inf and errors name the
  offending op (see :mod:`repro.tensor.anomaly`).
"""

from repro.tensor.anomaly import AnomalyError, detect_anomaly, is_anomaly_enabled
from repro.tensor.engine import (
    Context,
    Op,
    apply,
    apply_ctx,
    fusion_enabled,
    get_op,
    no_fusion,
    register,
    registered_ops,
    set_fusion,
)
from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.tape import Tape, TapedFunction, capture
from repro.tensor import ops
from repro.tensor.ops import (
    exp,
    log,
    sqrt,
    sigmoid,
    relu,
    log_softmax,
    l2_normalize,
)
from repro.tensor.gradcheck import numerical_gradient, check_gradients

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Context",
    "Op",
    "Tape",
    "TapedFunction",
    "apply",
    "apply_ctx",
    "capture",
    "fusion_enabled",
    "get_op",
    "no_fusion",
    "register",
    "registered_ops",
    "set_fusion",
    "ops",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "relu",
    "log_softmax",
    "l2_normalize",
    "numerical_gradient",
    "check_gradients",
    "AnomalyError",
    "detect_anomaly",
    "is_anomaly_enabled",
]
