"""The op registry and the single dispatch choke point of the tensor engine.

Every differentiable primitive in the library is a named :class:`Op` — an
explicit ``forward``/``backward`` pair registered in a process-wide table —
and every primitive call goes through :func:`apply`.  This replaces the
original design where each operation taped an ad-hoc Python closure per
parent: closures capture tensors lazily (the AD002 bug class), cannot share
intermediate work between parent gradients, and leave no seam for fusion.

What the choke point buys:

- **One taping path.**  Anomaly checks, dtype policy, version snapshots and
  graph construction happen in exactly one place instead of being repeated
  (and occasionally forgotten) in every primitive.
- **Op-level backward.**  ``Op.backward(ctx, grad)`` computes the gradients
  of *all* inputs in one call, so fused ops reuse shared intermediates
  (masks, norms, normalized activations) across parents.
- **Eager saving.**  Ops stash the arrays they need via ``ctx.save(...)`` at
  forward time, so backward never reads a tensor's ``.data`` lazily — the
  late-binding failure mode AD002 polices is structurally impossible for
  registered ops.
- **A float32 dtype policy.**  The output dtype is pinned at dispatch time:
  float64 is produced only when the graph is genuinely float64 (gradcheck);
  stray float64 scalars or kernel upcasts can no longer promote a float32
  activation graph (see :func:`result_dtype`).
- **Fusion seams.**  Layers consult :func:`fusion_enabled` and swap a
  composed chain (e.g. matmul + add + relu) for a single registered fused op
  with identical semantics; :func:`no_fusion` restores the unfused
  composition for parity testing.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.tensor import anomaly

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.tensor.tensor import Tensor

__all__ = [
    "Context",
    "Op",
    "active_capture",
    "apply",
    "apply_ctx",
    "fusion_enabled",
    "get_op",
    "is_grad_enabled",
    "no_fusion",
    "no_grad",
    "register",
    "registered_ops",
    "registry_fingerprint",
    "result_dtype",
    "set_fusion",
]

DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Used for evaluation, representation extraction for data selection, and
    snapshotting the old model's outputs during distillation.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


_FUSION_ENABLED = True


def fusion_enabled() -> bool:
    """Return whether layers should dispatch fused kernels."""
    return _FUSION_ENABLED


def set_fusion(enabled: bool) -> bool:
    """Enable/disable fused kernels globally; returns the previous setting."""
    global _FUSION_ENABLED
    previous = _FUSION_ENABLED
    _FUSION_ENABLED = bool(enabled)
    return previous


@contextlib.contextmanager
def no_fusion():
    """Context manager forcing the unfused reference compositions.

    The composed path is the reference every fused kernel must match: the
    fused-vs-composed parity and gradcheck tests run each op both ways.
    """
    previous = set_fusion(False)
    try:
        yield
    finally:
        set_fusion(previous)


class Context:
    """Per-call scratchpad linking an op's forward to its backward.

    ``save(*arrays)`` stores the arrays backward needs (eager, by reference:
    rebinding an input tensor's ``.data`` afterwards cannot change what was
    saved).  Ops are free to attach extra attributes (``ctx.axis = ...``).
    ``needs_input_grad`` mirrors torch: a tuple of bools aligned with the
    op's inputs so backward can skip gradients nobody will consume.
    """

    def __init__(self):
        self.saved: tuple = ()
        self.needs_input_grad: tuple[bool, ...] = ()

    def save(self, *arrays) -> None:
        self.saved = arrays


class Op:
    """A named differentiable primitive.

    Subclasses set ``name`` and implement ``forward``/``backward`` as
    static methods:

    - ``forward(ctx, *arrays, **params) -> np.ndarray`` receives the raw
      input arrays (already unwrapped from their tensors) plus keyword
      parameters, and may stash state on ``ctx``;
    - ``backward(ctx, grad) -> Sequence[np.ndarray | None]`` returns one
      gradient per input, positionally aligned; ``None`` marks an input
      that needs no gradient.
    """

    name: str = ""

    @staticmethod
    def forward(ctx: Context, *arrays: np.ndarray, **params) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Op]] = {}

# Bumped on every registration; (version, size) is the cheap O(1) identity a
# captured tape pins so replay notices a registry that changed under it.
_REGISTRY_VERSION = 0


def register(cls: type[Op]) -> type[Op]:
    """Class decorator adding an :class:`Op` subclass to the registry."""
    global _REGISTRY_VERSION
    if not cls.name:
        raise ValueError(f"op class {cls.__name__} must set a non-empty name")
    if cls.name in _REGISTRY:
        raise ValueError(f"op {cls.name!r} is already registered "
                         f"(by {_REGISTRY[cls.name].__name__})")
    _REGISTRY[cls.name] = cls
    _REGISTRY_VERSION += 1
    return cls


def registry_fingerprint() -> tuple[int, int]:
    """An O(1) identity of the registry contents, for tape validity checks."""
    return (_REGISTRY_VERSION, len(_REGISTRY))


def get_op(name: str) -> type[Op]:
    """Look up a registered op by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"no op registered under {name!r}; "
                       f"known ops: {', '.join(sorted(_REGISTRY))}") from None


def registered_ops() -> dict[str, type[Op]]:
    """Snapshot of the registry (name -> op class)."""
    return dict(_REGISTRY)


# The Tensor class binds itself here at import time; engine cannot import
# tensor.py at module level without a cycle.
_TENSOR_CLS = None


def _bind_tensor_class(cls) -> None:
    global _TENSOR_CLS
    _TENSOR_CLS = cls


# The active tape capture (set by repro.tensor.tape.capture); apply_ctx
# reports every dispatch to it, and code with per-step randomness (the
# VAE sampler) poisons it via mark_unsafe so a recorded program with
# baked-in random constants is never replayed.
_ACTIVE_CAPTURE = None


def active_capture():
    """The :class:`repro.tensor.tape.Tape` currently recording, or ``None``."""
    return _ACTIVE_CAPTURE


def result_dtype(inputs: Sequence["Tensor"]):
    """The float32-policy output dtype for an op over ``inputs``.

    Python/numpy scalars coerce to *weak* tensors that never steer the
    result dtype (so a stray ``np.float64(0.5)`` cannot upcast a float32
    graph), mirroring NEP 50.  The result is float64 only when some strong
    (array-backed) input is float64 — the gradcheck configuration, which
    builds pure-float64 graphs.  Everything else, including any kernel that
    internally upcasts (reductions, ``np.trace``-style accumulators), is
    pinned back to float32 at the dispatch layer.
    """
    for t in inputs:
        if not t._weak and t._data.dtype == np.float64:
            return np.float64
    return DEFAULT_DTYPE


def apply_ctx(name: str, *inputs, **params):
    """Dispatch op ``name`` and return ``(output_tensor, context)``.

    This is the engine's single choke point: input coercion, the forward
    kernel, the anomaly check, the dtype policy and graph taping all happen
    here.  The context is returned so callers that need forward by-products
    (BatchNorm's batch statistics) can read them without recomputing;
    ordinary callers use :func:`apply`.
    """
    tensor_cls = _TENSOR_CLS
    op = _REGISTRY.get(name) or get_op(name)
    tensors = tuple([t if isinstance(t, tensor_cls) else tensor_cls(t)
                     for t in inputs])

    ctx = Context()
    ctx.needs_input_grad = tuple([_GRAD_ENABLED and t.requires_grad
                                  for t in tensors])

    data = op.forward(ctx, *[t._data for t in tensors], **params)

    expected = result_dtype(tensors)
    if data.dtype != expected:
        data = data.astype(expected)

    if anomaly.is_anomaly_enabled():
        anomaly.check_forward(data, name)

    if any(ctx.needs_input_grad):
        out = tensor_cls(data, requires_grad=True, _op=name)
        parents = tuple([t for t in tensors if t.requires_grad])
        out._parents = parents
        out._parent_versions = tuple([t._version for t in parents])
        out._op_cls = op
        out._ctx = ctx
        out._inputs = tensors
    else:
        # Nobody will run backward through this node: drop whatever the op
        # stashed for it so eval / representation-extraction passes don't
        # retain activation copies for the lifetime of the output tensor.
        ctx.saved = ()
        out = tensor_cls(data, requires_grad=False)
    if _ACTIVE_CAPTURE is not None:
        _ACTIVE_CAPTURE.record_apply(name, op, tensors, params, out, ctx)
    return out, ctx


def apply(name: str, *inputs, **params):
    """Dispatch op ``name`` on ``inputs`` and return the output tensor."""
    return apply_ctx(name, *inputs, **params)[0]
