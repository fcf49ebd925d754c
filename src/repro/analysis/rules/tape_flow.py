"""TAPE002 — tensor-valued control flow on the tape-capture path.

A captured tape replays a *fixed* instruction list.  Any branch whose
condition depends on tensor values — ``if (loss.item()) > t:``,
``while err.any():``, truthiness of an op result — makes the recorded
program a function of the data it was captured on: replaying it on a
different batch silently executes the captured branch, not the branch
the data asks for.  PR 4's runtime defence is :meth:`Tape.mark_unsafe`;
this rule is the static complement, catching branches the runtime only
notices when (if) they fire during a capture.

Mechanics: the call graph seeds at the capture surface — every
``forward`` method, every SSL loss entry point (``css_loss``), and every
function handed to :class:`~repro.tensor.tape.TapedFunction` or run
under :func:`~repro.tensor.tape.capture` — and closes transitively.
Within reachable functions, a "tensor" taint flows from engine dispatch
(``apply``/``apply_ctx``/``repro.tensor.ops.*``), ``Tensor(...)``
construction, and calls into project ``forward``/``__call__`` layers;
``if``/``while`` tests (and ``assert``\\ s) carrying that taint — or
calling ``.item()``/``.any()``/``.all()`` on it — are flagged.

Declaring capture-poisoning
    A function that calls ``mark_unsafe`` *is* the declaration: it tells
    the active capture its program must never be replayed, which is
    exactly the contract (the VAE sampler, BYOL's momentum update,
    eval-mode BatchNorm).  Such functions are exempt.  The
    tape/engine/autograd infrastructure itself (``repro.tensor``'s engine, tape, tensor,
    anomaly, gradcheck modules) is exempt by module: it manipulates the
    recording machinery, it does not run under it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow import TaintSpec, analyze_function, expr_labels
from repro.analysis.index import FunctionInfo, ProjectIndex
from repro.analysis.linter import ProjectRule, Violation

_EXEMPT_MODULES = {
    "repro.tensor.engine", "repro.tensor.tape", "repro.tensor.tensor",
    "repro.tensor.anomaly", "repro.tensor.gradcheck",
}

_CAPTURE_ROOT_NAMES = {"forward", "css_loss", "batch_loss"}

_TENSOR_PRODUCERS = {
    "repro.tensor.engine.apply", "repro.tensor.engine.apply_ctx",
    "repro.tensor.tensor.Tensor",
}
_TENSOR_PRODUCER_PREFIXES = ("repro.tensor.ops.",)
_TENSOR_PRODUCER_SUFFIXES = ("engine.apply", "engine.apply_ctx", "Tensor")

#: Scalar-extraction / data-dependent-predicate methods on tensor values.
_VALUE_READS = {"item", "any", "all", "nonzero", "argmax", "argmin"}


class _TensorTaintSpec(TaintSpec):
    #: Structural facts about a tensor (rank, shape, dtype) are identical
    #: across batches of a shape-stable step — branching on them is safe.
    stable_attrs = frozenset({"ndim", "shape", "dtype", "size"})

    def __init__(self, index: ProjectIndex):
        self.index = index

    def source_label(self, call: ast.Call, resolve) -> str | None:
        name = resolve(call.func)
        if name in _TENSOR_PRODUCERS:
            return "tensor"
        if name.startswith(_TENSOR_PRODUCER_PREFIXES):
            return "tensor"
        if name == "Tensor" or name.endswith((".apply", ".apply_ctx")):
            return "tensor"
        for suffix in _TENSOR_PRODUCER_SUFFIXES:
            if name.endswith("." + suffix):
                return "tensor"
        # A call into a project layer (forward/__call__ of an indexed
        # class) produces activations: ``self.encoder(x)``.
        target = self.index._callable_target(name)
        if target is not None:
            target_info = self.index.functions.get(target)
            if target_info is not None and target_info.name in ("forward",
                                                                "__call__",
                                                                "css_loss"):
                return "tensor"
        return None

    def is_sanitizer(self, call: ast.Call, resolve) -> bool:
        # Type- and shape-level predicates are stable across batches of a
        # shape-stable step; branching on them cannot poison a tape.
        return resolve(call.func) in {"isinstance", "issubclass", "type",
                                      "len", "hasattr", "callable"}


class ShapeStabilityRule(ProjectRule):
    code = "TAPE002"

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        spec = _TensorTaintSpec(index)
        for fq in sorted(self._reachable(index)):
            info = index.functions[fq]
            if info.module.name in _EXEMPT_MODULES:
                continue
            if self._declares_unsafe(info.node):
                continue
            if self._is_op_kernel(index, info):
                continue
            yield from self._check_function(spec, info)

    # ------------------------------------------------------------------
    def _reachable(self, index: ProjectIndex) -> set[str]:
        roots = {fq for fq, info in index.functions.items()
                 if info.cls is not None and info.name in _CAPTURE_ROOT_NAMES}
        for info in index.functions.values():
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = info.module.resolve(node.func)
                if not (resolved.endswith("TapedFunction")
                        or resolved.endswith(".capture")
                        or resolved == "capture"):
                    continue
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        target = info.module.resolve(arg)
                        if target in index.functions:
                            roots.add(target)
        return index.reachable_from(roots)

    @staticmethod
    def _declares_unsafe(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) \
                    else getattr(callee, "id", "")
                if name == "mark_unsafe":
                    return True
        return False

    @staticmethod
    def _is_op_kernel(index: ProjectIndex, info: FunctionInfo) -> bool:
        """Op forward/backward kernels run on raw arrays and are re-executed
        at replay, so data-dependent branches inside them are replay-safe."""
        if info.cls is None or info.name not in ("forward", "backward"):
            return False
        cls = index.classes.get(info.cls)
        return cls is not None and any(
            base.endswith(".Op") or base == "Op" for base in cls.base_names)

    # ------------------------------------------------------------------
    def _check_function(self, spec: _TensorTaintSpec,
                        info: FunctionInfo) -> Iterator[Violation]:
        result = analyze_function(info.node, spec, info.module.resolve)
        seen: set[int] = set()
        for cfg_node in result.cfg.nodes:
            if cfg_node.kind not in ("test", "stmt") or cfg_node.stmt is None:
                continue
            stmt = cfg_node.stmt
            if cfg_node.kind == "test":
                test = stmt.test
            elif isinstance(stmt, ast.Assert):
                test = stmt.test
            else:
                continue
            env = result.env_before(cfg_node.node_id)
            reason = self._unstable_reason(spec, info, test, env)
            if reason is not None and test.lineno not in seen:
                seen.add(test.lineno)
                construct = {ast.While: "while", ast.Assert: "assert"}.get(
                    type(stmt), "if")
                yield Violation(
                    path=info.module.path, line=test.lineno, code=self.code,
                    message=(f"{construct} condition in {info.qualname}() "
                             f"depends on {reason}; the branch taken is baked "
                             f"into any captured tape and replays wrong on "
                             f"other data — restructure, or declare the step "
                             f"capture-poisoning via "
                             f"engine.active_capture().mark_unsafe(...)"))

    def _unstable_reason(self, spec, info, test: ast.expr, env) -> str | None:
        labels = expr_labels(test, env, spec, info.module.resolve)
        if "tensor" in labels:
            return "a tensor value (op output)"
        for node in ast.walk(test):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _VALUE_READS):
                receiver = expr_labels(node.func.value, env, spec,
                                       info.module.resolve)
                if "tensor" in receiver:
                    return f"tensor.{node.func.attr}()"
        return None
