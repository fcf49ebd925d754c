"""PERF001 — hot-path performance rule.

The execution stack (``repro.tensor``, ``repro.nn``, ``repro.ssl``) sits
inside the training loop of every experiment, so two easy-to-miss patterns
cost real wall-clock there:

1. **Per-element Python loops.**  A ``for`` loop over ``range(x.size)``,
   ``range(x.shape[i])`` or ``range(len(x.data))`` executes one Python
   iteration per array element; the vectorized numpy equivalent is
   typically two to three orders of magnitude faster.  Loops over
   structural constants (kernel offsets, layer lists, axes) do not match.

2. **Dtype-promoting constructors.**  ``np.zeros``/``np.ones``/``np.empty``/
   ``np.full``/``np.eye``/``np.arange``/``np.linspace`` default to float64;
   an array built without ``dtype=`` silently upcasts every downstream
   float32 computation (double the memory traffic, and numpy falls off its
   fast paths).  The engine pins op *outputs* to the float32 policy, but a
   float64 constant still forces a converting copy at dispatch.

Deliberate exceptions (the numerical-gradient reference loop in
``gradcheck.py``) carry ``# repro-lint: disable=PERF001`` suppressions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import LintRule, ModuleSource, Violation

_HOT_PACKAGES = ("repro.tensor", "repro.nn", "repro.ssl")

_F64_CONSTRUCTORS = {"zeros", "ones", "empty", "full", "eye", "arange", "linspace"}


class HotLoopDtypeRule(LintRule):
    code = "PERF001"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if not module.in_package(*_HOT_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                trigger = self._element_sized_range(node.iter)
                if trigger is not None:
                    yield self.violation(
                        module, node.lineno,
                        f"per-element Python loop over range({trigger}); one "
                        f"interpreter iteration per array element — vectorize "
                        f"with numpy, or suppress if this is a deliberate "
                        f"scalar reference implementation")
            elif isinstance(node, ast.Call):
                name = self._numpy_constructor(node)
                if name is not None and not self._has_dtype(node):
                    yield self.violation(
                        module, node.lineno,
                        f"np.{name}(...) without dtype= defaults to float64 and "
                        f"silently upcasts float32 arithmetic; pass an explicit "
                        f"dtype (the engine's policy dtype is float32)")

    # ------------------------------------------------------------------
    # Per-element loop detection
    # ------------------------------------------------------------------
    @staticmethod
    def _element_sized_range(iter_expr: ast.expr) -> str | None:
        """Return a display string when ``iter_expr`` ranges over data size."""
        if not (isinstance(iter_expr, ast.Call)
                and isinstance(iter_expr.func, ast.Name)
                and iter_expr.func.id == "range"):
            return None
        for arg in iter_expr.args:
            for sub in ast.walk(arg):
                # len(x.data) is almost always element count; len(layers) /
                # len(dims) over a plain name is structural and stays legal.
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                        and sub.func.id == "len" and sub.args \
                        and isinstance(sub.args[0], ast.Attribute):
                    return "len(...)"
                if isinstance(sub, ast.Attribute) and sub.attr == "size":
                    return "<array>.size"
                if isinstance(sub, ast.Subscript) and \
                        isinstance(sub.value, ast.Attribute) and sub.value.attr == "shape":
                    return "<array>.shape[...]"
        return None

    # ------------------------------------------------------------------
    # Dtype-promotion detection
    # ------------------------------------------------------------------
    @staticmethod
    def _numpy_constructor(call: ast.Call) -> str | None:
        """Name of the float64-defaulting numpy constructor, if this is one."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _F64_CONSTRUCTORS \
                and isinstance(func.value, ast.Name) and func.value.id in {"np", "numpy"}:
            return func.attr
        return None

    @staticmethod
    def _has_dtype(call: ast.Call) -> bool:
        return any(kw.arg == "dtype" for kw in call.keywords)
