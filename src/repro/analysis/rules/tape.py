"""TAPE001 — op dispatch must go through ``apply_ctx``.

``repro.tensor.engine.apply_ctx`` is the single dispatch choke point: it
resolves the op through :func:`get_op` (clear unknown-op errors), applies
the dtype policy, runs the anomaly checks, and — since the tape subsystem —
notifies the active :class:`repro.tensor.tape.Tape` so the call is
recorded for replay.  Code that reaches around it breaks all four at once:

1. **Bare registry subscripts** (``_REGISTRY[name]``) raise an opaque
   ``KeyError`` on typos and invite call sites that never dispatch through
   the engine.
2. **Direct ``.forward(...)`` calls** on a looked-up op class
   (``get_op(name).forward(...)`` / ``_REGISTRY[name].forward(...)``)
   execute the kernel invisibly: no capture hook fires, so a recording
   tape silently omits the op and every later replay of that tape is
   wrong.

Only the engine itself and the tape replayer may touch these internals;
both are exempted by module name.  Anything else should call
``engine.apply`` / ``engine.apply_ctx`` (or the ``repro.tensor.ops``
wrappers).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import LintRule, ModuleSource, Violation

# The dispatch internals live here; these modules ARE the choke point.
_EXEMPT_MODULES = ("repro.tensor.engine", "repro.tensor.tape")


def _is_registry_expr(node: ast.expr) -> bool:
    """``_REGISTRY`` as a bare name or an attribute (``engine._REGISTRY``)."""
    if isinstance(node, ast.Name):
        return node.id == "_REGISTRY"
    if isinstance(node, ast.Attribute):
        return node.attr == "_REGISTRY"
    return False


def _is_lookup_expr(node: ast.expr) -> bool:
    """An op-class lookup: ``get_op(...)`` call or ``_REGISTRY[...]``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "get_op":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "get_op":
            return True
    if isinstance(node, ast.Subscript) and _is_registry_expr(node.value):
        return True
    return False


class TapeBypassRule(LintRule):
    code = "TAPE001"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if module.in_package(*_EXEMPT_MODULES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript) and _is_registry_expr(node.value):
                yield self.violation(
                    module, node.lineno,
                    "bare _REGISTRY[...] lookup; use engine.get_op(name) for "
                    "a clear unknown-op error and dispatch through "
                    "engine.apply/apply_ctx so tape capture sees the call")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in {"forward", "backward"} \
                    and _is_lookup_expr(node.func.value):
                yield self.violation(
                    module, node.lineno,
                    f"direct Op.{node.func.attr}(...) on a registry lookup "
                    f"bypasses apply_ctx: no dtype policy, no anomaly checks, "
                    f"and an active tape never records the op (its replays "
                    f"would silently skip it); dispatch through "
                    f"engine.apply/apply_ctx instead")
