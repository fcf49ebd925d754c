"""RB001 — crash-safety hygiene on the checkpoint path.

The failure model depends on an invariant that is easy to erode one
convenience call at a time: **every file write on the checkpoint path is
atomic.**  The ``repro.runtime`` package owns run-critical persistent
state (checkpoints, manifests, failure reports); a plain
``open(path, "w")`` or ``Path.write_bytes`` there can be torn by a crash
mid-write — exactly the corrupt-hybrid state the crash-consistency sweep
exists to rule out.  All writes must route through
:func:`repro.runtime.checkpoint.atomic_write_bytes` (the one function
allowed to touch the filesystem directly).

The append-only JSONL event log, whose line-at-a-time appends are
crash-safe by construction, carries a justified
``# repro-lint: disable=RB001``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import LintRule, ModuleSource, Violation

#: The one function allowed direct write access on the checkpoint path.
_ATOMIC_WRITER = "atomic_write_bytes"

_WRITE_METHODS = {"write_text", "write_bytes"}

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_write_mode_open(call: ast.Call) -> bool:
    """``open(...)`` with a literal mode that can create/truncate/append."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode: ast.expr | None = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    return any(flag in mode.value for flag in "wax+")


class RobustIORule(LintRule):
    code = "RB001"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if not module.in_package("repro.runtime"):
            return
        exempt_spans = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(module.tree)
            if isinstance(node, _FUNC_NODES) and node.name == _ATOMIC_WRITER]

        def exempt(lineno: int) -> bool:
            return any(start <= lineno <= end for start, end in exempt_spans)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or exempt(node.lineno):
                continue
            if _is_write_mode_open(node):
                yield self.violation(
                    module, node.lineno,
                    "write-mode open() on the checkpoint path; a crash "
                    "mid-write leaves a torn file — route the write through "
                    "repro.runtime.checkpoint.atomic_write_bytes "
                    "(tmp + fsync + rename)")
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _WRITE_METHODS:
                yield self.violation(
                    module, node.lineno,
                    f".{node.func.attr}() on the checkpoint path is not "
                    f"atomic; a crash mid-write leaves a torn file — use "
                    f"repro.runtime.checkpoint.atomic_write_bytes")
