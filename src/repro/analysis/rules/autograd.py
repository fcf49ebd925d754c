"""AD001 / AD002 — autograd-correctness rules.

AD001 flags assignments that mutate ``Tensor.data`` in differentiable code
paths (the ``repro.tensor``, ``repro.nn``, ``repro.ssl`` and
``repro.continual`` packages).  Ops save the arrays their backward needs
by reference (``ctx.save``), so an in-place write (``x.data[...] = arr``,
``x.data += arr``) changes what a pending backward reads without the
version counter noticing, and a rebind (``x.data = arr``) makes that
backward raise the saved-tensor version error.  Deliberate rebinds
outside a live graph — optimizers live outside the scanned packages; EMA
updates and ``load_state_dict`` carry suppressions — are the only
sanctioned uses.

AD002 flags the late-binding-closure bug: a function or lambda defined
inside a ``for`` loop that reads the loop variable without binding it as a
default argument.  All iterations then share the *final* value of the
variable — per-layer hooks, per-segment callbacks or hand-written gradient
functions built in a loop all see the last iteration's state.  The fix is
the default-argument idiom: ``def fn(g, i=i): ...``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import LintRule, ModuleSource, Violation

_DIFFERENTIABLE_PACKAGES = ("repro.tensor", "repro.nn", "repro.ssl",
                            "repro.continual")


class InplaceMutationRule(LintRule):
    code = "AD001"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if not module.in_package(*_DIFFERENTIABLE_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                hit = self._data_target(target)
                if hit is not None:
                    yield self.violation(
                        module, node.lineno,
                        f"in-place mutation of '{hit}' can corrupt gradients of "
                        f"ops that saved this tensor for backward; build a new "
                        f"Tensor instead (or suppress if the graph is provably "
                        f"dead here)")

    @staticmethod
    def _data_target(target: ast.expr) -> str | None:
        """Return a display string when ``target`` writes through ``.data``."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                hit = InplaceMutationRule._data_target(element)
                if hit is not None:
                    return hit
            return None
        node = target
        suffix = ""
        if isinstance(node, ast.Subscript):
            suffix = "[...]"
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr == "data":
            base = node.value
            owner = base.id if isinstance(base, ast.Name) else "<expr>"
            return f"{owner}.data{suffix}"
        return None


class LateBindingClosureRule(LintRule):
    code = "AD002"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for loop in ast.walk(module.tree):
            if not isinstance(loop, ast.For):
                continue
            loop_vars = set(self._target_names(loop.target))
            if not loop_vars:
                continue
            for child in ast.walk(loop):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    leaked = self._free_loop_vars(child, loop_vars)
                    if leaked:
                        names = ", ".join(f"'{n}'" for n in sorted(leaked))
                        label = getattr(child, "name", "<lambda>")
                        yield self.violation(
                            module, child.lineno,
                            f"closure '{label}' captures loop variable {names} by "
                            f"reference; by backward/call time the loop has "
                            f"finished and every closure sees the final value — "
                            f"bind it as a default argument "
                            f"(e.g. `{next(iter(sorted(leaked)))}="
                            f"{next(iter(sorted(leaked)))}`)")

    @staticmethod
    def _target_names(target: ast.expr) -> Iterator[str]:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id

    @staticmethod
    def _free_loop_vars(func: ast.AST, loop_vars: set[str]) -> set[str]:
        """Loop variables the closure reads without shadowing or rebinding."""
        args = func.args
        bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
        body = func.body if isinstance(func.body, list) else [func.body]
        assigned: set[str] = set()
        read: set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.id)
                    else:
                        assigned.add(node.id)
        return (read & loop_vars) - bound - assigned
