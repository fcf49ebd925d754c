"""Gradcheck-coverage auditor.

A differentiable primitive with no gradcheck test is a silent-corruption
risk: its backward can be wrong without any test noticing, and replay-based
continual learning results are exactly the kind of delicate measurement a
wrong gradient invalidates.  This auditor makes the coverage contract
mechanical:

1. enumerate the differentiable surface from the source AST —
   every public top-level function in ``repro/tensor/ops.py`` plus every
   ``Tensor`` method whose body tapes an op through the registry dispatch
   (``engine.apply`` / ``apply_ctx``);
2. scan the test files under ``tests/tensor/`` for test functions that call
   ``check_gradients`` and record which primitives each exercises (by name
   for ops/methods, by operator token for dunders — ``a * b`` covers
   ``__mul__``, ``t[idx]`` covers ``__getitem__``);
3. report every primitive that no gradcheck-calling test touches.

The scan is deliberately scoped to gradcheck-calling test functions
(including their ``@pytest.mark.parametrize`` decorators): a value-only
test that *mentions* an op does not count as gradient coverage.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["CoverageReport", "audit_gradcheck_coverage", "differentiable_surface",
           "gradchecked_names"]

_BINOP_DUNDERS = {
    ast.Add: "__add__",
    ast.Sub: "__sub__",
    ast.Mult: "__mul__",
    ast.Div: "__truediv__",
    ast.Pow: "__pow__",
    ast.MatMult: "__matmul__",
}


@dataclass
class CoverageReport:
    """Outcome of one audit: the surface, what is covered, what is not."""

    surface: dict[str, str] = field(default_factory=dict)  # name -> display label
    covered: set[str] = field(default_factory=set)

    @property
    def uncovered(self) -> list[str]:
        return sorted(name for name in self.surface if name not in self.covered)

    @property
    def ok(self) -> bool:
        return not self.uncovered

    def format(self) -> str:
        total = len(self.surface)
        hit = total - len(self.uncovered)
        lines = [f"gradcheck coverage: {hit}/{total} differentiable primitives"]
        for name in self.uncovered:
            lines.append(f"  UNCOVERED {self.surface[name]}")
        return "\n".join(lines)


def differentiable_surface(src_root: Path | str) -> dict[str, str]:
    """Map primitive name -> display label for the package under ``src_root``.

    ``src_root`` is the ``repro`` package directory (the one containing
    ``tensor/``).
    """
    root = Path(src_root)
    surface: dict[str, str] = {}

    ops_tree = ast.parse((root / "tensor" / "ops.py").read_text(encoding="utf-8"))
    for node in ops_tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            surface[node.name] = f"ops.{node.name}"

    tensor_tree = ast.parse((root / "tensor" / "tensor.py").read_text(encoding="utf-8"))
    for node in tensor_tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Tensor":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _tapes_an_op(item):
                    surface[item.name] = f"Tensor.{item.name}"
    return surface


_TAPING_CALLS = {"apply", "apply_ctx", "_apply"}


def _tapes_an_op(func: ast.FunctionDef) -> bool:
    """Whether the function body dispatches a taped op.

    Matches the registry choke point (``engine.apply(...)`` — also seen as a
    bare ``apply``/``_apply`` alias).
    """
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else None
        if name in _TAPING_CALLS:
            return True
    return False


def _calls_check_gradients(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            name = target.id if isinstance(target, ast.Name) else \
                target.attr if isinstance(target, ast.Attribute) else None
            if name == "check_gradients":
                return True
    return False


def _names_exercised(func: ast.AST) -> set[str]:
    """Every primitive-name token a gradcheck test function touches."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.BinOp):
            dunder = _BINOP_DUNDERS.get(type(node.op))
            if dunder:
                names.add(dunder)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            names.add("__neg__")
        elif isinstance(node, ast.Subscript):
            names.add("__getitem__")
    return names


def gradchecked_names(tests_dir: Path | str) -> set[str]:
    """Union of primitives exercised by gradcheck-calling test functions."""
    covered: set[str] = set()
    for path in sorted(Path(tests_dir).rglob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and _calls_check_gradients(node):
                covered |= _names_exercised(node)
    return covered


def audit_gradcheck_coverage(src_root: Path | str,
                             tests_dir: Path | str) -> CoverageReport:
    """Cross-reference the differentiable surface against gradcheck tests."""
    surface = differentiable_surface(src_root)
    covered = gradchecked_names(tests_dir)
    return CoverageReport(surface=surface, covered={n for n in surface if n in covered})
