"""API001 — export hygiene.

Modules that declare ``__all__`` promise a public surface; this rule keeps
the promise honest:

- every name listed in ``__all__`` must actually exist at module top level
  (defined, assigned, or imported) — a stale entry breaks
  ``from module import *`` and misleads readers;
- ``__all__`` must not list a name twice;
- in a package ``__init__`` that declares ``__all__``, every public name
  it imports is part of the re-export surface and must appear in
  ``__all__`` (submodule imports like ``from pkg import ops`` re-exporting
  the module object included).

Modules without ``__all__`` are not checked — only declared surfaces are
held to their declaration.  A module that defines a top-level
``__getattr__`` (PEP 562 lazy exports) is exempt from the existence check,
since its exports resolve at runtime.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import LintRule, ModuleSource, Violation


class ExportHygieneRule(LintRule):
    code = "API001"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        all_node = self._find_all(module.tree)
        if all_node is None:
            return
        assign, names = all_node
        defined = self._top_level_names(module.tree)
        imported_public = self._imported_public_names(module.tree)
        # PEP 562 lazy modules resolve exports at runtime; existence of the
        # remaining names cannot be decided statically.
        has_module_getattr = any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in module.tree.body)

        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield self.violation(
                    module, assign.lineno,
                    f"'{name}' is listed twice in __all__")
            seen.add(name)
            if name not in defined and name != "__version__" and not has_module_getattr:
                yield self.violation(
                    module, assign.lineno,
                    f"'{name}' is in __all__ but is not defined or imported "
                    f"in the module")

        if module.path.name == "__init__.py":
            for lineno, name in imported_public:
                if name not in seen:
                    yield self.violation(
                        module, lineno,
                        f"'{name}' is imported into the package namespace but "
                        f"missing from __all__; add it or alias it with a "
                        f"leading underscore")

    @staticmethod
    def _find_all(tree: ast.Module) -> tuple[ast.Assign, list[str]] | None:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            names = [el.value for el in node.value.elts
                                     if isinstance(el, ast.Constant)
                                     and isinstance(el.value, str)]
                            return node, names
        return None

    @staticmethod
    def _top_level_names(tree: ast.Module) -> set[str]:
        names: set[str] = {"__version__", "__doc__", "__all__"}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        names.add(alias.asname or alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                # Names defined under conditional imports / try-except guards.
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                        names.add(sub.name)
                    elif isinstance(sub, ast.ImportFrom):
                        for alias in sub.names:
                            if alias.name != "*":
                                names.add(alias.asname or alias.name)
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if isinstance(target, ast.Name):
                                names.add(target.id)
        return names

    @staticmethod
    def _imported_public_names(tree: ast.Module) -> list[tuple[int, str]]:
        found: list[tuple[int, str]] = []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                if node.level == 0 and not (node.module or "").startswith("repro"):
                    continue  # stdlib/third-party imports are implementation detail
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name != "*" and not name.startswith("_"):
                        found.append((node.lineno, name))
        return found
