"""SER001 — non-serializable values in ``state_dict`` implementations.

Checkpoints flatten every ``state_dict()`` into ndarrays plus a JSON
manifest (see ``repro.runtime.checkpoint``), so state trees may only hold
ndarrays, plain scalars, strings, ``None``, and lists/dicts thereof.  This
rule statically screens every function *named* ``state_dict`` for value
expressions that can never satisfy that contract:

- ``lambda``, set/frozenset literals and comprehensions, generator
  expressions, and ``bytes`` literals — none of these flatten;
- ``id(...)`` — process-local identity must never leak into a checkpoint
  (it is meaningless after restore);
- references to an RNG generator (``self.rng``, ``rng``, ``self._rng``) —
  generators are captured via ``repro.utils.rng.get_rng_state``, never
  stored raw.

The screen is applied to the places state values are built: dict-literal
values, ``*.update(...)`` arguments, subscript assignments, and return
expressions.  It is a static complement to the exhaustive runtime check
(``repro.runtime.checkpoint.check_serializable``), which the test suite
runs against every live method/optimizer/buffer state dict.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import LintRule, ModuleSource, Violation

#: Names whose bare reference in a state value is a generator leak.
_RNG_NAMES = {"rng", "_rng"}


def _is_rng_reference(node: ast.expr) -> str | None:
    """Return a display name if ``node`` is ``rng`` / ``self.rng`` / ``self._rng``."""
    if isinstance(node, ast.Name) and node.id in _RNG_NAMES:
        return node.id
    if (isinstance(node, ast.Attribute) and node.attr in _RNG_NAMES
            and isinstance(node.value, ast.Name) and node.value.id == "self"):
        return f"self.{node.attr}"
    return None


class StateDictSerializableRule(LintRule):
    code = "SER001"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "state_dict"):
                yield from self._check_function(module, node)

    # ------------------------------------------------------------------
    def _check_function(self, module: ModuleSource,
                        func: ast.FunctionDef) -> Iterator[Violation]:
        # A returned dict is visited both as a Dict literal and as a return
        # expression (and nested dicts re-walk subtrees), so dedupe by site.
        seen = set()
        for violation in self._scan_function(module, func):
            key = (violation.line, violation.message)
            if key not in seen:
                seen.add(key)
                yield violation

    def _scan_function(self, module: ModuleSource,
                       func: ast.FunctionDef) -> Iterator[Violation]:
        for node in ast.walk(func):
            if isinstance(node, ast.Dict):
                for value in node.values:
                    if value is not None:  # None marks a **splat
                        yield from self._check_value(module, value)
            elif isinstance(node, ast.Call) and self._is_update_call(node):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    yield from self._check_value(module, arg)
            elif isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Subscript) for t in node.targets):
                    yield from self._check_value(module, node.value)
            elif isinstance(node, ast.Return) and node.value is not None:
                yield from self._check_value(module, node.value,
                                             containers_only=True)

    @staticmethod
    def _is_update_call(node: ast.Call) -> bool:
        return isinstance(node.func, ast.Attribute) and node.func.attr == "update"

    def _check_value(self, module: ModuleSource, value: ast.expr,
                     containers_only: bool = False) -> Iterator[Violation]:
        """Flag unserializable expressions in one state value.

        ``containers_only`` restricts the scan to container literals (for
        return expressions, where e.g. ``return super().state_dict()`` must
        not recurse into arbitrary calls).
        """
        if containers_only and not isinstance(value, (ast.Dict, ast.List, ast.Tuple)):
            return
        for node in ast.walk(value):
            if isinstance(node, ast.Lambda):
                yield self.violation(module, node.lineno,
                                     "lambda in a state_dict value cannot be serialized")
            elif isinstance(node, (ast.Set, ast.SetComp)):
                yield self.violation(module, node.lineno,
                                     "set in a state_dict value cannot be serialized; "
                                     "use a sorted list")
            elif isinstance(node, ast.GeneratorExp):
                yield self.violation(module, node.lineno,
                                     "generator expression in a state_dict value; "
                                     "materialize a list instead")
            elif isinstance(node, ast.Constant) and isinstance(node.value, bytes):
                yield self.violation(module, node.lineno,
                                     "bytes in a state_dict value cannot be "
                                     "serialized; store an ndarray or str")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                yield self.violation(module, node.lineno,
                                     "id(...) in a state_dict value is process-local "
                                     "and meaningless after restore")
            else:
                name = _is_rng_reference(node)
                if name is not None and not self._is_call_argument(value, node):
                    yield self.violation(
                        module, node.lineno,
                        f"{name} in a state_dict value stores a live Generator; "
                        f"capture it with repro.utils.rng.get_rng_state instead")

    @staticmethod
    def _is_call_argument(root: ast.expr, target: ast.expr) -> bool:
        """True if ``target`` appears as an argument of a call inside ``root``.

        ``get_rng_state(self.rng)`` is fine — the call result is stored, not
        the generator; a bare ``self.rng`` value is not.
        """
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if target in set(ast.walk(arg)):
                        return True
        return False
