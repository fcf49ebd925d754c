"""DET001 — seedless or global-state randomness.

Every stochastic component in the library must take an explicit, seeded
``numpy.random.Generator`` (see ``repro.utils.rng``).  Two patterns defeat
that guarantee and are flagged:

- ``np.random.default_rng()`` with no seed argument: the generator is
  seeded from the OS entropy pool, so two runs of the same script
  initialize differently;
- any call to a legacy global-state routine, e.g. ``np.random.rand()``,
  ``np.random.seed()``, ``np.random.shuffle()``: these share one hidden
  global stream, so adding a call anywhere perturbs every later draw.

Calls inside ``repro.utils.rng`` itself are exempt — that module is the
one place allowed to mint generators.  Uppercase attributes
(``np.random.Generator``, ``np.random.SeedSequence``) are types, not
draws, and are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import LintRule, ModuleSource, Violation


def _dotted_name(node: ast.expr) -> list[str] | None:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class SeedlessRNGRule(LintRule):
    code = "DET001"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if module.in_package("repro.utils.rng"):
            return
        imported_default_rng = self._imports_default_rng(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            if len(dotted) == 3 and dotted[0] in ("np", "numpy") and dotted[1] == "random":
                name = dotted[2]
                if name == "default_rng":
                    if not node.args and not node.keywords:
                        yield self.violation(
                            module, node.lineno,
                            "np.random.default_rng() without an explicit seed; "
                            "use repro.utils.rng.fallback_rng() or pass a seeded "
                            "Generator")
                elif name[:1].islower():
                    yield self.violation(
                        module, node.lineno,
                        f"np.random.{name}() uses the hidden global RNG stream; "
                        f"draw from an explicit numpy.random.Generator instead")
            elif dotted == ["default_rng"] and imported_default_rng:
                if not node.args and not node.keywords:
                    yield self.violation(
                        module, node.lineno,
                        "default_rng() without an explicit seed; use "
                        "repro.utils.rng.fallback_rng() or pass a seeded Generator")

    @staticmethod
    def _imports_default_rng(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                if any(alias.name == "default_rng" for alias in node.names):
                    return True
        return False
