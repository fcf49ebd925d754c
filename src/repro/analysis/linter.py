"""AST-based lint engine with repo-specific rules.

Two rule shapes share one runner:

- a :class:`LintRule` inspects a single parsed file (:class:`ModuleSource`)
  and yields :class:`Violation` records;
- a :class:`ProjectRule` inspects the whole-program
  :class:`~repro.analysis.index.ProjectIndex` (symbol tables, call graph,
  dataflow) and yields violations across files.

:func:`run_lint` walks a set of paths (deduplicated — a file named twice,
or both a file and its parent directory, is linted once), parses every
file and applies every registered rule.  A walk skips ``fixtures``
directories: the rule fixtures are deliberate violations, linted only
when named.

Suppressions
------------
A suppression is the one way to accept a finding.  A violation is silenced
by a trailing comment anywhere on the *statement* it is reported in::

    param.data = new_value  # repro-lint: disable=AD001

Several codes may be listed (``disable=AD001,DET001``) and ``disable=all``
silences every rule for that statement.  The suppression scope is the full
``lineno``..``end_lineno`` span of the innermost statement containing the
reported line, so a multi-line call can carry the comment on whichever
physical line reads best.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.index import ProjectIndex

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at ``repro``/``tests``."""
    parts = list(path.parts)
    stem_parts: list[str] = []
    for anchor in ("repro", "tests"):
        if anchor in parts:
            stem_parts = parts[len(parts) - 1 - parts[::-1].index(anchor):]
            break
    if not stem_parts:
        stem_parts = parts[-2:] if len(parts) >= 2 else parts[-1:]
    stem_parts = [p[:-3] if p.endswith(".py") else p for p in stem_parts]
    if stem_parts and stem_parts[-1] == "__init__":
        stem_parts = stem_parts[:-1]
    return ".".join(stem_parts)


@dataclass(frozen=True)
class Violation:
    """One lint finding, formatted as ``path:line: CODE message``."""

    path: Path
    line: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass
class ModuleSource:
    """A parsed Python file plus the bookkeeping rules need.

    ``name`` is the dotted module name (:func:`module_name_for`); rules
    that only apply to some ``repro`` packages scope by it
    (:meth:`in_package`), so ``tests/nn/`` or a checkout under a directory
    named ``nn`` is not ``repro.nn``.
    """

    path: Path
    text: str
    tree: ast.Module
    name: str
    _suppressions: dict[int, set[str]] = field(default_factory=dict)
    _stmt_spans: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path) -> "ModuleSource":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        source = cls(path=path, text=text, tree=tree,
                     name=module_name_for(path))
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                codes = {c.strip().upper() for c in match.group(1).split(",") if c.strip()}
                source._suppressions[lineno] = codes
        if source._suppressions:  # spans only matter when suppressions exist
            for node in ast.walk(tree):
                if isinstance(node, ast.stmt):
                    end = getattr(node, "end_lineno", None) or node.lineno
                    source._stmt_spans.append((node.lineno, end))
        return source

    def is_suppressed(self, line: int, code: str) -> bool:
        """Whether a violation at ``line`` is silenced for ``code``.

        The suppression comment may sit on any physical line of the
        innermost statement spanning ``line`` (multi-line statements carry
        one suppression for their whole span).
        """
        if not self._suppressions:
            return False
        if self._codes_match(line, code):
            return True
        span = None
        for start, end in self._stmt_spans:
            if start <= line <= end:
                if span is None or (end - start) < (span[1] - span[0]):
                    span = (start, end)
        if span is None:
            return False
        return any(self._codes_match(at, code)
                   for at in range(span[0], span[1] + 1))

    def _codes_match(self, line: int, code: str) -> bool:
        codes = self._suppressions.get(line)
        return bool(codes) and (code.upper() in codes or "ALL" in codes)

    def in_package(self, *names: str) -> bool:
        """Whether this module is one of the dotted ``names`` or inside one."""
        return any(self.name == name or self.name.startswith(name + ".")
                   for name in names)


class LintRule:
    """Base class for single-file lint rules.

    Subclasses set ``code`` and implement :meth:`check`, yielding raw
    violations; suppression filtering happens in the runner.
    """

    code: str = ""

    def check(self, module: ModuleSource) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError

    def violation(self, module: ModuleSource, line: int, message: str) -> Violation:
        return Violation(path=module.path, line=line, code=self.code, message=message)


class ProjectRule(LintRule):
    """Base class for whole-program rules (run once over the index).

    Subclasses implement :meth:`check_project`; the per-file :meth:`check`
    is a no-op so a :class:`ProjectRule` can sit in the same registry.
    ``self.violation`` works with any module of the index.
    """

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        return iter(())

    def check_project(self, index: "ProjectIndex") -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted.

    A directory walk does not descend into a directory named ``fixtures``
    (rule fixtures are inputs, not code); a file named directly is always
    yielded.  Overlapping inputs (the same file twice, or a file plus a
    directory containing it) are deduplicated so no file is ever linted —
    and no violation reported — twice.  A missing path raises
    :class:`FileNotFoundError`; an existing path that is neither a
    directory nor a ``.py`` file raises :class:`ValueError`.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for found in sorted(
                    p for p in path.rglob("*.py") if p.is_file()
                    and "fixtures" not in p.relative_to(path).parts[:-1]):
                resolved = found.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    yield found
        elif path.suffix == ".py" and path.is_file():
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path
        elif path.exists():
            raise ValueError(f"not a Python file or directory: {path}")
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def split_rules(rules: Iterable[LintRule]) -> tuple[list[LintRule], list[ProjectRule]]:
    """Partition a rule set into (single-file rules, whole-program rules)."""
    file_rules: list[LintRule] = []
    project_rules: list[ProjectRule] = []
    for rule in rules:
        (project_rules if isinstance(rule, ProjectRule) else file_rules).append(rule)
    return file_rules, project_rules


def lint_file(path: Path | str, rules: Iterable[LintRule]) -> list[Violation]:
    """Apply single-file ``rules`` to one file, honoring suppressions."""
    module = ModuleSource.parse(Path(path))
    return check_module(module, rules)


def check_module(module: ModuleSource, rules: Iterable[LintRule]) -> list[Violation]:
    """Apply already-instantiated rules to an already-parsed module."""
    found: list[Violation] = []
    for rule in rules:
        for violation in rule.check(module):
            if not module.is_suppressed(violation.line, violation.code):
                found.append(violation)
    return found


def _filter_project_violations(violations: Iterable[Violation],
                               index: "ProjectIndex") -> list[Violation]:
    kept = []
    for violation in violations:
        module = index.by_path.get(Path(violation.path))
        if module is not None and module.source.is_suppressed(
                violation.line, violation.code):
            continue
        kept.append(violation)
    return kept


def run_lint(paths: Sequence[Path | str],
             rules: Iterable[LintRule] | None = None) -> list[Violation]:
    """Lint every Python file under ``paths`` and return sorted violations.

    Every file is parsed and checked by the single-file rules; the
    whole-program rules then run once over the index of all of them.
    """
    from repro.analysis.index import ProjectIndex, parse_sources

    if rules is None:
        from repro.analysis.rules import default_rules
        rules = default_rules()
    file_rules, project_rules = split_rules(rules)
    sources = parse_sources(list(iter_python_files(paths)))

    found: list[Violation] = []
    for source in sources:
        found.extend(check_module(source, file_rules))
    if project_rules:
        index = ProjectIndex.build(sources)
        for rule in project_rules:
            found.extend(
                _filter_project_violations(rule.check_project(index), index))
    return sorted(found, key=lambda v: (str(v.path), v.line, v.code))


def format_report(violations: Sequence[Violation]) -> str:
    """Render violations one per line plus a summary count."""
    lines = [v.format() for v in violations]
    noun = "violation" if len(violations) == 1 else "violations"
    lines.append(f"{len(violations)} {noun}")
    return "\n".join(lines)
