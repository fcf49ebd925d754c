"""AST-based lint engine with repo-specific rules.

Two rule shapes share one runner:

- a :class:`LintRule` inspects a single parsed file (:class:`ModuleSource`)
  and yields :class:`Violation` records;
- a :class:`ProjectRule` inspects the whole-program
  :class:`~repro.analysis.index.ProjectIndex` (symbol tables, call graph,
  dataflow) and yields violations across files.

:func:`run_lint` walks a set of paths (deduplicated — a file named twice,
or both a file and its parent directory, is linted once), applies every
registered rule, and can reuse a content-hash incremental cache
(:class:`repro.analysis.cache.LintCache`): per-file results are keyed on
the file digest, whole-program results on the project fingerprint, so an
unchanged tree re-lints without parsing anything.

Suppressions
------------
A violation is silenced by a trailing comment anywhere on the *statement*
it is reported in::

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
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.cache import LintCache
    from repro.analysis.index import ProjectIndex

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


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
    """A parsed Python file plus the bookkeeping rules need."""

    path: Path
    text: str
    tree: ast.Module
    _suppressions: dict[int, set[str]] = field(default_factory=dict)
    _stmt_spans: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path) -> "ModuleSource":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        source = cls(path=path, text=text, tree=tree)
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

    @property
    def package_parts(self) -> tuple[str, ...]:
        """Path components, used by rules that only apply to some subpackages."""
        return self.path.parts


class LintRule:
    """Base class for single-file lint rules.

    Subclasses set ``code`` / ``description`` and implement :meth:`check`,
    yielding raw violations; suppression filtering happens in the runner.
    """

    code: str = ""
    description: str = ""

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


@dataclass
class LintStats:
    """Run statistics: per-rule counts and cache behaviour."""

    files: int = 0
    per_rule: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "files": self.files,
            "per_rule": dict(sorted(self.per_rule.items())),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted.

    Overlapping inputs (the same file twice, or a file plus a directory
    containing it) are deduplicated so no file is ever linted — and no
    violation reported — twice.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for found in sorted(p for p in path.rglob("*.py") if p.is_file()):
                resolved = found.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    yield found
        elif path.suffix == ".py" and path.is_file():
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path
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
             rules: Iterable[LintRule] | None = None,
             *,
             cache: "LintCache | None" = None,
             stats: LintStats | None = None) -> list[Violation]:
    """Lint every Python file under ``paths`` and return sorted violations.

    With ``cache`` set, per-file and whole-program results are reused when
    content digests match (see :mod:`repro.analysis.cache`).  ``stats`` is
    filled in place when provided.
    """
    from repro.analysis.cache import (file_digest, project_fingerprint,
                                      rules_fingerprint)
    from repro.analysis.index import ProjectIndex, parse_sources

    started = time.perf_counter()
    if rules is None:
        from repro.analysis.rules import default_rules
        rules = default_rules()
    rules = list(rules)
    file_rules, project_rules = split_rules(rules)
    files = list(iter_python_files(paths))

    found: list[Violation] = []
    digests: dict[str, str] = {}
    to_parse: list[Path] = []
    rules_fp = rules_fingerprint(rules) if cache is not None else ""

    if cache is None:
        to_parse = files
    else:
        for path in files:
            digest = file_digest(path.read_bytes())
            digests[str(path)] = digest
            cached = cache.file_violations(str(path), digest, rules_fp)
            if cached is None:
                to_parse.append(path)
            else:
                found.extend(cached)

    need_project = bool(project_rules)
    project_cached: list[Violation] | None = None
    fingerprint = ""
    if cache is not None and need_project:
        fingerprint = project_fingerprint(digests)
        project_cached = cache.project_violations(fingerprint, rules_fp)
        if project_cached is not None:
            found.extend(project_cached)
            need_project = False

    # Parse: everything when project rules must run (they need the whole
    # program), otherwise only the per-file cache misses.
    sources: list[ModuleSource] = []
    if need_project:
        sources = parse_sources(files)
    elif to_parse:
        sources = parse_sources(to_parse)

    misses = set(map(str, to_parse))
    for source in sources:
        if str(source.path) not in misses:
            continue
        violations = check_module(source, file_rules)
        found.extend(violations)
        if cache is not None:
            cache.store_file(str(source.path), digests[str(source.path)],
                             rules_fp, violations)

    if need_project:
        index = ProjectIndex.build(sources)
        project_found: list[Violation] = []
        for rule in project_rules:
            project_found.extend(
                _filter_project_violations(rule.check_project(index), index))
        found.extend(project_found)
        if cache is not None:
            cache.store_project(fingerprint, rules_fp, project_found)

    if cache is not None:
        cache.save()
    found = sorted(found, key=lambda v: (str(v.path), v.line, v.code))
    if stats is not None:
        stats.files = len(files)
        stats.elapsed_seconds = time.perf_counter() - started
        if cache is not None:
            stats.cache_hits = cache.hits
            stats.cache_misses = cache.misses
        per_rule: dict[str, int] = {rule.code: 0 for rule in rules}
        for violation in found:
            per_rule[violation.code] = per_rule.get(violation.code, 0) + 1
        stats.per_rule = per_rule
    return found


def format_report(violations: Sequence[Violation]) -> str:
    """Render violations one per line plus a summary count."""
    lines = [v.format() for v in violations]
    noun = "violation" if len(violations) == 1 else "violations"
    lines.append(f"{len(violations)} {noun}")
    return "\n".join(lines)
