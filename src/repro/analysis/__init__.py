"""Static analysis and sanitizer tooling for the repro training stack.

Components (see DESIGN.md, "Analysis architecture"):

- :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — the lint
  runner and rule registry: single-file AST rules (DET001, AD001/2,
  API001, SER001, PERF001, TAPE001, RB001) and whole-program dataflow
  rules (DET002, TAPE002, SER002);
- :mod:`repro.analysis.index` — the whole-program index (symbol tables,
  import resolution, call graph) the project rules run against;
- :mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow` — the
  per-function CFG and the taint framework rules are written in;
- :mod:`repro.analysis.coverage` — a gradcheck-coverage auditor that fails
  when a differentiable primitive has no gradient test;
- :mod:`repro.tensor.anomaly` — the runtime NaN/Inf sanitizer (lives with
  the tensor engine; re-exported by :mod:`repro.tensor`).

Run everything with ``repro lint [paths]``; it exits non-zero on any
violation not silenced by an inline suppression comment (see
:mod:`repro.analysis.linter`), the one way to accept a finding.  Its
flags are declared once, by :func:`build_parser`, which ``repro.cli``
mounts as the ``lint`` subcommand.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from repro.analysis.coverage import (
    CoverageReport,
    audit_gradcheck_coverage,
    differentiable_surface,
    gradchecked_names,
)
from repro.analysis.linter import (
    LintRule,
    ModuleSource,
    ProjectRule,
    Violation,
    format_report,
    iter_python_files,
    lint_file,
    run_lint,
)
from repro.analysis.rules import default_rules, rules_by_code

__all__ = [
    "CoverageReport",
    "LintRule",
    "ModuleSource",
    "ProjectRule",
    "Violation",
    "audit_gradcheck_coverage",
    "differentiable_surface",
    "gradchecked_names",
    "format_report",
    "iter_python_files",
    "lint_file",
    "run_lint",
    "default_rules",
    "rules_by_code",
    "build_parser",
    "lint",
    "main",
]


def _find_package_root(paths: Sequence[str]) -> Path | None:
    """Locate the ``repro`` package dir (the one holding tensor/ops.py)."""
    for raw in paths:
        path = Path(raw)
        candidates = [path] if path.is_dir() else [path.parent]
        for candidate in candidates:
            probe = candidate
            for _ in range(4):
                if (probe / "tensor" / "ops.py").is_file():
                    return probe
                if (probe / "repro" / "tensor" / "ops.py").is_file():
                    return probe / "repro"
                if probe.parent == probe:
                    break
                probe = probe.parent
    return None


def build_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` flags, declared once.

    ``repro.cli`` mounts this parser as its ``lint`` subcommand through
    ``parents=``, so the subcommand and :func:`main` accept the same flags.
    """
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific linter + gradcheck-coverage auditor")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint (default: src/repro)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run (default: all)")
    parser.add_argument("--tests", metavar="DIR", default=None,
                        help="gradcheck test directory for the coverage auditor "
                             "(default: tests/tensor when it exists)")
    parser.add_argument("--no-coverage", action="store_true",
                        help="skip the gradcheck-coverage audit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` as ``repro lint`` flags and run :func:`lint`."""
    return lint(build_parser().parse_args(argv))


def lint(args: argparse.Namespace) -> int:
    """Run ``repro lint`` on parsed flags and print the text report.

    Parses every file, runs the selected rules, audits gradcheck coverage
    and prints the report.  Returns 0 when clean, 1 on any violation or
    coverage gap, 2 on usage errors.
    """
    try:
        rules = rules_by_code(args.select.split(",")) if args.select else default_rules()
        violations = run_lint(args.paths, rules)
    except (FileNotFoundError, SyntaxError, ValueError) as exc:
        print(f"error: {exc}")
        return 2

    status = 0
    if violations:
        print(format_report(violations))
        status = 1
    else:
        print(f"lint: clean ({', '.join(sorted(r.code for r in rules))})")

    if not args.no_coverage:
        tests_dir = Path(args.tests) if args.tests else Path("tests") / "tensor"
        src_root = _find_package_root(args.paths)
        if src_root is None or not tests_dir.is_dir():
            missing = "package root" if src_root is None else f"tests dir {tests_dir}"
            print(f"coverage: skipped (could not locate {missing})")
        else:
            report = audit_gradcheck_coverage(src_root, tests_dir)
            print(report.format())
            if not report.ok:
                status = 1
    return status
