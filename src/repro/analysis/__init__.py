"""Static analysis and sanitizer tooling for the repro training stack.

Components (see DESIGN.md, "Analysis architecture"):

- :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — the lint
  runner and rule registry: single-file AST rules (DET001, AD001/2,
  API001, SER001, PERF001, TAPE001, RB001) and whole-program dataflow
  rules (DET002, TAPE002, SER002, PERF002);
- :mod:`repro.analysis.index` — the whole-program index (symbol tables,
  import resolution, call graph) the project rules run against;
- :mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow` — the
  per-function CFG and the taint framework rules are written in;
- :mod:`repro.analysis.cache` — the content-hash incremental cache
  (``.repro-lint-cache.json``);
- :mod:`repro.analysis.output` — text/json/SARIF renderers and the
  ``lint-baseline.json`` no-new-violations ratchet;
- :mod:`repro.analysis.coverage` — a gradcheck-coverage auditor that fails
  when a differentiable primitive has no gradient test;
- :mod:`repro.tensor.anomaly` — the runtime NaN/Inf sanitizer (lives with
  the tensor engine; re-exported by :mod:`repro.tensor`).

Run everything with ``repro lint [paths]`` or ``python -m repro.analysis``;
both exit non-zero on any non-baselined violation.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Sequence

from repro.analysis.cache import DEFAULT_CACHE_NAME, LintCache
from repro.analysis.coverage import (
    CoverageReport,
    audit_gradcheck_coverage,
    differentiable_surface,
    gradchecked_names,
)
from repro.analysis.linter import (
    LintRule,
    LintStats,
    ModuleSource,
    ProjectRule,
    Violation,
    format_report,
    iter_python_files,
    lint_file,
    run_lint,
)
from repro.analysis.output import Baseline, to_json, to_sarif
from repro.analysis.rules import default_rules, rules_by_code

__all__ = [
    "Baseline",
    "CoverageReport",
    "DEFAULT_CACHE_NAME",
    "LintCache",
    "LintRule",
    "LintStats",
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
    "to_json",
    "to_sarif",
    "default_rules",
    "rules_by_code",
    "build_parser",
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
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific linter + gradcheck-coverage auditor")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint (default: src/repro)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run (default: all)")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "sarif"),
                        help="report format (default: text)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="accepted-violation baseline; only violations "
                             "beyond it fail the run")
    parser.add_argument("--update-baseline", action="store_true",
                        help="re-pin the baseline to the current violations "
                             "and exit 0 (default file: lint-baseline.json)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule counts and cache hit rate")
    parser.add_argument("--cache", metavar="FILE", default=None,
                        help=f"incremental cache file "
                             f"(default: {DEFAULT_CACHE_NAME})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental cache")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parse cache misses with N processes")
    parser.add_argument("--tests", metavar="DIR", default=None,
                        help="gradcheck test directory for the coverage auditor "
                             "(default: tests/tensor when it exists)")
    parser.add_argument("--no-coverage", action="store_true",
                        help="skip the gradcheck-coverage audit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro lint`` / ``python -m repro.analysis``.

    Returns 0 when clean (or when every violation is baselined), 1 on any
    new violation or coverage gap, 2 on usage errors.
    """
    args = build_parser().parse_args(argv)
    cache = None
    if not args.no_cache:
        cache = LintCache(Path(args.cache) if args.cache else Path(DEFAULT_CACHE_NAME))
    stats = LintStats()
    try:
        rules = rules_by_code(args.select.split(",")) if args.select else default_rules()
        violations = run_lint(args.paths, rules, cache=cache,
                              jobs=args.jobs, stats=stats)
    except (FileNotFoundError, SyntaxError, ValueError) as exc:
        print(f"error: {exc}")
        return 2

    baseline_path = args.baseline or ("lint-baseline.json"
                                      if args.update_baseline else None)
    if args.update_baseline:
        baseline = Baseline.load(baseline_path)
        baseline.update(violations)
        baseline.write()
        print(f"baseline: pinned {len(violations)} violation(s) "
              f"to {baseline.path}")
        return 0

    reported = violations
    fixed: list[str] = []
    if baseline_path is not None:
        baseline = Baseline.load(baseline_path)
        reported, fixed = baseline.partition(violations)

    if args.fmt == "json":
        print(json.dumps(to_json(reported, stats.as_dict() if args.stats
                                 else None), indent=2))
        return 1 if reported else 0
    if args.fmt == "sarif":
        print(json.dumps(to_sarif(reported, rules), indent=2))
        return 1 if reported else 0

    status = 0
    if reported:
        print(format_report(reported))
        status = 1
    else:
        suffix = f" ({len(violations)} baselined)" if baseline_path and violations else ""
        print(f"lint: clean ({', '.join(sorted(r.code for r in rules))}){suffix}")
    for key in fixed:
        print(f"baseline: {key} no longer occurs — run --update-baseline "
              f"to tighten the ratchet")
    if args.stats:
        print(f"stats: {stats.files} files, jobs={stats.jobs}, "
              f"cache {stats.cache_hits} hit / {stats.cache_misses} miss "
              f"({stats.cache_hit_rate:.0%}), "
              f"{stats.elapsed_seconds:.3f}s")
        for code, count in sorted(stats.per_rule.items()):
            print(f"  {code}: {count}")

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
