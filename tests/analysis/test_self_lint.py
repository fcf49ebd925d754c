"""The self-lint gate: src + tests against the committed baseline.

``test_lint_clean.py`` requires ``src/repro`` to be violation-free.  This
gate extends coverage to the whole repository — including the test tree
and the deliberately-violating dataflow fixtures — through the
no-new-violations ratchet: everything pre-existing is pinned in
``lint-baseline.json``; anything new fails here, inside the tier-1 pytest
run, with no extra CI plumbing.  So does a pinned entry that no longer
occurs: the baseline holds exactly the findings that remain.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "lint-baseline.json"


def test_baseline_is_committed_and_tests_only():
    assert BASELINE.is_file(), "lint-baseline.json must be committed"
    entries = json.loads(BASELINE.read_text())["entries"]
    assert entries, "the baseline should pin the deliberate test-tree findings"
    offenders = [key for key in entries if key.startswith("src/")]
    assert offenders == [], (
        "src/repro must stay lint-clean outright (fix or suppress with "
        f"justification, never baseline): {offenders}")


def test_cli_gate_with_baseline():
    """``repro lint src tests --baseline`` end to end, coverage audit included."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src", "tests",
         "--baseline", "lint-baseline.json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    report = result.stdout + result.stderr
    hint = ("\nnew lint violations — fix them, add a justified suppression, "
            "or (for deliberate fixture findings only) re-pin with "
            "`repro lint src tests --update-baseline --baseline "
            "lint-baseline.json`")
    assert result.returncode == 0, report + hint
    assert "lint: clean" in result.stdout, report
    assert "no longer occurs" not in result.stdout, (
        report + "\nstale baseline entries — re-pin with `repro lint src "
        "tests --update-baseline --baseline lint-baseline.json`")
    assert "gradcheck coverage:" in result.stdout, report
