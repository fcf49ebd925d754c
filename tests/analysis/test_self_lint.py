"""The self-lint gate: the whole repository must lint clean.

``test_lint_clean.py`` requires ``src/repro`` to be violation-free.  This
gate extends it to the test tree, the benchmarks and the examples, inside
the tier-1 pytest run with no extra CI plumbing.  There is no baseline: a
deliberate finding carries an inline suppression comment on its statement,
and the rule fixtures under ``tests/analysis/fixtures/`` are skipped by
the directory walk (their golden tests lint them by name).
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_cli_gate_whole_tree():
    """``repro lint src tests benchmarks examples`` end to end, coverage included."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src", "tests", "benchmarks",
         "examples"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    report = result.stdout + result.stderr
    hint = ("\nlint violations — fix them, or add a suppression with a "
            "justifying comment on the statement")
    assert result.returncode == 0, report + hint
    assert "lint: clean" in result.stdout, report
    assert "gradcheck coverage:" in result.stdout, report
