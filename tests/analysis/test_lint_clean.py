"""The lint gate: the shipped tree must stay clean.

Running inside the tier-1 pytest suite makes the linter a CI gate with no
extra plumbing — any new violation of any rule in ``src/repro`` or any new
differentiable primitive without a gradcheck test fails ``python -m pytest``.
"""

from pathlib import Path

from repro.analysis import audit_gradcheck_coverage, main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
TENSOR_TESTS = REPO_ROOT / "tests" / "tensor"


def test_every_differentiable_primitive_has_a_gradcheck_test():
    report = audit_gradcheck_coverage(SRC_ROOT, TENSOR_TESTS)
    assert report.ok, "\n" + report.format()
    # The audit is only meaningful if it actually sees the surface.
    assert len(report.surface) >= 26


def test_lint_entry_point_exits_zero_on_clean_tree(capsys):
    status = main([str(SRC_ROOT), "--tests", str(TENSOR_TESTS)])
    out = capsys.readouterr().out
    assert status == 0, "\n" + out
    assert "lint: clean" in out, "\n" + out
    assert "gradcheck coverage" in out, "\n" + out
