"""The lint gate: the shipped tree must stay clean.

Running inside the tier-1 pytest suite makes the linter a CI gate with no
extra plumbing — any new violation of any rule in ``src/repro`` or any new
differentiable primitive without a gradcheck test fails ``python -m pytest``.
"""

import shutil
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("parent", ["nn", "runtime"])
def test_tree_lints_clean_under_a_directory_named_like_a_package(
        tmp_path, capsys, parent):
    # Rules scope by module name, so a checkout under a directory named
    # like a repro package is linted as the same modules.
    copy = tmp_path / parent / "src" / "repro"
    shutil.copytree(SRC_ROOT, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    status = main([str(copy), "--no-coverage"])
    out = capsys.readouterr().out
    assert status == 0, "\n" + out
    assert "lint: clean" in out, "\n" + out
