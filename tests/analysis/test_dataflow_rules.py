"""Golden tests for the whole-program rules (DET002/TAPE002/SER002/PERF002).

Each fixture module under ``fixtures/`` seeds deliberate violations and
marks the expected line with a trailing ``# expect: CODE`` comment — the
golden list is read from the fixture itself, so the fixture and its
expectations cannot drift apart.  Everything *not* marked must stay
quiet, which pins the precision half of each rule (sanitizers, exemption
idioms, parameter pass-throughs) as tightly as the recall half.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.rules import rules_by_code

FIXTURES = Path(__file__).resolve().parent / "fixtures"
_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9]+)")


def golden(path: Path) -> set[tuple[int, str]]:
    """(line, code) pairs from ``# expect: CODE`` markers in the fixture."""
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            out.add((lineno, match.group(1)))
    return out


def found(path: Path, code: str) -> set[tuple[int, str]]:
    violations = run_lint([path], rules_by_code([code]))
    return {(v.line, v.code) for v in violations}


@pytest.mark.parametrize("fixture, code", [
    ("det002_augassign.py", "DET002"),
    ("det002_walrus.py", "DET002"),
    ("det002_comprehension.py", "DET002"),
    ("det002_tryfinally.py", "DET002"),
    ("det002_nested.py", "DET002"),
    ("tape002_branch.py", "TAPE002"),
    ("ser002_ckpt.py", "SER002"),
    ("perf002_replay.py", "PERF002"),
])
def test_fixture_matches_golden_list(fixture, code):
    path = FIXTURES / fixture
    expected = golden(path)
    assert expected, f"fixture {fixture} has no # expect markers"
    assert found(path, code) == expected


def test_every_fixture_is_covered():
    """A fixture added without a golden parametrization should fail loudly."""
    listed = {"det002_augassign.py", "det002_walrus.py",
              "det002_comprehension.py", "det002_tryfinally.py",
              "det002_nested.py", "tape002_branch.py", "ser002_ckpt.py",
              "perf002_replay.py"}
    on_disk = {p.name for p in FIXTURES.glob("*.py")
               if p.name != "__init__.py"}
    assert on_disk == listed


def test_det002_message_names_source_and_sink():
    violations = run_lint([FIXTURES / "det002_walrus.py"],
                          rules_by_code(["DET002"]))
    assert len(violations) == 1
    message = violations[0].message
    assert "numpy RNG" in message
    assert "engine op dispatch" in message
    assert "seeded" in message


def test_tape002_message_suggests_mark_unsafe():
    violations = run_lint([FIXTURES / "tape002_branch.py"],
                          rules_by_code(["TAPE002"]))
    assert violations
    assert all("mark_unsafe" in v.message for v in violations)


def test_suppression_silences_project_rules(tmp_path):
    src = (FIXTURES / "ser002_ckpt.py").read_text()
    marker = "self.position = 0              # expect: SER002"
    assert marker in src
    src = src.replace(marker, "self.position = 0  # repro-lint: disable=SER002")
    target = tmp_path / "ser002_ckpt.py"
    target.write_text(src)
    lines = {v.line for v in run_lint([target], rules_by_code(["SER002"]))}
    suppressed_line = next(
        i for i, text in enumerate(src.splitlines(), start=1)
        if "disable=SER002" in text)
    assert suppressed_line not in lines
    assert lines  # the other seeded violations still fire
