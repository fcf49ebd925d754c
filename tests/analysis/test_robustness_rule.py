"""RB001 — robustness I/O hygiene rule tests.

The rule scopes to the ``repro.runtime`` package: any write-mode ``open()`` or
``Path.write_text``/``write_bytes`` outside ``atomic_write_bytes`` can be
torn by a crash mid-write — the corrupt-hybrid state the crash sweep
exists to rule out.
"""

import textwrap

from repro.analysis import lint_file
from repro.analysis.rules import RobustIORule


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes(violations):
    return [v.code for v in violations]


class TestScope:
    def test_writes_outside_runtime_are_ignored(self, tmp_path):
        path = write(tmp_path / "repro" / "utils" / "report.py", """\
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
        """)
        assert lint_file(path, [RobustIORule()]) == []


class TestRuntimeWrites:
    def test_fires_on_write_mode_open(self, tmp_path):
        path = write(tmp_path / "repro" / "runtime" / "state.py", """\
            def save(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
        """)
        found = lint_file(path, [RobustIORule()])
        assert codes(found) == ["RB001"]
        assert "atomic_write_bytes" in found[0].message

    def test_fires_on_append_and_mode_keyword(self, tmp_path):
        path = write(tmp_path / "repro" / "runtime" / "log.py", """\
            def log(path, line):
                with open(path, mode="a") as handle:
                    handle.write(line)
        """)
        assert codes(lint_file(path, [RobustIORule()])) == ["RB001"]

    def test_read_mode_open_is_clean(self, tmp_path):
        path = write(tmp_path / "repro" / "runtime" / "state.py", """\
            def load(path):
                with open(path, "rb") as handle:
                    return handle.read()
        """)
        assert lint_file(path, [RobustIORule()]) == []

    def test_fires_on_path_write_helpers(self, tmp_path):
        path = write(tmp_path / "repro" / "runtime" / "state.py", """\
            def save(path, text, blob):
                path.write_text(text)
                path.write_bytes(blob)
        """)
        assert codes(lint_file(path, [RobustIORule()])) == ["RB001", "RB001"]

    def test_atomic_writer_body_is_exempt(self, tmp_path):
        path = write(tmp_path / "repro" / "runtime" / "checkpoint.py", """\
            def atomic_write_bytes(path, data):
                tmp = path.with_name(path.name + ".tmp")
                with open(tmp, "wb") as handle:
                    handle.write(data)
        """)
        assert lint_file(path, [RobustIORule()]) == []

    def test_suppression_comment_is_honoured(self, tmp_path):
        path = write(tmp_path / "repro" / "runtime" / "log.py", """\
            def log(path, line):
                with open(path, "a") as handle:  # repro-lint: disable=RB001
                    handle.write(line)
        """)
        assert lint_file(path, [RobustIORule()]) == []


class TestLivePackagesAreClean:
    def test_shipping_runtime_modules_pass(self):
        import pathlib

        import repro.runtime

        rule = RobustIORule()
        package_dir = pathlib.Path(repro.runtime.__file__).parent
        for module in sorted(package_dir.glob("*.py")):
            assert lint_file(module, [rule]) == [], module.name
