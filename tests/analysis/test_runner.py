"""Runner behaviours: suppression scope, input dedup, statement spans."""

import textwrap

from repro.analysis import run_lint
from repro.analysis.linter import ModuleSource, iter_python_files, lint_file
from repro.analysis.rules import default_rules, rules_by_code


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestSuppressionScope:
    def test_comment_on_any_line_of_a_multiline_statement(self, tmp_path):
        # The violation reports at the call's first line; the suppression
        # sits two lines down, still inside the statement span.
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng(
                # repro-lint: disable=DET001
            )
        """)
        assert lint_file(path, rules_by_code(["DET001"])) == []

    def test_comment_on_closing_line(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            values = np.random.rand(
                3,
            )  # repro-lint: disable=DET001
        """)
        assert lint_file(path, rules_by_code(["DET001"])) == []

    def test_innermost_statement_bounds_the_scope(self, tmp_path):
        # The suppression lives inside the function body's first statement;
        # it must not leak to the later, separate violation.
        path = write(tmp_path / "mod.py", """\
            import numpy as np

            def f():
                a = np.random.rand(
                    2,
                )  # repro-lint: disable=DET001
                b = np.random.rand(3)
                return a, b
        """)
        found = lint_file(path, rules_by_code(["DET001"]))
        assert [v.line for v in found] == [7]

    def test_disable_all(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng()  # repro-lint: disable=all
        """)
        assert lint_file(path, default_rules()) == []


class TestInputDedup:
    def test_file_listed_twice(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        files = list(iter_python_files([path, path]))
        assert len(files) == 1
        found = run_lint([path, path], rules_by_code(["DET001"]))
        assert len(found) == 1

    def test_file_plus_containing_directory(self, tmp_path):
        path = write(tmp_path / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        found = run_lint([tmp_path, path], rules_by_code(["DET001"]))
        assert len(found) == 1

    def test_overlapping_directories(self, tmp_path):
        write(tmp_path / "pkg" / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        found = run_lint([tmp_path, tmp_path / "pkg"],
                         rules_by_code(["DET001"]))
        assert len(found) == 1


class TestModuleSourceSpans:
    def test_spans_only_built_when_suppressions_exist(self, tmp_path):
        clean = write(tmp_path / "clean.py", "x = 1\n")
        assert ModuleSource.parse(clean)._stmt_spans == []
        noisy = write(tmp_path / "noisy.py",
                      "x = 1  # repro-lint: disable=DET001\n")
        assert ModuleSource.parse(noisy)._stmt_spans == [(1, 1)]
