"""Runner behaviours: suppression scope, input dedup, stats."""

import textwrap

from repro.analysis import run_lint
from repro.analysis.linter import (LintStats, ModuleSource, iter_python_files,
                                   lint_file)
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


class TestStats:
    def test_per_rule_counts_include_zeroes(self, tmp_path):
        write(tmp_path / "mod.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        stats = LintStats()
        run_lint([tmp_path], default_rules(), stats=stats)
        assert stats.files == 1
        assert stats.per_rule["DET001"] == 1
        assert stats.per_rule["SER002"] == 0  # every rule is listed
        assert stats.elapsed_seconds > 0
        payload = stats.as_dict()
        assert payload["cache_hit_rate"] == 0.0
        assert set(payload) == {"files", "per_rule", "cache_hits",
                                "cache_misses", "cache_hit_rate", "jobs",
                                "elapsed_seconds"}

    def test_cli_stats_flag(self, tmp_path, capsys):
        from repro.analysis import main

        write(tmp_path / "mod.py", "x = 1\n")
        status = main([str(tmp_path), "--stats", "--no-coverage",
                       "--no-cache"])
        out = capsys.readouterr().out
        assert status == 0
        assert "stats:" in out
        assert "DET002: 0" in out


class TestModuleSourceSpans:
    def test_spans_only_built_when_suppressions_exist(self, tmp_path):
        clean = write(tmp_path / "clean.py", "x = 1\n")
        assert ModuleSource.parse(clean)._stmt_spans == []
        noisy = write(tmp_path / "noisy.py",
                      "x = 1  # repro-lint: disable=DET001\n")
        assert ModuleSource.parse(noisy)._stmt_spans == [(1, 1)]
