"""``repro lint``: the analysis entry point and the CLI subcommand."""

import textwrap

import pytest

from repro.analysis import main as analysis_main
from repro.cli import main as cli_main


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestAnalysisMain:
    def test_exit_one_and_report_on_violation(self, tmp_path, capsys):
        path = write(tmp_path / "bad.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        status = analysis_main([str(path), "--no-coverage"])
        out = capsys.readouterr().out
        assert status == 1
        assert f"{path}:2: DET001" in out
        assert "1 violation" in out

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        path = write(tmp_path / "good.py", """\
            import numpy as np
            rng = np.random.default_rng(0)
        """)
        status = analysis_main([str(path), "--no-coverage"])
        assert status == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_select_runs_only_requested_rules(self, tmp_path, capsys):
        path = write(tmp_path / "repro" / "nn" / "bad.py", """\
            import numpy as np

            def f(param):
                param.data = np.zeros(3)
                return np.random.default_rng()
        """)
        status = analysis_main([str(path), "--select", "AD001", "--no-coverage"])
        out = capsys.readouterr().out
        assert status == 1
        assert "AD001" in out and "DET001" not in out

    @pytest.mark.parametrize("target, message", [
        ("missing", "error: no such file or directory: {target}"),
        ("README.md", "error: not a Python file or directory: {target}"),
    ], ids=["missing", "not-python"])
    def test_missing_path_exits_two(self, tmp_path, capsys, target, message):
        # Usage errors exit 2; exit 1 means violations.
        target = tmp_path / target
        if target.name != "missing":
            write(target, "x = 1\n")
        status = analysis_main([str(target), "--no-coverage"])
        assert status == 2
        assert message.format(target=target) in capsys.readouterr().out

    def test_coverage_gap_fails_run(self, tmp_path, capsys):
        # A minimal package whose only primitive has no gradcheck test.
        write(tmp_path / "pkg" / "tensor" / "ops.py", """\
            def lonely(x):
                return apply("lonely", x)
        """)
        write(tmp_path / "pkg" / "tensor" / "tensor.py", """\
            class Tensor:
                pass
        """)
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        status = analysis_main([str(tmp_path / "pkg"), "--tests", str(tests_dir)])
        out = capsys.readouterr().out
        assert status == 1
        assert "UNCOVERED ops.lonely" in out


class TestCliSubcommand:
    def test_repro_lint_clean_file(self, tmp_path, capsys):
        path = write(tmp_path / "good.py", "import numpy as np\nr = np.random.default_rng(1)\n")
        status = cli_main(["lint", str(path), "--no-coverage"])
        assert status == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_repro_lint_violation_propagates_exit(self, tmp_path, capsys):
        path = write(tmp_path / "bad.py", "import numpy as np\nr = np.random.rand()\n")
        status = cli_main(["lint", str(path), "--no-coverage"])
        assert status == 1
        assert "DET001" in capsys.readouterr().out

    def test_repro_lint_select_forwarded(self, tmp_path, capsys):
        path = write(tmp_path / "bad.py", "import numpy as np\nr = np.random.rand()\n")
        status = cli_main(["lint", str(path), "--select", "API001", "--no-coverage"])
        assert status == 0  # DET001 not selected, so the file is clean
        assert "lint: clean" in capsys.readouterr().out
