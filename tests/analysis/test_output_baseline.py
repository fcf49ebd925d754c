"""The baseline ratchet, as a class and through ``repro lint``."""

import textwrap
from pathlib import Path

from repro.analysis.linter import Violation
from repro.analysis.output import Baseline


def v(path="src/mod.py", line=3, code="DET001", message="seedless rng"):
    return Violation(path=Path(path), line=line, code=code, message=message)


class TestBaseline:
    def test_fingerprint_is_line_independent(self, tmp_path):
        baseline = Baseline(tmp_path / "b.json")
        assert baseline.fingerprint(v(line=3)) == baseline.fingerprint(v(line=99))
        assert baseline.fingerprint(v()) != baseline.fingerprint(v(code="AD001"))
        assert baseline.fingerprint(v()) != baseline.fingerprint(v(message="x"))

    def test_paths_relative_to_baseline_dir(self, tmp_path):
        baseline = Baseline(tmp_path / "b.json")
        key = baseline.fingerprint(v(path=tmp_path / "pkg" / "mod.py"))
        assert key.startswith("pkg/mod.py:")

    def test_roundtrip_and_ratchet(self, tmp_path):
        path = tmp_path / "b.json"
        baseline = Baseline(path)
        baseline.update([v(), v(line=9)])  # two occurrences of one print
        baseline.write()

        loaded = Baseline.load(path)
        # Same two occurrences (lines moved): accepted.
        new, fixed = loaded.partition([v(line=5), v(line=50)])
        assert new == [] and fixed == []
        # A third occurrence breaks the ratchet.
        new, _ = loaded.partition([v(line=1), v(line=2), v(line=3)])
        assert len(new) == 1
        # A different violation is always new.
        new, _ = loaded.partition([v(), v(line=9), v(code="AD001")])
        assert [x.code for x in new] == ["AD001"]

    def test_fixed_entries_reported_and_dropped_on_update(self, tmp_path):
        path = tmp_path / "b.json"
        baseline = Baseline(path)
        baseline.update([v(), v(code="AD001")])
        baseline.write()
        loaded = Baseline.load(path)
        new, fixed = loaded.partition([v()])
        assert new == [] and len(fixed) == 1
        loaded.update([v()])
        loaded.write()
        assert len(Baseline.load(path).entries) == 1

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        new, fixed = baseline.partition([v()])
        assert len(new) == 1 and fixed == []


class TestCliFormats:
    def _violating_tree(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(textwrap.dedent("""\
            import numpy as np
            rng = np.random.default_rng()
        """))
        return mod

    def _main(self, argv):
        from repro.analysis import main
        return main(argv + ["--no-coverage"])

    def test_update_baseline_then_ratchet(self, tmp_path, capsys, monkeypatch):
        mod = self._violating_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        status = self._main([str(mod), "--baseline", str(baseline),
                             "--update-baseline"])
        assert status == 0
        assert baseline.is_file()
        capsys.readouterr()

        # Baselined: clean exit, message mentions the accepted count.
        status = self._main([str(mod), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert status == 0
        assert "1 baselined" in out

        # A new violation beyond the baseline fails.
        mod.write_text(mod.read_text() + "extra = np.random.default_rng()\n")
        status = self._main([str(mod), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert status == 1
        assert "DET001" in out

    def test_fixed_baseline_entry_reported(self, tmp_path, capsys):
        mod = self._violating_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        self._main([str(mod), "--baseline", str(baseline),
                    "--update-baseline"])
        mod.write_text("x = 1\n")
        capsys.readouterr()
        status = self._main([str(mod), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert status == 0
        assert "no longer occurs" in out

    def test_update_baseline_rejects_select(self, tmp_path, capsys):
        # A re-pin under --select would drop every other rule's entries.
        mod = self._violating_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        self._main([str(mod), "--baseline", str(baseline),
                    "--update-baseline"])
        pinned = baseline.read_bytes()
        capsys.readouterr()
        status = self._main([str(mod), "--select", "AD001", "--baseline",
                             str(baseline), "--update-baseline"])
        assert status == 2
        assert "error: --update-baseline" in capsys.readouterr().out
        assert baseline.read_bytes() == pinned
