"""Output formats (json/SARIF) and the baseline ratchet."""

import json
import textwrap
from pathlib import Path

from repro.analysis.linter import Violation
from repro.analysis.output import Baseline, to_json, to_sarif
from repro.analysis.rules import default_rules


def v(path="src/mod.py", line=3, code="DET001", message="seedless rng"):
    return Violation(path=Path(path), line=line, code=code, message=message)


class TestSarif:
    def test_document_shape_is_sarif_2_1_0(self):
        doc = to_sarif([v()], default_rules())
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        codes = [r["id"] for r in driver["rules"]]
        assert codes == sorted(codes)
        assert {"DET002", "TAPE002", "SER002"} <= set(codes)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] == "error"

    def test_result_location_and_rule_index(self):
        doc = to_sarif([v(line=7)], default_rules())
        result = doc["runs"][0]["results"][0]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        assert result["message"]["text"] == "seedless rng"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/mod.py"
        assert location["region"]["startLine"] == 7
        driver_rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert driver_rules[result["ruleIndex"]]["id"] == "DET001"

    def test_serializes(self):
        json.dumps(to_sarif([v()], default_rules()))


class TestJson:
    def test_shape(self):
        doc = to_json([v()], {"files": 1})
        assert doc["count"] == 1
        assert doc["violations"][0]["code"] == "DET001"
        assert doc["stats"] == {"files": 1}
        assert "stats" not in to_json([])


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
        return main(argv + ["--no-coverage", "--no-cache"])

    def test_json_format(self, tmp_path, capsys):
        mod = self._violating_tree(tmp_path)
        status = self._main([str(mod), "--format", "json", "--stats"])
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert doc["count"] == 1
        assert doc["stats"]["per_rule"]["DET001"] == 1

    def test_sarif_format(self, tmp_path, capsys):
        mod = self._violating_tree(tmp_path)
        status = self._main([str(mod), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "DET001"

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
