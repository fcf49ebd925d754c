"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

One ``--smoke`` run (one epoch per task, one untraced and one traced run per
workload) feeds every check.
"""

from __future__ import annotations

import copy
import json

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.trace import LAYER_METRICS, read_spans, self_times
from benchmarks.e2e.workloads import WORKLOADS

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    code = run.main(["--smoke", "--repeats", "1", "--trace", "1",
                     "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    assert code == 0, [r["failures"] for r in report["workloads"].values()]
    return report


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_every_metric_appears_with_its_unit(smoke):
    assert set(smoke["workloads"]) == set(WORKLOADS)
    for name, result in smoke["workloads"].items():
        assert set(result["per_layer"]) == set(LAYER_METRICS), name
        for metric in SPEC["end_to_end"]:
            assert run.E2E_METRICS[metric["name"]] == metric["unit"]
            assert metric["name"] in result["end_to_end"], (name, metric)
        for metric in SPEC["per_layer"]:
            assert LAYER_METRICS[metric["name"]] == metric["unit"]
            assert metric["name"] in result["per_layer"], (name, metric)
        line = run.summary_line(result, SPEC, traced=False)
        assert {m: v["unit"] for m, v in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_self_times_are_nonnegative_and_within_run_s(smoke):
    for name, result in smoke["workloads"].items():
        spans, _counters = read_spans(run.ROOT / result["trace_file"])
        own = self_times(spans)
        assert spans and min(own) >= -1e-9, name
        assert sum(own) <= result["traced_run_s"], name


def test_forced_digest_mismatch_trips_the_gate(smoke):
    records = smoke["workloads"]["edsr-image"]["runs"]
    assert run.gate(records, acc_floor=None) == [None, None]
    for field in ("matrix_sha256", "manifest_sha256"):
        forged = copy.deepcopy(records)
        forged[1][field] = "0" * 64
        reasons = run.gate(forged, acc_floor=None)
        assert reasons[0] is None and "digest mismatch" in reasons[1]
    assert run.gate(records, acc_floor=101.0)[0].startswith("acc_pct")


def test_untraced_child_installs_no_wrappers(smoke):
    for name, result in smoke["workloads"].items():
        untraced, traced = result["runs"]
        assert not untraced["traced"] and untraced["wrappers"] == 0, name
        assert traced["traced"] and traced["wrappers"] > 0, name
