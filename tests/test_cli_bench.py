"""``repro bench --smoke`` tier-1 coverage: the suite runs, reports every
fused kernel, and the JSON artifact has the schema BENCH_pr3.json commits.
"""

import json

from repro.bench import PRE_REFACTOR_REFERENCE, run_suite
from repro.cli import build_parser, main

FUSED_OPS = {"linear", "linear_relu", "l2_normalize", "cosine_rows",
             "normalized_mse", "batch_norm"}


class TestBenchParser:
    def test_bench_flags_parse(self):
        args = build_parser().parse_args(
            ["bench", "--smoke", "--repeats", "2", "--output", "out.json"])
        assert args.smoke and args.repeats == 2 and args.output == "out.json"

    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert not args.smoke and args.repeats is None and args.output is None


class TestBenchSmoke:
    def test_smoke_command_writes_report(self, capsys, tmp_path):
        output = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "op microbenches (smoke)" in out
        assert "SSL step" in out

        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["mode"] == "smoke"
        assert set(report["ops"]) == FUSED_OPS
        for entry in report["ops"].values():
            for path in ("fused", "unfused"):
                assert entry[path]["median_s"] > 0.0
        ssl = report["ssl_step"]
        assert ssl["fused"]["median_s"] > 0.0
        assert ssl["speedup_fused_vs_unfused"] > 0.0
        # the pre-refactor reference is full-shape only; smoke must not
        # pretend to compare against it
        assert "speedup_vs_pre_refactor" not in ssl
        tape = report["tape"]
        assert tape["eager"]["median_s"] > 0.0
        assert tape["replay"]["median_s"] > 0.0
        assert tape["speedup_replay_vs_eager"] > 0.0
        # the 1.3x tape bar is likewise full-shape only
        assert "required_speedup" not in tape
        assert "tape replay" in out
        memory = report["memory"]
        assert set(memory["variants"]) == {"eager", "unplanned", "planned"}
        for entry in memory["variants"].values():
            assert entry["tracemalloc_peak_kb"] > 0.0
            assert entry["steps"] == memory["config"]["steps"]
        # planned replay must beat the unplanned tape on allocator traffic
        # even at smoke shapes — that ratio is shape-independent
        assert (memory["variants"]["planned"]["planner_alloc_calls"]
                < memory["variants"]["unplanned"]["planner_alloc_calls"])
        assert memory["planned_vs_unplanned"]["alloc_calls_reduction"] > 0.0
        assert "memory (" in out
        assert "planned vs unplanned" in out
        probe = report["eval_probe"]
        assert probe["linear"]["median_s"] > 0.0
        assert probe["ridge"]["median_s"] > 0.0
        assert probe["speedup_ridge_vs_linear"] > 0.0
        assert 0.0 <= probe["linear_accuracy"] <= 1.0
        assert 0.0 <= probe["ridge_accuracy"] <= 1.0
        # the merge contract is shape-independent: byte-identical merged
        # statistics across worker counts must hold even at smoke shapes
        merge = probe["shard_merge"]
        assert merge["identical_across_worker_counts"]
        assert len(set(merge["digests"].values())) == 1
        assert merge["worker_counts"] == [1, 2, 3]
        # the 10x / 1pt bars are full-shape only (smoke SGD is all overhead)
        assert "required_speedup" not in probe
        assert "max_accuracy_delta" not in probe
        assert "eval probe" in out

    def test_run_suite_smoke_is_json_serializable(self):
        report = run_suite(smoke=True, repeats=1)
        json.dumps(report)  # raises on non-serializable values

    def test_committed_baseline_matches_reference_constant(self):
        import pathlib

        baseline = pathlib.Path(__file__).resolve().parents[1] / "BENCH_pr3.json"
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        ssl = payload["ssl_step"]
        assert ssl["pre_refactor_reference"] == PRE_REFACTOR_REFERENCE
        assert ssl["speedup_vs_pre_refactor"] >= ssl["required_speedup"]

    def test_committed_pr4_baseline_passes_tape_bar(self):
        import pathlib

        from repro.bench import TAPE_REQUIRED_SPEEDUP

        baseline = pathlib.Path(__file__).resolve().parents[1] / "BENCH_pr4.json"
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        tape = payload["tape"]
        assert payload["mode"] == "full"
        assert tape["required_speedup"] == TAPE_REQUIRED_SPEEDUP
        assert tape["speedup_replay_vs_eager"] >= tape["required_speedup"]
        # the PR 3 SSL-step bar must still hold on the new engine
        ssl = payload["ssl_step"]
        assert ssl["speedup_vs_pre_refactor"] >= ssl["required_speedup"]

    def test_committed_pr9_baseline_eval_probe_section(self):
        import pathlib

        from repro.bench import (PROBE_BENCH_WORKER_COUNTS,
                                 PROBE_MAX_ACCURACY_DELTA,
                                 RIDGE_REQUIRED_SPEEDUP)

        baseline = pathlib.Path(__file__).resolve().parents[1] / "BENCH_pr9.json"
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["mode"] == "full"
        probe = payload["eval_probe"]
        # PR 9 acceptance bars: ridge >= 10x faster, within one accuracy
        # point of the SGD probe, and the sharded merge byte-identical
        # across every recorded worker count.
        assert probe["required_speedup"] == RIDGE_REQUIRED_SPEEDUP
        assert probe["speedup_ridge_vs_linear"] >= probe["required_speedup"]
        assert probe["max_accuracy_delta"] == PROBE_MAX_ACCURACY_DELTA
        assert probe["accuracy_delta"] <= probe["max_accuracy_delta"]
        merge = probe["shard_merge"]
        assert merge["worker_counts"] == list(PROBE_BENCH_WORKER_COUNTS)
        assert merge["identical_across_worker_counts"]
        assert len(set(merge["digests"].values())) == 1
        # earlier PRs' bars must still hold
        assert (payload["ssl_step"]["speedup_vs_pre_refactor"]
                >= payload["ssl_step"]["required_speedup"])
        assert (payload["tape"]["speedup_replay_vs_eager"]
                >= payload["tape"]["required_speedup"])

    def test_committed_pr8_baseline_memory_section(self):
        import pathlib

        baseline = pathlib.Path(__file__).resolve().parents[1] / "BENCH_pr8.json"
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["mode"] == "full"
        memory = payload["memory"]
        assert set(memory["variants"]) == {"eager", "unplanned", "planned"}
        reductions = memory["planned_vs_unplanned"]
        # the PR 8 acceptance bar: planned replay measurably reduces both
        # allocator traffic and the steady-state resident set vs the
        # unplanned (PR 7 allocation regime) tape
        assert reductions["alloc_calls_reduction"] > 0.25
        assert reductions["peak_rss_reduction"] > 0.0
        assert reductions["tracemalloc_peak_reduction"] > 0.25
        # earlier PRs' bars must still hold on the arena engine
        assert (payload["ssl_step"]["speedup_vs_pre_refactor"]
                >= payload["ssl_step"]["required_speedup"])
        assert (payload["tape"]["speedup_replay_vs_eager"]
                >= payload["tape"]["required_speedup"])
