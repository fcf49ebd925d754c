"""Tests for guardrail policy, event log, and failure reports."""

import json

import numpy as np
import pytest

from repro.nn import Parameter
from repro.runtime import (
    GuardrailPolicy,
    RunLog,
    build_failure_report,
    clip_detail,
    global_grad_norm,
)


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = GuardrailPolicy()
        assert policy.max_grad_norm == 1e3
        assert policy.max_skips_per_task == 3

    @pytest.mark.parametrize("kwargs", [
        {"max_grad_norm": 0.0},
        {"max_grad_norm": -1.0},
        {"max_skips_per_task": -1},
        {"lr_backoff": -0.5},
        {"lr_backoff": 0.0},
        {"lr_backoff": 1.5},
        {"max_restores_per_task": -1},
    ])
    def test_invalid_settings_raise(self, kwargs):
        with pytest.raises(ValueError):
            GuardrailPolicy(**kwargs)

    def test_none_disables_thresholds(self):
        policy = GuardrailPolicy(max_grad_norm=None)
        assert policy.max_grad_norm is None

    def test_policy_is_frozen(self):
        with pytest.raises(AttributeError):
            GuardrailPolicy().max_grad_norm = 1.0


class TestGradNorm:
    def test_l2_over_all_parameters(self):
        a = Parameter(np.zeros(2))
        b = Parameter(np.zeros(3))
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([0.0, 4.0, 0.0])
        assert global_grad_norm([a, b]) == pytest.approx(5.0)

    def test_missing_grads_contribute_zero(self):
        a = Parameter(np.zeros(2))
        b = Parameter(np.zeros(2))
        a.grad = np.array([1.0, 0.0])
        assert global_grad_norm([a, b]) == pytest.approx(1.0)

    def test_empty_list_is_zero(self):
        assert global_grad_norm([]) == 0.0


class TestClipDetail:
    def test_short_text_untouched(self):
        assert clip_detail("short") == "short"

    def test_long_text_truncated_with_count(self):
        out = clip_detail("x" * 700)
        assert len(out) < 700
        assert "100 chars truncated" in out


class TestRunLog:
    def test_memory_only_accumulates(self):
        log = RunLog()
        log.append("anomaly", task_index=2)
        assert log.path is None
        assert log.events[0]["kind"] == "anomaly"
        assert log.events[0]["task_index"] == 2

    def test_file_mode_appends_jsonl(self, tmp_path):
        path = tmp_path / "run" / "events.jsonl"
        log = RunLog(path)
        log.append("skip", reason="nan")
        log.append("restore", restores=1)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "skip" and first["reason"] == "nan"
        assert "time" in first

    def test_tail_returns_last_n(self):
        log = RunLog()
        for i in range(30):
            log.append("e", i=i)
        tail = log.tail(5)
        assert [e["i"] for e in tail] == [25, 26, 27, 28, 29]

    def test_failure_report_written_next_to_log(self, tmp_path):
        log = RunLog(tmp_path / "events.jsonl")
        target = log.write_failure_report({"message": "boom"})
        assert target == tmp_path / "failure-report.json"
        assert json.loads(target.read_text())["message"] == "boom"

    def test_failure_report_memory_mode_returns_none(self):
        assert RunLog().write_failure_report({"m": 1}) is None


class TestFailureReport:
    def test_report_structure(self):
        log = RunLog()
        log.append("anomaly", detail="NaN in mul")
        policy = GuardrailPolicy(max_restores_per_task=1)
        report = build_failure_report("edsr", 3, 1, policy, log)
        assert report["method"] == "edsr"
        assert report["task_index"] == 3
        assert report["restores"] == 1
        assert report["policy"]["max_restores_per_task"] == 1
        assert report["recent_events"][0]["detail"] == "NaN in mul"
        assert "diverged on task 3" in report["message"]
        json.dumps(report)  # must be plain JSON
