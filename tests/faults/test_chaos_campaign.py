"""The chaos campaign: seeded failure scenarios through the real trainer.

Split in two: every catalog scenario is one cheap in-process run, so the
smoke half covers the whole catalog, and the ``chaos``-marked half is the
checkpoint crash sweep (one forked subprocess per write boundary).
Deselect the heavy half with ``-m "not chaos"``.
"""

import json

import pytest

from repro.faults.chaos import format_campaign, run_campaign
from repro.faults.scenarios import scenario_names

#: The default-pass smoke campaign: the whole catalog.
SMOKE_SCENARIOS = [
    "baseline",
    "engine-nan-once",
    "engine-nan-persistent",
    "loader-transient",
    "loader-persistent",
    "ckpt-io-error",
    "ckpt-torn-manifest",
    "crash-task-boundary",
    "crash-late",
    "crash-torn-checkpoint",
    "task-free-loader-fault",
    "blurry-boundary-crash",
]


def test_smoke_and_heavy_partition_the_catalog():
    """The smoke half runs every scenario; the heavy half runs none."""
    assert SMOKE_SCENARIOS == scenario_names()


class TestSmokeCampaign:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        return run_campaign(seed=0, names=SMOKE_SCENARIOS,
                            workdir=tmp_path_factory.mktemp("chaos-smoke"),
                            include_sweep=False)

    def test_every_scenario_meets_its_expected_outcome(self, report):
        assert report["ok"], format_campaign(report)
        for entry in report["scenarios"]:
            assert entry["outcome"] == entry["expected"], entry

    def test_failed_entries_would_carry_their_repro_plan(self, report):
        # Every entry records (seed, scenario, plan) — the reproduction
        # recipe a FAILED line promises.
        for entry in report["scenarios"]:
            assert entry["seed"] == 0
            assert entry["plan"]["scenario"] == entry["scenario"]

    def test_report_is_json_serializable(self, report):
        json.dumps(report)

    def test_format_campaign_summarizes(self, report):
        text = format_campaign(report)
        assert "overall: OK" in text
        for name in SMOKE_SCENARIOS:
            assert name in text


@pytest.mark.chaos
class TestHeavyCampaign:
    """The checkpoint crash-consistency sweep."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        return run_campaign(seed=0, names=[],
                            workdir=tmp_path_factory.mktemp("chaos-heavy"),
                            include_sweep=True)

    def test_campaign_is_green(self, report):
        assert report["ok"], format_campaign(report)

    def test_sweep_rides_along_with_full_coverage(self, report):
        assert report["crash_sweep"]["coverage"]["complete"]
        assert report["crash_sweep"]["ok"]
