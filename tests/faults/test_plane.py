"""Unit tests for the fault plane: events, arming, site counts, torn writes.

The contracts under test are the ones the crash sweep and the checkpoint
tests lean on: sites are no-ops while disarmed, arming is scoped and
resets the plane, every observed site is counted, and an event is a
one-shot at its own site only.
"""

import pytest

from repro.faults import plane
from repro.faults.plane import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    InjectedTornWrite,
)


@pytest.fixture(autouse=True)
def always_disarmed():
    """Every test starts and ends with the plane disarmed."""
    plane.disarm()
    yield
    plane.disarm()


def torn_plan(site: str = "ckpt.manifest.torn") -> FaultPlan:
    return FaultPlan(events=(FaultEvent(site=site, kind="torn_write"),))


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(site="x", kind="meteor_strike")

    def test_every_documented_kind_constructs(self):
        for kind in FAULT_KINDS:
            FaultEvent(site="x", kind=kind)


class TestArming:
    def test_sites_are_noops_while_disarmed(self):
        plane.fault_point("ckpt.arrays.begin")  # must not raise
        assert plane.take_torn("ckpt.arrays.torn") is False
        assert plane.site_counts() == {}

    def test_armed_context_always_disarms(self):
        with pytest.raises(RuntimeError, match="boom"):
            with plane.armed(torn_plan()):
                assert plane.ARMED is True
                raise RuntimeError("boom")
        assert plane.ARMED is False
        assert plane.site_counts() == {}

    def test_rearming_resets_hit_counters(self):
        plan = torn_plan()
        with plane.armed(plan):
            assert plane.take_torn("ckpt.manifest.torn") is True
        with plane.armed(plan):
            # Fresh state: the consumed one-shot is due again.
            assert plane.site_counts() == {}
            assert plane.take_torn("ckpt.manifest.torn") is True

    def test_site_counts_track_every_invocation(self):
        with plane.armed(FaultPlan()):
            plane.fault_point("a")
            plane.fault_point("a")
            plane.take_torn("b.torn")
            assert plane.site_counts() == {"a": 2, "b.torn": 1}


class TestTakeTorn:
    def test_one_shot_torn_event(self):
        with plane.armed(torn_plan()):
            assert plane.take_torn("ckpt.manifest.torn") is True
            assert plane.take_torn("ckpt.manifest.torn") is False

    def test_other_sites_are_untouched(self):
        with plane.armed(torn_plan()):
            assert plane.take_torn("ckpt.arrays.torn") is False
            plane.fault_point("ckpt.manifest.begin")  # must not kill
            assert plane.take_torn("ckpt.manifest.torn") is True

    def test_torn_write_is_an_os_error(self):
        # The trainer's best-effort checkpointing catches OSError, so a
        # torn save must land there rather than abort the run.
        assert issubclass(InjectedTornWrite, OSError)
        assert InjectedTornWrite("ckpt.manifest").site == "ckpt.manifest"
