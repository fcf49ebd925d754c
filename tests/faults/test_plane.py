"""Unit tests for the fault plane: plans, arming, hit counters, payloads.

The contracts under test are the ones every chaos scenario leans on:
sites are no-ops while disarmed, a plan is a pure function of
``(seed, scenario)``, ``hit=0`` is persistent while ``hit>=1`` is a
one-shot, and payload corruption behaves exactly as
:mod:`repro.faults.plane` documents.
"""

import numpy as np
import pytest

from repro.faults import plane
from repro.faults.plane import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    InjectedCrash,
    InjectedIOError,
    InjectedTornWrite,
)
from repro.faults.scenarios import SCENARIOS, build_plan, scenario_names


@pytest.fixture(autouse=True)
def always_disarmed():
    """Every test starts and ends with the plane disarmed."""
    plane.disarm()
    yield
    plane.disarm()


def one_event_plan(**kwargs) -> FaultPlan:
    return FaultPlan(seed=0, scenario="test", events=(FaultEvent(**kwargs),))


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(site="x", kind="meteor_strike")

    def test_negative_hit_rejected(self):
        with pytest.raises(ValueError, match="hit must be >= 0"):
            FaultEvent(site="x", kind="io_error", hit=-1)

    def test_every_documented_kind_constructs(self):
        for kind in FAULT_KINDS:
            FaultEvent(site="x", kind=kind)


class TestArming:
    def test_sites_are_noops_while_disarmed(self):
        plane.fault_point("ckpt.arrays.begin")  # must not raise
        data = np.ones(3)
        assert plane.corrupt("engine.dispatch", data) is data
        assert plane.take_torn("ckpt.arrays.torn") is False
        assert plane.site_counts() == {}

    def test_armed_context_always_disarms(self):
        plan = one_event_plan(site="s", kind="io_error", hit=1)
        with pytest.raises(InjectedIOError):
            with plane.armed(plan):
                assert plane.ARMED is True
                plane.fault_point("s")
        assert plane.ARMED is False
        assert plane.site_counts() == {}

    def test_rearming_resets_hit_counters(self):
        plan = one_event_plan(site="s", kind="io_error", hit=1)
        with plane.armed(plan):
            with pytest.raises(InjectedIOError):
                plane.fault_point("s")
        with plane.armed(plan):
            # Fresh counters: the first call is hit 1 again.
            with pytest.raises(InjectedIOError):
                plane.fault_point("s")

    def test_site_counts_track_every_invocation(self):
        with plane.armed(FaultPlan(seed=0, scenario="probe")):
            plane.fault_point("a")
            plane.fault_point("a")
            plane.take_torn("b.torn")
            plane.corrupt("c", np.zeros(1))
            assert plane.site_counts() == {"a": 2, "b.torn": 1, "c": 1}


class TestHitSemantics:
    def test_one_shot_fires_at_exactly_the_nth_call(self):
        plan = one_event_plan(site="s", kind="io_error", hit=3)
        with plane.armed(plan):
            plane.fault_point("s")
            plane.fault_point("s")
            with pytest.raises(InjectedIOError):
                plane.fault_point("s")
            plane.fault_point("s")  # one-shot: never fires again

    def test_persistent_hit_zero_fires_every_call(self):
        plan = one_event_plan(site="s", kind="io_error", hit=0)
        with plane.armed(plan):
            for _ in range(3):
                with pytest.raises(InjectedIOError):
                    plane.fault_point("s")

    def test_other_sites_are_untouched(self):
        plan = one_event_plan(site="s", kind="io_error", hit=1)
        with plane.armed(plan):
            plane.fault_point("t")  # must not raise
            with pytest.raises(InjectedIOError):
                plane.fault_point("s")


class TestFaultKinds:
    def test_transient_flag_rides_on_the_exception(self):
        plan = one_event_plan(site="s", kind="io_error", hit=1, transient=True)
        with plane.armed(plan), pytest.raises(InjectedIOError) as excinfo:
            plane.fault_point("s")
        assert excinfo.value.transient is True
        assert excinfo.value.site == "s"
        assert isinstance(excinfo.value, OSError)

    def test_loader_fault_raises_io_error(self):
        plan = one_event_plan(site="data.loader.batch", kind="loader_fault")
        with plane.armed(plan), pytest.raises(InjectedIOError):
            plane.fault_point("data.loader.batch")

    def test_crash_is_not_an_io_error(self):
        # A crash must escape every OSError handler (loader retries,
        # best-effort checkpointing) and unwind the whole run.
        with plane.armed(one_event_plan(site="s", kind="crash")):
            with pytest.raises(InjectedCrash) as excinfo:
                plane.fault_point("s")
        assert not isinstance(excinfo.value, OSError)

    def test_torn_write_is_an_os_error(self):
        # Retry paths must treat a torn write as a hard OSError, and the
        # loader's corrupt-fallback must be able to catch it generically.
        assert issubclass(InjectedTornWrite, InjectedIOError)
        assert issubclass(InjectedTornWrite, OSError)


class TestCorrupt:
    def test_poisons_a_copy_never_the_original(self):
        original = np.arange(6, dtype=np.float32)
        plan = one_event_plan(site="engine.dispatch", kind="nan_payload")
        with plane.armed(plan):
            poisoned = plane.corrupt("engine.dispatch", original)
        assert np.isnan(poisoned.reshape(-1)[0])
        np.testing.assert_array_equal(original, np.arange(6, dtype=np.float32))

    def test_non_payload_event_does_not_corrupt(self):
        data = np.ones(2, dtype=np.float32)
        plan = one_event_plan(site="engine.dispatch", kind="crash")
        with plane.armed(plan):
            # The crash event matches but corrupt() only consumes
            # nan_payload; the data passes through untouched.
            out = plane.corrupt("engine.dispatch", data)
        np.testing.assert_array_equal(out, data)


class TestTakeTorn:
    def test_one_shot_torn_event(self):
        plan = one_event_plan(site="ckpt.manifest.torn", kind="torn_write")
        with plane.armed(plan):
            assert plane.take_torn("ckpt.manifest.torn") is True
            assert plane.take_torn("ckpt.manifest.torn") is False


class TestScenarioPlans:
    def test_plan_is_a_pure_function_of_seed_and_name(self):
        for name in scenario_names():
            assert build_plan(7, name) == build_plan(7, name)

    def test_different_seeds_move_randomized_hits(self):
        hits = {build_plan(seed, "engine-nan-once").events[0].hit
                for seed in range(16)}
        assert len(hits) > 1

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown chaos scenario"):
            build_plan(0, "no-such-story")

    def test_catalog_expectations_are_classifiable(self):
        for scenario in SCENARIOS.values():
            assert scenario.expect in ("survived", "clean-abort",
                                       "resume-verified")
            assert scenario.verify in ("none", "identical")

    def test_describe_is_json_safe(self):
        import json

        for name in scenario_names():
            json.dumps(build_plan(0, name).describe())
