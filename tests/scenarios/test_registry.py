"""Registry surface: names, config-driven building, method application."""

import numpy as np
import pytest

from repro.continual import ContinualConfig, run_method
from repro.scenarios import SCENARIO_REGISTRY, build_stream
from repro.scenarios.drift import DriftDetector


class TestRegistry:
    def test_the_five_settings_are_registered_in_order(self):
        assert list(SCENARIO_REGISTRY) == [
            "class_incremental", "task_free", "blurry",
            "domain_incremental", "long_sequence"]

    def test_unknown_scenario_rejected(self, tiny_sequence):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_stream("nope", tiny_sequence, ContinualConfig())

    def test_config_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ContinualConfig(scenario="nope")

    def test_config_knobs_reach_the_builders(self, tiny_sequence):
        config = ContinualConfig(blur_ratio=0.2, scenario_seed=9,
                                 segments_per_task=2, drift_threshold=1.1,
                                 domain_count=2, domain_shift=0.1,
                                 long_cycles=3)
        assert build_stream("blurry", tiny_sequence, config).params == {
            "ratio": 0.2, "seed": 9}
        free = build_stream("task_free", tiny_sequence, config)
        assert len(free) == 2 * len(tiny_sequence)
        assert free.drift_threshold == pytest.approx(1.1)
        assert len(build_stream("domain_incremental", tiny_sequence,
                                config)) == 2
        assert len(build_stream("long_sequence", tiny_sequence,
                                config)) == 3 * len(tiny_sequence)


class TestDriftDetector:
    def test_first_segment_never_fires(self, rng):
        detector = DriftDetector(threshold=0.7)
        assert not detector.observe(rng.normal(size=(16, 12)))

    def test_large_mean_shift_fires_and_resets(self, rng):
        detector = DriftDetector(threshold=0.7)
        base = rng.normal(size=(64, 12))
        detector.observe(base)
        shifted = base + 10.0
        assert detector.observe(shifted)
        # The reference restarted from the drifted segment: an identical
        # follow-up does not fire.
        assert not detector.observe(shifted)

    def test_similar_segments_do_not_fire(self, rng):
        detector = DriftDetector(threshold=0.7)
        for _ in range(5):
            assert not detector.observe(rng.normal(size=(64, 12)))

    def test_state_round_trip_preserves_trajectory(self, rng):
        a = DriftDetector(threshold=0.7)
        segments = [rng.normal(size=(32, 8)) for _ in range(4)]
        a.observe(segments[0])
        a.observe(segments[1])
        b = DriftDetector()
        b.load_state_dict(a.state_dict())
        for segment in segments[2:] + [segments[0] + 8.0]:
            assert a.observe(segment) == b.observe(segment)

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            DriftDetector(threshold=0.0)


class TestRunScenarioMethod:
    """``run_method`` applies a method to any registered scenario."""

    def test_task_free_gives_one_row_per_segment(self, fast_config,
                                                 tiny_sequence):
        config = fast_config.with_overrides(epochs=1, scenario="task_free",
                                            segments_per_task=2)
        result, transfer = run_method("finetune", tiny_sequence, config,
                                      seed=1)
        n_segments = 2 * len(tiny_sequence)
        assert result.n_tasks == n_segments and result.complete
        assert transfer.n_rows == n_segments and transfer.complete
        assert np.isfinite(transfer.online).all()
        assert np.isfinite(transfer.final).all()

    def test_returns_result_and_matrix(self, fast_config, tiny_sequence):
        config = fast_config.with_overrides(epochs=1, scenario="blurry")
        result, transfer = run_method("finetune", tiny_sequence, config,
                                      seed=1)
        assert result.complete
        assert transfer.complete
        assert transfer.scenario == "blurry"
        assert transfer.n_rows == len(tiny_sequence)
        assert transfer.n_eval == len(tiny_sequence)
        assert np.isfinite(transfer.online).all()
        assert np.isfinite(transfer.final).all()

    def test_matrix_carries_chance_from_the_panel(self, fast_config,
                                                  tiny_sequence):
        config = fast_config.with_overrides(epochs=1,
                                            scenario="class_incremental")
        _, transfer = run_method("finetune", tiny_sequence, config, seed=1)
        for j, task in enumerate(tiny_sequence):
            assert transfer.chance[j] == pytest.approx(1 / len(task.classes))
