"""The scenario x method matrix: every setting trains every method.

The tentpole acceptance of the scenario registry — ``task_free``,
``blurry``, ``domain_incremental``, ``long_sequence``, and the classic
``class_incremental`` all complete a smoke run under finetune, EDSR, DER,
and LUMP, each emitting a complete transfer matrix; repeat runs are
deterministic.
"""

import numpy as np
import pytest

from repro.scenarios import run_scenario_method, scenario_names

SCENARIOS = ["class_incremental", "task_free", "blurry",
             "domain_incremental", "long_sequence"]
METHODS = ["finetune", "edsr", "der", "lump"]


@pytest.fixture(scope="module")
def smoke_config(fast_config):
    """One epoch and the smallest stream shapes: seconds per cell."""
    return fast_config.with_overrides(
        epochs=1, long_cycles=2, segments_per_task=2, domain_count=3)


def test_the_matrix_covers_every_registered_scenario():
    assert sorted(SCENARIOS) == sorted(scenario_names())


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_method_smoke(scenario, method, smoke_config, tiny_sequence):
    config = smoke_config.with_overrides(scenario=scenario)
    result, transfer = run_scenario_method(method, tiny_sequence, config,
                                           seed=3)
    assert result.complete
    assert transfer.complete
    assert transfer.scenario == scenario
    assert transfer.name == method
    # Every cell of both matrices was probed — no NaN holes.
    assert np.isfinite(transfer.online).all()
    assert np.isfinite(transfer.final).all()
    assert 0.0 <= transfer.final_accuracy() <= 1.0
    summary = transfer.summary()
    assert summary["final_accuracy"] is not None
    assert summary["forgetting"] is not None


@pytest.mark.parametrize("scenario,method", [("task_free", "edsr"),
                                             ("blurry", "der")])
def test_repeat_runs_are_deterministic(scenario, method, smoke_config,
                                       tiny_sequence):
    config = smoke_config.with_overrides(scenario=scenario)
    first_result, first_tm = run_scenario_method(method, tiny_sequence,
                                                 config, seed=3)
    second_result, second_tm = run_scenario_method(method, tiny_sequence,
                                                   config, seed=3)
    np.testing.assert_array_equal(first_result.accuracy_matrix,
                                  second_result.accuracy_matrix)
    np.testing.assert_array_equal(first_tm.online, second_tm.online)
    np.testing.assert_array_equal(first_tm.final, second_tm.final)


def test_task_free_run_discovers_boundaries(smoke_config, tiny_sequence,
                                            tmp_path):
    """The drift controller must fire at least one self-triggered
    boundary on the default task-free stream shape (and the stream hands
    the trainer one row per *segment*, not per base task)."""
    config = smoke_config.with_overrides(scenario="task_free")
    result, transfer = run_scenario_method("finetune", tiny_sequence, config,
                                           seed=3, checkpoint_dir=tmp_path)
    n_segments = config.segments_per_task * len(tiny_sequence)
    assert transfer.n_rows == n_segments
    assert result.n_tasks == n_segments
    assert (tmp_path / "transfer-matrix.json").exists()
