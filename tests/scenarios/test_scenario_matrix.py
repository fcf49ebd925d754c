"""The scenario x method matrix: every setting trains every method.

``task_free``, ``blurry``, ``domain_incremental``, ``long_sequence`` and
``class_incremental`` all complete a checkpointed smoke run under
finetune, EDSR, DER and LUMP, each emitting a complete transfer matrix;
the other five methods run on ``class_incremental``.  Every cell's
digests must equal its pin in ``test_golden.MATRIX_GOLDEN``, and repeat
runs are deterministic.  The memory methods' manifest pins cover every
array of their replay buffer.  The finetune and EDSR class-incremental
cells also run under ``no_fusion()``, against a tolerance.
"""

import numpy as np
import pytest

from repro.cli import METHODS as ALL_METHODS
from repro.continual import run_method
from repro.runtime import CheckpointManager
from repro.scenarios import SCENARIO_REGISTRY
from repro.tensor import no_fusion
from tests.scenarios.test_golden import (MATRIX_GOLDEN, SEED, last_checksums,
                                         run_digests)

SCENARIOS = ["class_incremental", "task_free", "blurry",
             "domain_incremental", "long_sequence"]
METHODS = ["finetune", "edsr", "der", "lump"]
#: Methods smoke-run and pinned on the identity stream only.
CLASS_INCREMENTAL_ONLY = ["si", "cassle", "lin", "pfr", "curl"]
CASES = ([(scenario, method) for scenario in SCENARIOS for method in METHODS]
         + [("class_incremental", method)
            for method in CLASS_INCREMENTAL_ONLY])
#: Memory method -> the arrays each of its buffer records checkpoints.
BUFFER_ARRAYS = {"edsr": {"samples", "noise_scales", "labels"},
                 "der": {"samples", "targets", "labels"},
                 "lump": {"samples", "labels"}}


@pytest.fixture(scope="module")
def smoke_config(fast_config):
    """One epoch and the smallest stream shapes: seconds per cell."""
    return fast_config.with_overrides(
        epochs=1, long_cycles=2, segments_per_task=2, domain_count=3)


def test_the_matrix_covers_every_registered_scenario():
    assert sorted(SCENARIOS) == sorted(SCENARIO_REGISTRY)


def test_the_matrix_covers_every_method_and_every_pin():
    assert sorted(METHODS + CLASS_INCREMENTAL_ONLY) == sorted(ALL_METHODS)
    assert sorted(CASES) == sorted(MATRIX_GOLDEN)


@pytest.fixture(scope="module")
def trained_cell(smoke_config, tiny_sequence, tmp_path_factory):
    """Train a cell once per module; returns its run and checkpoint dir."""
    cells = {}

    def train(scenario, method):
        if (scenario, method) not in cells:
            config = smoke_config.with_overrides(scenario=scenario)
            if method == "curl":
                config = config.with_overrides(objective="vae")
            directory = tmp_path_factory.mktemp(f"{scenario}-{method}")
            cells[scenario, method] = (
                *run_digests(method, config, tiny_sequence, directory),
                directory)
        return cells[scenario, method]

    return train


@pytest.mark.parametrize("scenario,method", CASES)
def test_scenario_method_smoke(scenario, method, trained_cell):
    result, transfer, digests, _directory = trained_cell(scenario, method)
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
    assert digests == MATRIX_GOLDEN[scenario, method]


@pytest.mark.parametrize("scenario,method", [
    case for case in CASES if case[1] in BUFFER_ARRAYS])
def test_manifest_pin_covers_the_memory_buffer(scenario, method, trained_cell):
    """``MATRIX_GOLDEN``'s manifest digest hashes every buffer record array."""
    *_, directory = trained_cell(scenario, method)
    prefix = "state/method/buffer/records/"
    records: dict[int, set[str]] = {}
    for key in last_checksums(directory):
        if key.startswith(prefix):
            index, array = key[len(prefix):].split("/")
            records.setdefault(int(index), set()).add(array)
    assert records, "the last manifest checksums no buffer array"
    assert sorted(records) == list(range(len(records)))
    for arrays in records.values():
        assert arrays == BUFFER_ARRAYS[method]


@pytest.mark.parametrize("scenario,method", [("task_free", "edsr"),
                                             ("blurry", "der")])
def test_repeat_runs_are_deterministic(scenario, method, smoke_config,
                                       tiny_sequence):
    config = smoke_config.with_overrides(scenario=scenario)
    first_result, first_tm = run_method(method, tiny_sequence, config,
                                        seed=SEED)
    second_result, second_tm = run_method(method, tiny_sequence, config,
                                          seed=SEED)
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
    result, transfer = run_method("finetune", tiny_sequence, config,
                                  seed=SEED, checkpoint_dir=tmp_path)
    n_segments = config.segments_per_task * len(tiny_sequence)
    assert transfer.n_rows == n_segments
    assert result.n_tasks == n_segments
    assert (tmp_path / "transfer-matrix.json").exists()


#: How far a class-incremental cell's final model arrays may move under
#: ``no_fusion()``, as a share of each array's largest magnitude.  The
#: fused kernels round differently from their compositions (``Tensor.mean``
#: multiplies by a float32 reciprocal where the kernels divide), and
#: training carries the difference along.  Measured at these cells:
#: finetune 0.0017%, edsr 0.82% (the first conv stage's BatchNorm bias).
COMPOSED_TOLERANCE = {"finetune": 1e-3, "edsr": 1e-2}


@pytest.mark.parametrize("method", sorted(COMPOSED_TOLERANCE))
def test_composed_run_matches_the_fused_cell(method, trained_cell,
                                             smoke_config, tiny_sequence,
                                             tmp_path):
    """Under ``no_fusion()`` the cell gives the same accuracy-matrix and
    ``transfer-matrix.json`` bytes, and model arrays within tolerance."""
    _, _, fused, fused_dir = trained_cell("class_incremental", method)
    config = smoke_config.with_overrides(scenario="class_incremental")
    with no_fusion():
        _, _, composed = run_digests(method, config, tiny_sequence, tmp_path)
    assert composed[0] == fused[0]  # the accuracy matrix
    assert composed[2] == fused[2]  # transfer-matrix.json
    want = final_model(fused_dir)
    got = final_model(tmp_path)
    assert sorted(got) == sorted(want)
    for name, array in want.items():
        bound = COMPOSED_TOLERANCE[method] * np.abs(array).max()
        assert np.abs(got[name] - array).max() <= bound, name


def final_model(directory):
    """The objective's arrays in the run's last checkpoint."""
    return CheckpointManager(directory).load_latest().state["method"]["objective"]
