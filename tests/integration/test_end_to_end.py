"""Integration tests: full continual runs exercising the whole stack.

These are the "does the paper's machinery actually behave" tests — slower
than unit tests (a few seconds each) but still CI-sized.
"""

import numpy as np
import pytest

from repro import (
    ContinualConfig,
    load_image_benchmark,
    load_tabular_benchmark,
    run_method,
    run_multitask,
)
from repro.data.splits import class_incremental_split
from repro.data.synthetic import SyntheticImageConfig, make_image_dataset


@pytest.fixture(scope="module")
def sequence():
    config = SyntheticImageConfig(
        n_classes=6, train_per_class=30, test_per_class=20,
        image_size=8, intra_class_std=0.3, seed=21, name="it")
    train, test = make_image_dataset(config)
    return class_incremental_split(train, test, 3)


@pytest.fixture(scope="module")
def config():
    return ContinualConfig(epochs=4, batch_size=24, representation_dim=24,
                           memory_budget=12, replay_batch_size=8,
                           noise_neighbors=10, knn_k=10)


class TestLearningHappens:
    def test_first_task_beats_chance(self, sequence, config):
        result, _ = run_method("finetune", sequence, config, seed=0)
        # 2 classes per task: chance is 0.5
        assert result.accuracy_matrix[0, 0] > 0.7

    def test_representations_transfer_across_tasks(self, sequence, config):
        """The final model should still beat chance on the first task."""
        result, _ = run_method("finetune", sequence, config, seed=0)
        assert result.accuracy_matrix[-1, 0] > 0.6


class TestMethodBehaviours:
    def test_edsr_runs_all_mechanisms(self, sequence, config):
        """EDSR with every mechanism on: entropy selection, noisy replay,
        distillation.  The run must complete with sane metrics."""
        result, _ = run_method("edsr", sequence, config, seed=0)
        assert result.complete
        assert 0.5 <= result.acc() <= 1.0
        assert -0.05 <= result.fgt() <= 0.5

    def test_multitask_is_strong(self, sequence, config):
        multitask = run_multitask(sequence, config.with_overrides(epochs=6), seed=0)
        assert multitask.acc() > 0.7

    @pytest.mark.parametrize("name", ["si", "der", "lump", "cassle"])
    def test_baselines_complete(self, name, sequence, config):
        result, _ = run_method(name, sequence, config, seed=0)
        assert result.complete
        assert result.acc() > 0.5


class TestBarlowVariant:
    def test_barlow_objective_trains_continually(self, sequence, config):
        barlow_config = config.with_overrides(objective="barlow", lr=0.02)
        result, _ = run_method("edsr", sequence, barlow_config, seed=0)
        assert result.complete
        assert result.acc() > 0.5


class TestTabularPipeline:
    def test_edsr_on_tabular_sequence(self):
        sequence = load_tabular_benchmark("ci")
        config = ContinualConfig(epochs=2, batch_size=32, representation_dim=16,
                                 optimizer="adam", lr=1e-3, memory_budget=25,
                                 replay_batch_size=8, noise_neighbors=10, knn_k=10)
        result, _ = run_method("edsr", sequence, config, seed=0)
        assert result.complete
        # binary tasks: chance is ~the majority rate; require real signal
        assert result.acc() > 0.6


class TestRegistryEndToEnd:
    def test_ci_benchmark_loads_and_trains(self):
        sequence = load_image_benchmark("cifar10-like", "ci")
        config = ContinualConfig(epochs=2, knn_k=10)
        result, _ = run_method("finetune", sequence, config, seed=0)
        assert result.complete
