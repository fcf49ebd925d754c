"""Behavioural tests for every continual method (Table III rows)."""

import numpy as np
import pytest

from repro.cli import METHODS
from repro.continual import (
    CaSSLe,
    ContinualConfig,
    ContinualTrainer,
    DER,
    EDSR,
    Finetune,
    LUMP,
    SynapticIntelligence,
    build_objective,
    make_method,
)
from repro.continual.trainer import _build_augment
from repro.data.dataset import ArrayDataset
from repro.data.splits import Task
from repro.tensor import AnomalyError, detect_anomaly


METHOD_NAMES = ["finetune", "si", "der", "lump", "cassle", "edsr"]


@pytest.fixture
def setup(tiny_sequence, fast_config, rng):
    objective = build_objective(fast_config, tiny_sequence[0].train.x.shape[1:], rng)
    return objective, fast_config, rng


class TestFactory:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_builds_every_method(self, name, setup):
        objective, config, rng = setup
        method = make_method(name, objective, config, rng)
        assert method.name == name

    def test_unknown_name_raises(self, setup):
        objective, config, rng = setup
        with pytest.raises(KeyError):
            make_method("icarl", objective, config, rng)


class TestBatchLossContracts:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_first_task_loss_is_finite_and_backpropable(self, name, setup, tiny_sequence):
        objective, config, rng = setup
        method = make_method(name, objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, len(tiny_sequence))
        x = tiny_sequence[0].train.x[:8]
        v1, v2 = method.augment(x, rng)
        loss = method.batch_loss(v1, v2, x)
        assert np.isfinite(loss.item())
        loss.backward()
        grads = [p.grad for p in objective.encoder.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


class TestCaSSLe:
    def test_no_snapshot_on_first_task(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = CaSSLe(objective, config, rng)
        method.begin_task(tiny_sequence[0], 0, 3)
        assert method.old_objective is None
        assert method.head is None

    def test_snapshot_and_head_on_later_tasks(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = CaSSLe(objective, config, rng)
        method.begin_task(tiny_sequence[1], 1, 3)
        assert method.old_objective is not None
        assert not method.old_objective.training
        assert method.head is not None

    def test_old_model_frozen_during_task(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = CaSSLe(objective, config, rng)
        method.begin_task(tiny_sequence[1], 1, 3)
        snapshot = method.old_objective.state_dict()
        # mutate the live model; the snapshot must not move
        for p in objective.parameters():
            p.data = p.data + 1.0
        for key, value in method.old_objective.state_dict().items():
            np.testing.assert_array_equal(value, snapshot[key])

    def test_trainable_parameters_include_head(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = CaSSLe(objective, config, rng)
        base_count = len(method.trainable_parameters())
        method.begin_task(tiny_sequence[1], 1, 3)
        assert len(method.trainable_parameters()) > base_count

    def test_distillation_increases_loss_magnitude(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = CaSSLe(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        x = tiny_sequence[0].train.x[:8]
        v1, v2 = method.augment(x, rng)
        method.begin_task(tiny_sequence[0], 0, 3)
        first = method.batch_loss(v1, v2, x).item()
        method.begin_task(tiny_sequence[1], 1, 3)
        second = method.batch_loss(v1, v2, x).item()
        assert second != pytest.approx(first)  # distillation term now present


class TestEDSR:
    def test_memory_filled_after_end_task(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = EDSR(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        assert len(method.buffer) == method.buffer.per_task_quota
        record = method.buffer.records[0]
        assert record.noise_scales is not None
        assert len(record.noise_scales) == len(record.samples)

    def test_selection_strategy_from_config(self, tiny_sequence, fast_config, rng):
        config = fast_config.with_overrides(selection="random")
        objective = build_objective(config, tiny_sequence[0].train.x.shape[1:], rng)
        method = EDSR(objective, config, rng)
        assert method.strategy.name == "random"

    def test_replay_loss_from_config(self, tiny_sequence, fast_config, rng):
        config = fast_config.with_overrides(replay_loss="dis")
        objective = build_objective(config, tiny_sequence[0].train.x.shape[1:], rng)
        method = EDSR(objective, config, rng)
        assert method.replay.name == "dis"

    def test_replay_term_included_after_first_task(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = EDSR(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        method.begin_task(tiny_sequence[1], 1, 3)
        assert method._replay_loss() is not None

    def test_no_replay_on_first_task(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = EDSR(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        assert method._replay_loss() is None

    def test_zero_replay_batch_disables_replay(self, tiny_sequence, fast_config, rng):
        config = fast_config.with_overrides(replay_batch_size=0)
        objective = build_objective(config, tiny_sequence[0].train.x.shape[1:], rng)
        method = EDSR(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        method.begin_task(tiny_sequence[1], 1, 3)
        assert method._replay_loss() is None

    def test_minvar_strategy_computes_view_variances(self, tiny_sequence, fast_config, rng):
        config = fast_config.with_overrides(selection="min-var")
        objective = build_objective(config, tiny_sequence[0].train.x.shape[1:], rng)
        method = EDSR(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)  # must not raise
        assert len(method.buffer) > 0


class TestLUMP:
    def test_mixup_shapes_and_memory(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = LUMP(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        assert len(method.buffer) == method.buffer.per_task_quota
        method.begin_task(tiny_sequence[1], 1, 3)
        x = tiny_sequence[1].train.x[:8]
        v1, v2 = method.augment(x, rng)
        loss = method.batch_loss(v1, v2, x)
        assert np.isfinite(loss.item())

    def test_random_selection_stores_task_samples(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = LUMP(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        stored = method.buffer.records[0].samples
        train_flat = tiny_sequence[0].train.x.reshape(len(tiny_sequence[0].train), -1)
        for sample in stored.reshape(len(stored), -1):
            assert (train_flat == sample).all(axis=1).any()


class TestDER:
    def test_stores_backbone_targets(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = DER(objective, config, rng)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        record = method.buffer.records[0]
        assert record.targets is not None
        assert record.targets.shape == (len(record.samples), objective.encoder.backbone.output_dim)

    def test_end_task_restores_train_mode_when_encoding_raises(self, setup,
                                                              tiny_sequence):
        objective, config, rng = setup
        method = DER(objective, config, rng)
        task = tiny_sequence[0]
        poisoned = Task(task.task_id, task.classes,
                        ArrayDataset(np.full_like(task.train.x, np.nan),
                                     task.train.y),
                        task.test)
        method.begin_task(poisoned, 0, 3)
        with detect_anomaly(), pytest.raises(AnomalyError):
            method.end_task(poisoned, 0)
        assert all(module.training for module in objective.modules())

    def test_replay_term_after_first_task(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = DER(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        method.begin_task(tiny_sequence[1], 1, 3)
        x = tiny_sequence[1].train.x[:8]
        v1, v2 = method.augment(x, rng)
        with_replay = method.batch_loss(v1, v2, x)
        assert np.isfinite(with_replay.item())


class TestSI:
    def test_importance_accumulates_after_task(self, setup, tiny_sequence, fast_config):
        objective, config, rng = setup
        method = SynapticIntelligence(objective, config, rng)
        trainer = ContinualTrainer(method, config, rng)
        trainer.run(tiny_sequence)
        total_importance = sum(float(np.abs(o).sum()) for o in method._big_omega)
        assert total_importance > 0

    def test_penalty_only_after_first_task(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = SynapticIntelligence(objective, config, rng)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        x = tiny_sequence[0].train.x[:8]
        v1, v2 = method.augment(x, rng)
        method.begin_task(tiny_sequence[0], 0, 3)
        base = method.batch_loss(v1, v2, x)
        assert np.isfinite(base.item())
        # give parameters fake importance, then drift them
        method.end_task(tiny_sequence[0], 0)
        method._big_omega = [np.ones_like(p.data) for p in method._params]
        method.begin_task(tiny_sequence[1], 1, 3)
        for p in method._params:
            p.data = p.data + 0.1
        penalized = method.batch_loss(v1, v2, x)
        assert penalized.item() > base.item()

    def test_step_hooks_track_path_integral(self, setup, tiny_sequence):
        objective, config, rng = setup
        method = SynapticIntelligence(objective, config, rng)
        method.begin_task(tiny_sequence[0], 0, 3)
        params = method._params
        params[0].grad = np.ones_like(params[0].data)
        method.before_step()
        params[0].data = params[0].data - 0.01  # simulated optimizer step
        method.after_step()
        assert np.abs(method._omega[0]).sum() > 0


#: What each CLI method declares it keeps across increments.
KEEPS = {"finetune": (False, False), "si": (False, False),
         "der": (True, False), "lump": (True, False),
         "cassle": (False, True), "pfr": (False, True),
         "edsr": (True, True), "lin": (True, True), "curl": (False, True)}


class TestBaseOwnsMemoryAndOldModel:
    """``ContinualMethod`` builds, snapshots, checkpoints and restores the
    memory and the old model of every method that declares them."""

    @staticmethod
    def build(name, config, sequence, seed=0):
        if name == "curl":
            config = config.with_overrides(objective="vae")
        rng = np.random.default_rng(seed)
        objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
        return make_method(name, objective, config, rng)

    def test_every_cli_method_is_listed(self):
        assert sorted(KEEPS) == sorted(METHODS)

    @pytest.mark.parametrize("name", sorted(KEEPS))
    def test_boundaries_build_exactly_what_is_declared(self, name, fast_config,
                                                       tiny_sequence):
        uses_memory, uses_old_model = KEEPS[name]
        method = self.build(name, fast_config, tiny_sequence)
        assert (method.uses_memory, method.uses_old_model) == KEEPS[name]
        method.begin_task(tiny_sequence[0], 0, 3)
        assert (method.buffer is not None) == uses_memory
        assert method.old_objective is None
        method.begin_task(tiny_sequence[1], 1, 3)
        assert (method.old_objective is not None) == uses_old_model
        if uses_old_model:
            assert method.old_objective is not method.objective
            assert not method.old_objective.training
        expected = {"objective"}
        expected |= {"old_objective"} if uses_old_model else set()
        expected |= {"buffer"} if uses_memory else set()
        assert expected <= set(method.state_dict())
        absent = {"old_objective", "buffer"} - expected
        assert not absent & set(method.state_dict())

    def test_first_boundary_fixes_the_budget_split(self, fast_config,
                                                   tiny_sequence):
        method = self.build("lump", fast_config, tiny_sequence)
        method.begin_task(tiny_sequence[0], 0, 3)
        buffer = method.buffer
        method.begin_task(tiny_sequence[1], 1, 6)
        assert method.buffer is buffer
        assert buffer.n_tasks == 3
        assert buffer.total_budget == fast_config.memory_budget

    def test_each_later_boundary_takes_a_fresh_snapshot(self, fast_config,
                                                        tiny_sequence):
        method = self.build("cassle", fast_config, tiny_sequence)
        method.begin_task(tiny_sequence[1], 1, 3)
        first = method.old_objective
        moved = self.build("cassle", fast_config, tiny_sequence, seed=1)
        method.objective.load_state_dict(moved.objective.state_dict())
        method.begin_task(tiny_sequence[2], 2, 3)
        assert method.old_objective is not first
        for key, value in moved.objective.state_dict().items():
            np.testing.assert_array_equal(
                method.old_objective.state_dict()[key], value, err_msg=key)
        assert not np.array_equal(first.parameters()[0].data,
                                  method.old_objective.parameters()[0].data)

    def test_remember_stores_copies_labels_and_extras(self, fast_config,
                                                      tiny_sequence):
        method = self.build("edsr", fast_config, tiny_sequence)
        task = tiny_sequence[0]
        method.begin_task(task, 0, 3)
        chosen = np.array([5, 1, 3])
        scales = np.full((3, 4), 0.5)
        method.remember(task, 0, chosen, noise_scales=scales)
        record = method.buffer.records[0]
        assert record.task_id == 0
        np.testing.assert_array_equal(record.samples, task.train.x[chosen])
        np.testing.assert_array_equal(record.labels, task.train.y[chosen])
        assert record.noise_scales is scales
        assert record.targets is None
        assert not np.shares_memory(record.samples, task.train.x)

    @pytest.mark.parametrize("name", ["edsr", "lin", "der", "curl"])
    def test_state_round_trip_restores_memory_and_old_model(
            self, name, fast_config, tiny_sequence):
        method = self.build(name, fast_config, tiny_sequence)
        method.augment = _build_augment(tiny_sequence[0].train.x)
        method.begin_task(tiny_sequence[0], 0, 3)
        method.end_task(tiny_sequence[0], 0)
        method.begin_task(tiny_sequence[1], 1, 3)
        # Training moves the live model away from the snapshot; the restored
        # old model must be the snapshot, not a copy of the live model.
        moved = self.build(name, fast_config, tiny_sequence, seed=2)
        method.objective.load_state_dict(moved.objective.state_dict())
        state = method.state_dict()

        restored = self.build(name, fast_config, tiny_sequence, seed=1)
        restored.load_state_dict(state)
        if method.uses_memory:
            original, loaded = method.buffer.state_dict(), restored.buffer.state_dict()
            assert len(loaded["records"]) == len(original["records"]) == 1
            for key, value in original["records"][0].items():
                np.testing.assert_array_equal(loaded["records"][0][key], value)
        if method.uses_old_model:
            assert restored.old_objective is not restored.objective
            assert not restored.old_objective.training
            for key, value in method.old_objective.state_dict().items():
                np.testing.assert_array_equal(
                    restored.old_objective.state_dict()[key], value)
