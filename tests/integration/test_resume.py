"""Kill-and-resume integration tests (acceptance criteria of the
fault-tolerance layer).

A run checkpointed after task ``k`` and resumed in a fresh process must
produce a bit-for-bit identical accuracy matrix and final weights compared
to the uninterrupted run — for every CLI method (memory buffers with
their stored targets and noise scales, frozen old models, distillation
heads, SI's importance accumulators), for finetune, CaSSLe and EDSR under
the BarlowTwins and BYOL objectives (BYOL's EMA target), and on the
task-free and blurry streams.  The checkpoint is the run's one history: resume restores the
transfer matrix from it, so a lost or corrupt ``transfer-matrix.json``
changes nothing.  Resuming under another method or stream is refused, and
a failed checkpoint or transfer-matrix write is logged while the run goes
on.  An injected NaN loss must trigger the guardrail recovery ladder: skip
for transient poisons, restore + LR backoff + abort for persistent ones.
"""

import errno
import json

import numpy as np
import pytest

from repro.cli import METHODS
from repro.continual import (ContinualTrainer, build_objective, make_method,
                             run_method)
from repro.continual import trainer as trainer_module
from repro.continual.finetune import Finetune
from repro.runtime import (CheckpointError, CheckpointManager,
                           GuardrailPolicy, TrainingDiverged)
from repro.scenarios import build_stream
from repro.utils.serialization import save_transfer_matrix

SEED = 20240


def fresh_trainer(name, config, sequence, **kwargs):
    """Method + trainer rebuilt from scratch, as after a process restart."""
    rng = np.random.default_rng(SEED)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    method = make_method(name, objective, config, rng)
    return ContinualTrainer(method, config, rng, verbose=False, **kwargs)


def method_config(name, config):
    """CURL replays from a VAE decoder, so it runs under the VAE objective."""
    return config.with_overrides(objective="vae") if name == "curl" else config


def assert_same_weights(a, b):
    """Every parameter and buffer of the two objectives (BYOL's EMA target
    included) is bit-for-bit equal."""
    state_a, state_b = a.objective.state_dict(), b.objective.state_dict()
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name],
                                      err_msg=name)


def assert_resume_is_bit_for_bit(name, config, sequence, checkpoint_dir):
    """Lose the newest checkpoint of a finished run, resume, and compare
    with the uninterrupted run."""
    baseline = fresh_trainer(name, config, sequence)
    expected = baseline.run(sequence)

    # Checkpointed run, then a simulated crash: the newest checkpoint
    # (written after the final task) is lost.
    crashed = fresh_trainer(name, config, sequence,
                            checkpoint_dir=checkpoint_dir)
    crashed.run(sequence)
    last = len(sequence) - 1
    (checkpoint_dir / f"ckpt-{last:05d}.json").unlink()
    (checkpoint_dir / f"ckpt-{last:05d}.npz").unlink()

    resumed = fresh_trainer(name, config, sequence,
                            checkpoint_dir=checkpoint_dir)
    result = resumed.run(sequence, resume=True)

    np.testing.assert_array_equal(result.accuracy_matrix,
                                  expected.accuracy_matrix)
    assert_same_weights(resumed.method, baseline.method)
    kinds = [e["kind"] for e in resumed.log.events]
    assert "resume" in kinds


@pytest.mark.parametrize("name", METHODS)
class TestKillAndResume:
    def test_resume_is_bit_for_bit(self, name, fast_config, tiny_sequence,
                                   tmp_path):
        assert_resume_is_bit_for_bit(name, method_config(name, fast_config),
                                     tiny_sequence, tmp_path)

    def test_corrupt_newest_checkpoint_falls_back(self, name, fast_config,
                                                  tiny_sequence, tmp_path):
        config = method_config(name, fast_config)
        baseline = fresh_trainer(name, config, tiny_sequence)
        expected = baseline.run(tiny_sequence)

        crashed = fresh_trainer(name, config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        crashed.run(tiny_sequence)
        last = len(tiny_sequence) - 1
        # Torn write: manifest exists but is garbage.
        (tmp_path / f"ckpt-{last:05d}.json").write_text("{torn", encoding="utf-8")

        resumed = fresh_trainer(name, config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        kinds = [e["kind"] for e in resumed.log.events]
        assert "corrupt-checkpoint" in kinds and "resume" in kinds

    def test_resume_of_complete_run_reruns_nothing(self, name, fast_config,
                                                   tiny_sequence, tmp_path):
        config = method_config(name, fast_config)
        first = fresh_trainer(name, config, tiny_sequence,
                              checkpoint_dir=tmp_path)
        expected = first.run(tiny_sequence)
        resumed = fresh_trainer(name, config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)
        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        # No new checkpoints were written beyond the originals.
        kinds = [e["kind"] for e in resumed.log.events]
        assert "checkpoint" not in kinds


@pytest.mark.parametrize("objective", ["barlow", "byol"])
@pytest.mark.parametrize("name", ["finetune", "cassle", "edsr"])
class TestObjectiveKillAndResume:
    """The same crash under the other objectives: BYOL's EMA target lives
    outside the registered submodules, so only its own ``state_dict``
    carries it into the checkpoint."""

    def test_resume_is_bit_for_bit(self, name, objective, fast_config,
                                   tiny_sequence, tmp_path):
        config = fast_config.with_overrides(objective=objective)
        assert_resume_is_bit_for_bit(name, config, tiny_sequence, tmp_path)


class TestTapedKillAndResume:
    """PR 4 acceptance: kill-and-resume with ``use_tape`` enabled stays
    bit-for-bit identical to the pure-eager run — tapes are rebuilt after
    the restart, never serialized, and must not perturb any state."""

    def test_taped_resume_is_bit_for_bit_vs_eager(self, fast_config,
                                                  tiny_sequence, tmp_path):
        assert fast_config.use_tape  # tape defaults on
        eager = fresh_trainer("finetune",
                              fast_config.with_overrides(use_tape=False),
                              tiny_sequence)
        expected = eager.run(tiny_sequence)

        crashed = fresh_trainer("finetune", fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        crashed.run(tiny_sequence)
        last = len(tiny_sequence) - 1
        (tmp_path / f"ckpt-{last:05d}.json").unlink()
        (tmp_path / f"ckpt-{last:05d}.npz").unlink()

        resumed = fresh_trainer("finetune", fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        assert_same_weights(resumed.method, eager.method)
        assert resumed._taped_step is not None
        assert resumed._taped_step.stats["replays"] > 0

    def test_taped_checkpoints_identical_to_eager_checkpoints(
            self, fast_config, tiny_sequence, tmp_path):
        eager_dir = tmp_path / "eager"
        taped_dir = tmp_path / "taped"
        fresh_trainer("finetune", fast_config.with_overrides(use_tape=False),
                      tiny_sequence, checkpoint_dir=eager_dir).run(tiny_sequence)
        fresh_trainer("finetune", fast_config, tiny_sequence,
                      checkpoint_dir=taped_dir).run(tiny_sequence)

        for task_index in range(len(tiny_sequence)):
            name = f"ckpt-{task_index:05d}.npz"
            with np.load(eager_dir / name) as eager_ck, \
                    np.load(taped_dir / name) as taped_ck:
                assert set(eager_ck.files) == set(taped_ck.files)
                for key in eager_ck.files:
                    np.testing.assert_array_equal(
                        eager_ck[key], taped_ck[key],
                        err_msg=f"{name}:{key}")


class TestLongSequenceKillAndResume:
    """Scenario-path acceptance: a 20+ segment ``long_sequence`` run
    killed mid-stream and resumed in a fresh process reproduces the
    uninterrupted run bit-for-bit — accuracy matrix, transfer matrix
    (online *and* final views), final weights, and trainer RNG state."""

    @pytest.mark.slow
    def test_21_segment_resume_is_bit_for_bit(self, fast_config,
                                              tiny_sequence, tmp_path):
        config = fast_config.with_overrides(epochs=1, long_cycles=7,
                                            scenario="long_sequence")
        n_segments = 7 * len(tiny_sequence)

        def scenario_trainer(checkpoint_dir=None, resume=False):
            return run_method("edsr", tiny_sequence, config, seed=SEED,
                              checkpoint_dir=checkpoint_dir, resume=resume)

        expected, expected_tm = scenario_trainer()
        assert expected_tm.n_rows == n_segments

        # Checkpointed run, then a crash that loses the last two
        # checkpoints: resume restarts at segment 19 of 21.
        crash_dir = tmp_path / "crashed"
        scenario_trainer(checkpoint_dir=crash_dir)
        for lost in (n_segments - 1, n_segments - 2):
            (crash_dir / f"ckpt-{lost:05d}.json").unlink()
            (crash_dir / f"ckpt-{lost:05d}.npz").unlink()

        result, transfer = scenario_trainer(checkpoint_dir=crash_dir,
                                            resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        np.testing.assert_array_equal(transfer.online, expected_tm.online)
        np.testing.assert_array_equal(transfer.final, expected_tm.final)
        assert transfer.complete

    @pytest.mark.slow
    def test_resume_restores_weights_and_rng_state(self, fast_config,
                                                   tiny_sequence, tmp_path):
        from repro.continual import ContinualTrainer
        from repro.scenarios import build_stream

        config = fast_config.with_overrides(epochs=1, long_cycles=7,
                                            scenario="long_sequence")
        stream = build_stream("long_sequence", tiny_sequence, config)
        n_segments = len(stream)

        def stream_trainer(**kwargs) -> ContinualTrainer:
            return fresh_trainer("edsr", config, tiny_sequence, **kwargs)

        baseline = stream_trainer()
        baseline.run(stream)

        crashed = stream_trainer(checkpoint_dir=tmp_path)
        crashed.run(stream)
        (tmp_path / f"ckpt-{n_segments - 1:05d}.json").unlink()
        (tmp_path / f"ckpt-{n_segments - 1:05d}.npz").unlink()

        resumed = stream_trainer(checkpoint_dir=tmp_path)
        resumed.run(stream, resume=True)

        assert_same_weights(resumed.method, baseline.method)
        assert resumed.rng.bit_generator.state == \
            baseline.rng.bit_generator.state
        kinds = [e["kind"] for e in resumed.log.events]
        assert "resume" in kinds


def assert_stream_resume_is_bit_for_bit(name, scenario, config, sequence,
                                        directory):
    """Lose the last two checkpoints of a ``scenario`` run of ``name``;
    the resumed run must equal the uninterrupted one bit for bit."""
    config = method_config(name, config).with_overrides(epochs=1,
                                                        scenario=scenario)
    stream = build_stream(scenario, sequence, config)
    n_segments = len(stream)

    baseline = fresh_trainer(name, config, sequence)
    expected = baseline.run(stream)

    crashed = fresh_trainer(name, config, sequence, checkpoint_dir=directory)
    crashed.run(stream)
    for lost in (n_segments - 1, n_segments - 2):
        (directory / f"ckpt-{lost:05d}.json").unlink()
        (directory / f"ckpt-{lost:05d}.npz").unlink()

    resumed = fresh_trainer(name, config, sequence, checkpoint_dir=directory)
    result = resumed.run(stream, resume=True)

    np.testing.assert_array_equal(result.accuracy_matrix,
                                  expected.accuracy_matrix)
    np.testing.assert_array_equal(resumed.transfer_matrix.online,
                                  baseline.transfer_matrix.online)
    np.testing.assert_array_equal(resumed.transfer_matrix.final,
                                  baseline.transfer_matrix.final)
    assert_same_weights(resumed.method, baseline.method)
    resume = next(e for e in resumed.log.events if e["kind"] == "resume")
    assert resume["task_index"] == n_segments - 2


@pytest.mark.parametrize("scenario", ["task_free", "blurry"])
class TestStreamKillAndResume:
    """Kill-and-resume on the non-sharp streams: the task-free drift
    controller's state rides in the checkpoint, and the blurry stream is
    rebuilt from its config on resume.  Every method that keeps a memory
    or an old model is covered: a drift boundary lands mid-stream, so the
    checkpoint must carry whatever the method drew at it."""

    def test_resume_is_bit_for_bit(self, scenario, fast_config,
                                   tiny_sequence, tmp_path):
        assert_stream_resume_is_bit_for_bit("edsr", scenario, fast_config,
                                            tiny_sequence, tmp_path)

    @pytest.mark.parametrize("name", ["lump", "der", "cassle", "lin", "pfr",
                                      "curl"])
    def test_memory_and_old_model_methods_resume_bit_for_bit(
            self, name, scenario, fast_config, tiny_sequence, tmp_path):
        assert_stream_resume_is_bit_for_bit(name, scenario, fast_config,
                                            tiny_sequence, tmp_path)


#: Config overrides per stream; ``classic`` is the default
#: ``class_incremental`` stream.
STREAMS = {
    "classic": {},
    "blurry": {"scenario": "blurry"},
    "blurry-seed5": {"scenario": "blurry", "scenario_seed": 5},
    # One segment per task, so the task count matches the classic run's
    # and the boundary-controller checks are the ones that fire.
    "task_free": {"scenario": "task_free", "segments_per_task": 1},
}

STREAM_MISMATCHES = [
    ("blurry", "classic",
     r"stream blurry\(ratio=0\.3, seed=0\), this run uses class_incremental$"),
    ("classic", "blurry",
     r"stream class_incremental, this run uses blurry\(ratio=0\.3, seed=0\)$"),
    ("blurry", "blurry-seed5",
     r"blurry\(ratio=0\.3, seed=0\), this run uses blurry\(ratio=0\.3, seed=5\)$"),
    ("classic", "task_free",
     r"stream class_incremental, this run uses task_free\(segments_per_task=1, "
     r"seed=0, drift_threshold=0\.7\)$"),
    ("task_free", "classic",
     r"stream task_free\(segments_per_task=1, seed=0, drift_threshold=0\.7\), "
     r"this run uses class_incremental$"),
]


def run_under(stream, config, sequence, checkpoint_dir, resume=False):
    """One finetune run on ``STREAMS[stream]`` through ``run_method``."""
    return run_method("finetune", sequence,
                      config.with_overrides(**STREAMS[stream]), seed=SEED,
                      checkpoint_dir=checkpoint_dir, resume=resume)


@pytest.fixture(scope="module")
def stream_checkpoints(tmp_path_factory, fast_config, tiny_sequence):
    """The checkpoint directory of one finished run per stream, on demand."""
    config = fast_config.with_overrides(epochs=1)
    directories = {}

    def written_under(stream):
        if stream not in directories:
            directories[stream] = tmp_path_factory.mktemp(stream)
            run_under(stream, config, tiny_sequence, directories[stream])
        return directories[stream]

    return written_under


class TestResumeValidation:
    def test_resume_without_checkpoint_dir_raises(self, fast_config,
                                                  tiny_sequence):
        trainer = fresh_trainer("finetune", fast_config, tiny_sequence)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            trainer.run(tiny_sequence, resume=True)

    def test_resume_with_empty_dir_runs_from_scratch(self, fast_config,
                                                     tiny_sequence, tmp_path):
        baseline = fresh_trainer("finetune", fast_config, tiny_sequence)
        expected = baseline.run(tiny_sequence)
        trainer = fresh_trainer("finetune", fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = trainer.run(tiny_sequence, resume=True)
        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)

    def test_wrong_method_checkpoint_rejected(self, fast_config, tiny_sequence,
                                              tmp_path):
        from repro.runtime import CheckpointError
        first = fresh_trainer("finetune", fast_config, tiny_sequence,
                              checkpoint_dir=tmp_path)
        first.run(tiny_sequence)
        other = fresh_trainer("der", fast_config, tiny_sequence,
                              checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError, match="finetune"):
            other.run(tiny_sequence, resume=True)


    @pytest.mark.parametrize(
        "written, resumed, match", STREAM_MISMATCHES,
        ids=[f"{written}->{resumed}" for written, resumed, _ in STREAM_MISMATCHES])
    def test_checkpoint_from_another_stream_rejected(
            self, written, resumed, match, stream_checkpoints, fast_config,
            tiny_sequence):
        directory = stream_checkpoints(written)
        with pytest.raises(CheckpointError, match=match):
            run_under(resumed, fast_config.with_overrides(epochs=1),
                      tiny_sequence, directory, resume=True)


class TestBestEffortWrites:
    """A failed checkpoint or transfer-matrix write (a full disk) is logged
    and the run goes on; resume falls back past the missing checkpoint and
    restores the transfer matrix from the checkpoint, never from the file."""

    def test_failed_checkpoint_is_logged_and_resume_falls_back(
            self, fast_config, tiny_sequence, tmp_path, monkeypatch):
        save = CheckpointManager.save

        def full_disk_at_task_1(manager, task_index, state, **kwargs):
            if task_index == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return save(manager, task_index, state, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(CheckpointManager, "save", full_disk_at_task_1)
            survived = fresh_trainer("finetune", fast_config, tiny_sequence,
                                     checkpoint_dir=tmp_path)
            expected = survived.run(tiny_sequence)

        assert expected.complete
        failed = [e for e in survived.log.events
                  if e["kind"] == "checkpoint-failed"]
        assert [e["task_index"] for e in failed] == [1]
        assert "No space left" in failed[0]["detail"]
        assert not (tmp_path / "ckpt-00001.json").exists()
        assert (tmp_path / "ckpt-00002.json").exists()

        # Lose the newest checkpoint: the one before the failed save is
        # the resume point, and tasks 1..2 re-run bit-for-bit.
        (tmp_path / "ckpt-00002.json").unlink()
        (tmp_path / "ckpt-00002.npz").unlink()
        resumed = fresh_trainer("finetune", fast_config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        result = resumed.run(tiny_sequence, resume=True)

        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)
        resume = next(e for e in resumed.log.events if e["kind"] == "resume")
        assert resume["task_index"] == 1

    def test_failed_transfer_write_is_logged(self, fast_config, tiny_sequence,
                                             tmp_path, monkeypatch):
        def full_disk(transfer, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        config = fast_config.with_overrides(epochs=1)
        stream = build_stream("class_incremental", tiny_sequence, config)
        run_dir = tmp_path / "run"
        with monkeypatch.context() as patch:
            patch.setattr(trainer_module, "save_transfer_matrix", full_disk)
            trainer = fresh_trainer("finetune", config, tiny_sequence,
                                    checkpoint_dir=run_dir)
            result = trainer.run(stream)

        assert result.complete
        assert trainer.transfer_matrix.complete
        failed = [e for e in trainer.log.events
                  if e["kind"] == "transfer-save-failed"]
        assert len(failed) == 1
        assert "No space left" in failed[0]["detail"]
        assert not (run_dir / "transfer-matrix.json").exists()
        assert (run_dir / f"ckpt-{len(stream) - 1:05d}.json").exists()

        # Every row is in the last checkpoint: resuming the finished run
        # trains nothing and writes the whole matrix.
        save_transfer_matrix(trainer.transfer_matrix, tmp_path / "expected.json")
        resumed = fresh_trainer("finetune", config, tiny_sequence,
                                checkpoint_dir=run_dir)
        resumed.run(stream, resume=True)
        assert "checkpoint" not in [e["kind"] for e in resumed.log.events]
        assert ((run_dir / "transfer-matrix.json").read_bytes()
                == (tmp_path / "expected.json").read_bytes())

    @pytest.mark.parametrize("damage", ["lost", "torn", "online-row-short"])
    def test_resume_writes_the_uninterrupted_matrix_whatever_the_file_holds(
            self, damage, fast_config, tiny_sequence, tmp_path):
        config = fast_config.with_overrides(epochs=1)
        stream = build_stream("class_incremental", tiny_sequence, config)
        fresh_trainer("edsr", config, tiny_sequence,
                      checkpoint_dir=tmp_path).run(stream)
        path = tmp_path / "transfer-matrix.json"
        uninterrupted = path.read_bytes()
        last = len(stream) - 1
        (tmp_path / f"ckpt-{last:05d}.json").unlink()
        (tmp_path / f"ckpt-{last:05d}.npz").unlink()
        if damage == "lost":
            path.unlink()
        elif damage == "torn":
            path.write_bytes(uninterrupted[:len(uninterrupted) // 2])
        else:
            payload = json.loads(uninterrupted)
            payload["online"].pop()
            path.write_text(json.dumps(payload), encoding="utf-8")

        resumed = fresh_trainer("edsr", config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        resumed.run(stream, resume=True)

        resume = next(e for e in resumed.log.events if e["kind"] == "resume")
        assert resume["task_index"] == last
        assert path.read_bytes() == uninterrupted


@pytest.mark.parametrize("scenario", ["class_incremental", "task_free"])
class TestCheckpointedHistory:
    """Every checkpoint holds the run's transfer matrix, stream identity and
    boundary-controller state; a checkpoint from before that contract
    (schema 1) is skipped, not half-read."""

    def test_last_manifest_holds_the_returned_matrix(
            self, scenario, fast_config, tiny_sequence, tmp_path):
        config = fast_config.with_overrides(epochs=1, scenario=scenario)
        _, transfer = run_method("edsr", tiny_sequence, config, seed=SEED,
                                 checkpoint_dir=tmp_path)
        loaded = CheckpointManager(tmp_path).load_latest()
        assert loaded.skipped == []
        manifest = json.loads(loaded.path.read_text(encoding="utf-8"))
        assert {"state/transfer/online",
                "state/transfer/final"} <= set(manifest["checksums"])
        state = loaded.state
        np.testing.assert_array_equal(state["transfer"]["online"],
                                      transfer.online)
        np.testing.assert_array_equal(state["transfer"]["final"],
                                      transfer.final)
        assert state["transfer"]["rows_recorded"] == transfer.n_rows
        assert state["scenario"]["name"] == scenario
        assert (state["stream"] is None) == (scenario == "class_incremental")

    def test_schema_1_checkpoint_is_skipped_and_logged(
            self, scenario, fast_config, tiny_sequence, tmp_path):
        config = fast_config.with_overrides(epochs=1, scenario=scenario)
        expected, _ = run_method("finetune", tiny_sequence, config, seed=SEED,
                                 checkpoint_dir=tmp_path)
        newest = CheckpointManager(tmp_path).manifest_paths()[-1]
        manifest = json.loads(newest.read_text(encoding="utf-8"))
        # A schema-1 run state has no transfer matrix, and a sharp
        # stream's has no identity or controller state: restoring one
        # would fail on a missing key, so the version check must skip it.
        manifest["schema_version"] = 1
        del manifest["tree"]["transfer"]
        if scenario == "class_incremental":
            del manifest["tree"]["scenario"], manifest["tree"]["stream"]
        newest.write_text(json.dumps(manifest), encoding="utf-8")

        result, _ = run_method("finetune", tiny_sequence, config, seed=SEED,
                               checkpoint_dir=tmp_path, resume=True)

        events = [json.loads(line) for line in
                  (tmp_path / "events.jsonl").read_text().splitlines()]
        skipped = [e for e in events if e["kind"] == "corrupt-checkpoint"]
        assert len(skipped) == 1
        assert newest.name in skipped[0]["detail"]
        assert "schema version 1" in skipped[0]["detail"]
        resume = [e for e in events if e["kind"] == "resume"]
        assert resume[-1]["task_index"] == expected.n_tasks - 1
        np.testing.assert_array_equal(result.accuracy_matrix,
                                      expected.accuracy_matrix)


class CountedProbes:
    """Counts the trainer's panel probes (``evaluate_tasks`` calls)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        evaluate_tasks = trainer_module.evaluate_tasks

        def counted(*args, **kwargs):
            self.calls += 1
            return evaluate_tasks(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "evaluate_tasks", counted)


@pytest.mark.parametrize("scenario", ["class_incremental", "task_free"])
class TestOnePanelProbePerBoundary:
    """The panel is probed once before the first segment a run trains and
    once after each segment: a final row doubles as the next online row."""

    def test_n_segments_take_n_plus_one_probes(self, scenario, fast_config,
                                               tiny_sequence, monkeypatch):
        config = fast_config.with_overrides(epochs=1, scenario=scenario)
        stream = build_stream(scenario, tiny_sequence, config)
        probes = CountedProbes(monkeypatch)
        trainer = fresh_trainer("edsr", config, tiny_sequence)
        trainer.run(stream)

        assert probes.calls == len(stream) + 1
        transfer = trainer.transfer_matrix
        assert transfer.online[1:].tobytes() == transfer.final[:-1].tobytes()

    def test_resume_probes_once_then_once_per_remaining_segment(
            self, scenario, fast_config, tiny_sequence, tmp_path,
            monkeypatch):
        config = fast_config.with_overrides(epochs=1, scenario=scenario)
        stream = build_stream(scenario, tiny_sequence, config)
        n_segments = len(stream)
        fresh_trainer("edsr", config, tiny_sequence,
                      checkpoint_dir=tmp_path).run(stream)
        for lost in (n_segments - 1, n_segments - 2):
            (tmp_path / f"ckpt-{lost:05d}.json").unlink()
            (tmp_path / f"ckpt-{lost:05d}.npz").unlink()

        probes = CountedProbes(monkeypatch)
        resumed = fresh_trainer("edsr", config, tiny_sequence,
                                checkpoint_dir=tmp_path)
        resumed.run(stream, resume=True)

        done = n_segments - 2
        assert probes.calls == n_segments - done + 1
        transfer = resumed.transfer_matrix
        assert transfer.complete
        assert transfer.online[1:].tobytes() == transfer.final[:-1].tobytes()


class PoisonedFinetune(Finetune):
    """Finetune whose loss is NaN on chosen batch_loss call indices."""

    def __init__(self, objective, config, rng, poison=()):
        super().__init__(objective, config, rng)
        self.poison = set(poison)
        self.calls = 0

    def batch_loss(self, view1, view2, x):
        loss = super().batch_loss(view1, view2, x)
        call = self.calls
        self.calls += 1
        if call in self.poison:
            return loss * float("nan")
        return loss


def poisoned_trainer(config, sequence, poison, policy, **kwargs):
    rng = np.random.default_rng(SEED)
    objective = build_objective(config, sequence[0].train.x.shape[1:], rng)
    method = PoisonedFinetune(objective, config, rng, poison=poison)
    return ContinualTrainer(method, config, rng, verbose=False,
                            guardrails=policy, **kwargs)


class TestGuardrailRecovery:
    def test_transient_nan_is_skipped_without_aborting(self, fast_config,
                                                       tiny_sequence):
        policy = GuardrailPolicy(max_skips_per_task=3)
        trainer = poisoned_trainer(fast_config, tiny_sequence,
                                   poison={1, 3}, policy=policy)
        result = trainer.run(tiny_sequence)
        assert result.complete
        kinds = [e["kind"] for e in trainer.log.events]
        assert kinds.count("anomaly") == 2
        assert "restore" not in kinds and "abort" not in kinds

    def test_persistent_nan_restores_then_aborts(self, fast_config,
                                                 tiny_sequence, tmp_path):
        policy = GuardrailPolicy(max_skips_per_task=1, max_restores_per_task=1,
                                 lr_backoff=0.5)
        trainer = poisoned_trainer(fast_config, tiny_sequence,
                                   poison=set(range(10_000)), policy=policy,
                                   checkpoint_dir=tmp_path)
        with pytest.raises(TrainingDiverged) as excinfo:
            trainer.run(tiny_sequence)

        kinds = [e["kind"] for e in trainer.log.events]
        assert "restore" in kinds and "abort" in kinds
        restore = next(e for e in trainer.log.events if e["kind"] == "restore")
        assert restore["lr_scale"] == pytest.approx(0.5)

        report_path = tmp_path / "failure-report.json"
        assert excinfo.value.report_path == report_path
        report = json.loads(report_path.read_text())
        assert report["method"] == "finetune"
        assert report["task_index"] == 0
        assert report["restores"] == 1
        assert report["policy"]["lr_backoff"] == pytest.approx(0.5)
        assert report["recent_events"]
