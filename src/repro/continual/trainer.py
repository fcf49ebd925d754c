"""The continual training loop (Fig. 2's training + selecting stages).

For each increment: fresh optimizer over the method's current parameter set
(heads change per increment), epochs of two-view CSSL batches, method hooks
around each optimizer step, then the method's ``end_task`` (selection /
consolidation) and one probe of the stream's eval panel — one row of the
transfer matrix, whose columns for the increments seen so far are the
accuracy-matrix row.

Fault tolerance (``repro.runtime``) threads through the same loop:

- with a ``checkpoint_dir``, the full run state (method, memory, RNG
  stream, partial accuracy and transfer matrices, stream identity and
  boundary-controller state) is checkpointed atomically after every
  increment, and ``run(..., resume=True)`` continues a killed run
  bit-for-bit from the last good checkpoint — refusing one written by
  another method, sequence length or stream;
- with a ``guardrails`` policy, every batch is screened for NaN/Inf loss,
  exploding gradients, and autograd anomalies, recovering by an escalating
  ladder: skip batch → restore the task-start state with LR backoff →
  abort with a structured failure report (:class:`TrainingDiverged`).

Every run is a stream run: :meth:`ContinualTrainer.run` iterates a
:class:`~repro.scenarios.streams.ScenarioStream`, and a plain
``TaskSequence`` runs as its ``class_incremental`` stream.  A boundary
controller turns the stream's shape into
:class:`~repro.continual.method.BoundaryEvent` begin/end pairs: sharp
streams get one pair per segment, while ``task_free`` streams route every
segment through a :class:`~repro.scenarios.drift.DriftDetector` and emit
boundaries only when the input statistics drift — methods self-trigger
selection and consolidation.  Every run records a
:class:`~repro.eval.transfer.TransferMatrix` (online + final accuracy on
the full eval panel per segment).  The checkpoint is the one place a
run's history lives: the matrix rides in every checkpoint's run state
beside the result, and ``transfer-matrix.json`` is written next to the
checkpoints once, when :meth:`ContinualTrainer.run` returns.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from repro.augment.base import TwoViewAugment
from repro.augment.image import simsiam_image_pipeline
from repro.augment.tabular import tabular_pipeline
from repro.continual.config import ContinualConfig, build_objective
from repro.continual.method import BoundaryEvent, ContinualMethod
from repro.continual.registry import make_method
from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.data.splits import Task, TaskSequence
from repro.eval.metrics import ContinualResult
from repro.eval.protocol import evaluate_task, evaluate_tasks
from repro.eval.transfer import TransferMatrix
from repro.optim import OPTIMIZERS, CosineLR
from repro.runtime.checkpoint import CheckpointError, CheckpointManager
from repro.runtime.guardrail import (MAX_LOSS, GuardrailPolicy,
                                     GuardrailViolation, RunLog,
                                     TrainingDiverged, build_failure_report,
                                     clip_detail, global_grad_norm)
from repro.scenarios.drift import DriftDetector
from repro.scenarios.streams import ScenarioStream, class_incremental_stream
from repro.tensor.anomaly import AnomalyError, detect_anomaly
from repro.tensor.tape import TapedFunction
from repro.utils.rng import get_rng_state, set_rng_state
from repro.utils.serialization import save_transfer_matrix


def _build_optimizer(config: ContinualConfig, parameters):
    return OPTIMIZERS[config.optimizer](parameters, lr=config.lr,
                                        weight_decay=config.weight_decay)


def _build_augment(train_x: np.ndarray) -> TwoViewAugment:
    """Image pipeline for NCHW data, SCARF corruption for tabular rows."""
    if train_x.ndim == 4:
        return TwoViewAugment(simsiam_image_pipeline())
    if train_x.ndim == 2:
        return TwoViewAugment(tabular_pipeline(train_x))
    raise ValueError(f"unsupported data shape {train_x.shape}")


def _stream_identity(stream: ScenarioStream) -> dict:
    """Which stream a run trains on, as recorded in its checkpoints."""
    return {"name": stream.scenario, "params": dict(stream.params)}


def _describe_stream(identity: dict) -> str:
    """``name(key=value, ...)``, or the bare name of a param-less stream."""
    if not identity["params"]:
        return identity["name"]
    params = ", ".join(f"{key}={value}"
                       for key, value in identity["params"].items())
    return f"{identity['name']}({params})"


class SharpBoundaryController:
    """Default boundary controller: every stream segment is its own task.

    Emits one begin/end pair per segment through
    :meth:`ContinualMethod.on_boundary`.  Stateless, so its checkpoint
    contribution is ``None``.
    """

    def begin_segment(self, method: ContinualMethod, task: Task,
                      task_index: int, n_tasks: int) -> None:
        method.on_boundary(BoundaryEvent("begin", task, task_index, n_tasks))

    def end_segment(self, method: ContinualMethod, task: Task,
                    task_index: int, is_last: bool) -> None:
        method.on_boundary(BoundaryEvent("end", task, task_index))

    def state_dict(self) -> dict | None:
        return None

    def load_state_dict(self, state: None) -> None:
        """Nothing to restore: the controller is stateless."""


class TaskFreeBoundaryController:
    """Self-triggered boundaries for streams with no boundary signal.

    Routes every arriving segment's raw data through a
    :class:`~repro.scenarios.drift.DriftDetector`.  While the statistics
    hold steady, segments accumulate into the current *virtual task* and
    no method hook fires; when they drift, the previous virtual task ends
    — ``end`` is delivered with the merged data of all its segments, so
    selection methods (EDSR's boundary-triggered selection in particular)
    see one coherent increment — and a new one begins.  Virtual indices
    therefore lag segment indices; ``n_tasks`` passed at ``begin`` is the
    segment count, the upper bound on how many virtual tasks can exist
    (memory budgets split by it stay conservative).

    Fully serializable: the state (virtual index, open segment indices,
    detector statistics) joins the guardrail snapshot and the checkpoint
    run state, so restores and resumes replay the detection trajectory
    bit-for-bit.  The stream itself is not serialized — it is rebuilt as
    a pure function of the scenario config, and the open-segment indices
    re-reference it.
    """

    def __init__(self, stream: ScenarioStream, detector: DriftDetector):
        # Rebuilt deterministically from the scenario config on resume;
        # the serialized state references it by segment index only.
        self._stream = stream  # repro-lint: disable=SER002
        self.detector = detector
        self.virtual_index = -1
        self.open_segments: list[int] = []

    def begin_segment(self, method: ContinualMethod, task: Task,
                      task_index: int, n_tasks: int) -> None:
        drifted = self.detector.observe(task.train.x)
        if self.virtual_index < 0:
            self.virtual_index = 0
            self.open_segments = [task_index]
            method.on_boundary(BoundaryEvent("begin", task, 0, n_tasks))
        elif drifted:
            method.on_boundary(BoundaryEvent("end", self._merged_task(),
                                             self.virtual_index))
            self.virtual_index += 1
            self.open_segments = [task_index]
            method.on_boundary(BoundaryEvent("begin", task, self.virtual_index,
                                             n_tasks))
        else:
            self.open_segments.append(task_index)

    def end_segment(self, method: ContinualMethod, task: Task,
                    task_index: int, is_last: bool) -> None:
        if is_last:
            method.on_boundary(BoundaryEvent("end", self._merged_task(),
                                             self.virtual_index))

    def _merged_task(self) -> Task:
        """The finished virtual task: its open segments merged into one."""
        segments = [self._stream.segments[i].task for i in self.open_segments]
        train = ArrayDataset.concatenate(
            [s.train for s in segments],
            name=f"virtual-task-{self.virtual_index}")
        classes = tuple(int(c) for c in train.classes)
        return Task(task_id=self.virtual_index, classes=classes, train=train,
                    test=segments[-1].test)

    def state_dict(self) -> dict:
        return {
            "virtual_index": self.virtual_index,
            "open_segments": list(self.open_segments),
            "detector": self.detector.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.virtual_index = int(state["virtual_index"])
        self.open_segments = [int(i) for i in state["open_segments"]]
        self.detector.load_state_dict(state["detector"])


class ContinualTrainer:
    """Runs one method over one task sequence.

    Parameters
    ----------
    method:
        A constructed :class:`ContinualMethod` wrapping the live objective.
    config:
        The run configuration.
    rng:
        Generator for loader shuffling and augmentation.
    verbose:
        Print one line per increment.
    checkpoint_dir:
        Directory for per-task atomic checkpoints and the event log; the
        run becomes resumable via ``run(..., resume=True)``.  ``None``
        disables checkpointing.
    guardrails:
        A :class:`GuardrailPolicy` enabling divergence detection and
        recovery.  ``None`` (default) trains unguarded, exactly as before.
    """

    def __init__(self, method: ContinualMethod, config: ContinualConfig,
                 rng: np.random.Generator, verbose: bool = False,
                 checkpoint_dir: str | pathlib.Path | None = None,
                 guardrails: GuardrailPolicy | None = None):
        self.method = method
        self.config = config
        self.rng = rng
        self.verbose = verbose
        self.guardrails = guardrails
        self._taped_step: TapedFunction | None = None
        self._controller = SharpBoundaryController()
        self._stream_identity: dict | None = None
        #: The run's TransferMatrix; populated by :meth:`run` and kept
        #: current row by row.
        self.transfer_matrix: TransferMatrix | None = None
        self.checkpoints = None
        log_path = None
        if checkpoint_dir is not None:
            self.checkpoints = CheckpointManager(checkpoint_dir)
            log_path = self.checkpoints.directory / "events.jsonl"
        self.log = RunLog(log_path)

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------
    def _run_state(self, task_index: int, n_tasks: int,
                   result: ContinualResult) -> dict:
        """The full serializable state of the run after ``task_index``."""
        return {
            "method_name": self.method.name,
            "n_tasks": n_tasks,
            "task_index": task_index,
            "scenario": self._stream_identity,
            "stream": self._controller.state_dict(),
            "method": self.method.state_dict(),
            "rng": get_rng_state(self.rng),
            "result": result.state_dict(),
            "transfer": self.transfer_matrix.state_dict(),
        }

    def _restore_run_state(self, state: dict, n_tasks: int,
                           result: ContinualResult) -> int:
        """Load a checkpoint state; returns the first task still to run.

        Every identity check runs before any state loads, so a checkpoint
        from another method, sequence length or stream is refused whole.
        """
        if state["method_name"] != self.method.name:
            raise CheckpointError(
                f"checkpoint was written by method {state['method_name']!r}, "
                f"this trainer runs {self.method.name!r}")
        if int(state["n_tasks"]) != n_tasks:
            raise CheckpointError(
                f"checkpoint covers a {state['n_tasks']}-task sequence, "
                f"this run has {n_tasks} tasks")
        recorded = state["scenario"]
        if recorded != self._stream_identity:
            raise CheckpointError(
                f"checkpoint was written under stream "
                f"{_describe_stream(recorded)}, this run uses "
                f"{_describe_stream(self._stream_identity)}")
        self._controller.load_state_dict(state["stream"])
        self.method.load_state_dict(state["method"])
        set_rng_state(self.rng, state["rng"])
        result.load_state_dict(state["result"])
        self.transfer_matrix.load_state_dict(state["transfer"])
        return int(state["task_index"]) + 1

    def _save_checkpoint(self, task_index: int, n_tasks: int,
                         result: ContinualResult) -> None:
        if self.checkpoints is None:
            return
        try:
            path = self.checkpoints.save(
                task_index, self._run_state(task_index, n_tasks, result))
        except (OSError, CheckpointError) as exc:
            # Checkpointing is best-effort: a full disk or torn write must
            # not kill a run that is otherwise training fine.  The failure
            # is logged, the previous checkpoint stays the resume point
            # (resume re-runs the lost tasks bit-for-bit), and the swept
            # tmp residue is cleared on the next manager init.
            self.log.append("checkpoint-failed", task_index=task_index,
                            detail=clip_detail(exc))
            return
        self.log.append("checkpoint", task_index=task_index, path=str(path))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, sequence: TaskSequence | ScenarioStream,
            resume: bool = False) -> ContinualResult:
        """Train over a scenario stream, segment by segment.

        A plain :class:`TaskSequence` runs as its ``class_incremental``
        stream.  Besides the result, the run fills :attr:`transfer_matrix`
        — one online row (the panel before the segment trains) and one
        final row (after) over the stream's full eval panel per segment —
        and, with a ``checkpoint_dir``, writes it to
        ``transfer-matrix.json`` on return.
        """
        config = self.config
        method = self.method
        stream = (sequence if isinstance(sequence, ScenarioStream)
                  else class_incremental_stream(sequence))
        n_tasks = len(stream)
        result = ContinualResult(n_tasks, name=method.name, probe=config.probe)
        self._controller = self._make_controller(stream)
        self._stream_identity = _stream_identity(stream)
        transfer = self.transfer_matrix = self._make_transfer(stream)
        start_task = 0
        prior_elapsed = 0.0

        if resume:
            if self.checkpoints is None:
                raise ValueError("resume=True requires a checkpoint_dir")
            loaded = self.checkpoints.load_latest()
            if loaded is not None:
                for reason in loaded.skipped:
                    self.log.append("corrupt-checkpoint", detail=reason)
                start_task = self._restore_run_state(loaded.state, n_tasks, result)
                prior_elapsed = result.elapsed_seconds
                self.log.append("resume", task_index=start_task,
                                checkpoint=str(loaded.path))
                if self.verbose:
                    print(f"[{method.name}] resumed after task "
                          f"{start_task}/{n_tasks} from {loaded.path.name}")

        start = time.perf_counter()
        online_row = None
        for task_index in range(start_task, n_tasks):
            if online_row is None:
                online_row = self._probe_panel(stream)
            self._run_task(stream.segments[task_index].task, task_index,
                           n_tasks)
            final_row = self._probe_panel(stream)
            result.record_row(self._segment_accuracies(stream, task_index,
                                                       final_row))
            result.elapsed_seconds = prior_elapsed + (time.perf_counter() - start)
            transfer.record_row(online_row, final_row)
            self._save_checkpoint(task_index, n_tasks, result)
            if self.verbose:
                print(f"[{method.name}] task {task_index + 1}/{n_tasks}: "
                      f"Acc={result.acc_at(task_index):.4f} Fgt={result.fgt_at(task_index):.4f}")
            # This final row is the next segment's online row: since this
            # probe the loop only recorded rows and wrote files, and a
            # probe is a pure function of the model (eval mode under
            # no_grad, deterministic KNN and ridge, a LinearProbe reseeded
            # from a fixed seed on every fit).
            online_row = final_row

        result.elapsed_seconds = prior_elapsed + (time.perf_counter() - start)
        self._save_transfer(transfer)
        return result

    # ------------------------------------------------------------------
    # Stream plumbing (boundary controllers and the transfer matrix)
    # ------------------------------------------------------------------
    def _make_controller(self, stream: ScenarioStream):
        if stream.boundary_mode == "task_free":
            return TaskFreeBoundaryController(
                stream, DriftDetector(stream.drift_threshold))
        return SharpBoundaryController()

    def _probe_panel(self, stream: ScenarioStream) -> list[float]:
        """One accuracy per eval-panel task for the model as it is now."""
        return evaluate_tasks(self.method.objective, list(stream.eval_tasks),
                              knn_k=self.config.knn_k, probe=self.config.probe)

    def _make_transfer(self, stream: ScenarioStream) -> TransferMatrix:
        eval_names = [f"task-{task.task_id}" for task in stream.eval_tasks]
        chance = [1.0 / max(1, len(task.classes))
                  for task in stream.eval_tasks]
        return TransferMatrix(
            len(stream), eval_names, name=self.method.name,
            scenario=stream.scenario, probe=self.config.probe,
            row_sources=[segment.source_task for segment in stream.segments],
            chance=chance)

    def _segment_accuracies(self, stream: ScenarioStream, task_index: int,
                            final_row: list[float]) -> list[float]:
        """The result row over segments seen so far.

        Segments whose test split *is* an eval-panel task (``eval_alias``)
        reuse the panel row — for sharp streams that makes the result
        matrix the lower triangle of the panel; alias-free segments are
        probed directly.
        """
        accuracies = []
        for segment in stream.segments[:task_index + 1]:
            if segment.eval_alias is not None:
                accuracies.append(final_row[segment.eval_alias])
            else:
                accuracies.append(evaluate_task(
                    self.method.objective, segment.task, self.config.knn_k,
                    probe=self.config.probe))
        return accuracies

    def _save_transfer(self, transfer: TransferMatrix) -> None:
        if self.checkpoints is None:
            return
        try:
            save_transfer_matrix(
                transfer, self.checkpoints.directory / "transfer-matrix.json")
        except OSError as exc:
            # Best-effort, like checkpoints: a failed matrix write must
            # not fail a finished run.  Every recorded row is still in the
            # last checkpoint, and a resume writes the file again.
            self.log.append("transfer-save-failed", detail=clip_detail(exc))

    # ------------------------------------------------------------------
    # One task, with the guardrail escalation ladder
    # ------------------------------------------------------------------
    def _run_task(self, task, task_index: int, n_tasks: int) -> None:
        config = self.config
        method = self.method
        policy = self.guardrails
        method.augment = _build_augment(task.train.x)

        # Fresh tape per task: the trainable parameter set (heads, frozen
        # backbones) can change at task boundaries, and a stale tape would
        # fail its validity check every batch anyway.  A guarded step runs
        # eagerly under anomaly mode, so a guarded run builds no tape.
        self._taped_step = None
        if config.use_tape and method.tape_safe and policy is None:
            self._taped_step = TapedFunction(self._eager_loss_backward,
                                             name=f"{method.name}-step")

        # Task-start snapshot: equivalent to the last good checkpoint (same
        # boundary), held in memory so a restore never touches disk.  The
        # boundary controller's state joins it: begin_segment can fire
        # method hooks and advance the drift detector, and a restore must
        # replay both identically.
        snapshot = None
        if policy is not None:
            snapshot = {"method": method.state_dict(),
                        "rng": get_rng_state(self.rng),
                        "stream": self._controller.state_dict()}

        restores = 0
        while True:
            self._controller.begin_segment(method, task, task_index, n_tasks)
            optimizer = _build_optimizer(config, method.trainable_parameters())
            if restores:
                optimizer.lr *= policy.lr_backoff ** restores
            schedule = CosineLR(optimizer, total_epochs=config.epochs)
            # One draw keys every epoch's shuffle: the order becomes a pure
            # function of (seed, epoch) instead of the trainer RNG's rolling
            # state, so iteration order can never drift with how much RNG the
            # steps in between consumed.
            loader_seed = int(self.rng.integers(2 ** 63))
            loader = DataLoader(task.train, config.batch_size, seed=loader_seed)
            method.objective.train()

            if self._train_task_epochs(loader, schedule, optimizer, task_index):
                self._controller.end_segment(method, task, task_index,
                                             task_index == n_tasks - 1)
                return

            # Too many poisoned batches: escalate to restore + LR backoff.
            if restores >= policy.max_restores_per_task:
                self._abort(task_index, restores)
            restores += 1
            method.load_state_dict(snapshot["method"])
            set_rng_state(self.rng, snapshot["rng"])
            self._controller.load_state_dict(snapshot["stream"])
            self.log.append("restore", task_index=task_index, restores=restores,
                            lr_scale=policy.lr_backoff ** restores)
            if self.verbose:
                print(f"[{method.name}] task {task_index + 1}: diverged, "
                      f"restored task-start state (retry {restores}, "
                      f"lr x{policy.lr_backoff ** restores:g})")

        # unreachable

    def _train_task_epochs(self, loader, schedule, optimizer,
                           task_index: int) -> bool:
        """Run the epoch loop; ``False`` means the skip budget was exhausted."""
        config = self.config
        policy = self.guardrails
        skips = 0
        for epoch in range(config.epochs):
            schedule.step(epoch)
            loader.set_epoch(epoch)
            for batch_index, (x_batch, _y_batch) in enumerate(loader):
                event = self._guarded_step(x_batch, optimizer, task_index,
                                           epoch, batch_index)
                if event is None:
                    continue
                skips += 1
                if skips > policy.max_skips_per_task:
                    self.log.append("skip-budget-exhausted",
                                    task_index=task_index,
                                    epoch=epoch, skips=skips)
                    return False
        return True

    def _eager_loss_backward(self, view1, view2, x_batch):
        """The raw step body: loss forward + backward, eager dispatch."""
        loss = self.method.batch_loss(view1, view2, x_batch)
        loss.backward()
        return loss

    def _loss_backward(self, view1, view2, x_batch):
        """Forward + backward, tape-replayed when eligible.

        Both dispatch targets land gradients in the same leaf ``.grad``
        buffers.  For the taped path all three batch arrays are declared as
        tape inputs so the validity check covers them even when
        ``batch_loss`` ignores ``x_batch``.
        """
        if self._taped_step is not None:
            return self._taped_step(view1, view2, x_batch)
        return self._eager_loss_backward(view1, view2, x_batch)

    def _guarded_step(self, x_batch, optimizer, task_index: int, epoch: int,
                      batch_index: int) -> dict | None:
        """One optimizer step; returns the logged event if the batch was skipped."""
        method = self.method
        policy = self.guardrails
        view1, view2 = method.augment(x_batch, self.rng)
        optimizer.zero_grad()

        if policy is None:
            self._loss_backward(view1, view2, x_batch)
            method.before_step()
            optimizer.step()
            method.after_step()
            return None

        try:
            # Anomaly mode inspects every eager dispatch, so a guarded step
            # never tapes (a capture under anomaly marks itself unsafe).
            with detect_anomaly():
                loss = method.batch_loss(view1, view2, x_batch)
                self._check_loss(loss)
                loss.backward()
        except AnomalyError as exc:
            optimizer.zero_grad()
            return self._skip_event("anomaly", exc, task_index, epoch, batch_index)
        except GuardrailViolation as exc:
            optimizer.zero_grad()
            return self._skip_event(exc.kind, exc, task_index, epoch, batch_index)

        norm = global_grad_norm(optimizer.parameters)
        if not np.isfinite(norm) or (policy.max_grad_norm is not None
                                     and norm > policy.max_grad_norm):
            optimizer.zero_grad()
            return self._skip_event(
                "grad-explosion",
                f"global gradient norm {norm:.3e} exceeds "
                f"{policy.max_grad_norm:.3e}" if np.isfinite(norm)
                else f"global gradient norm is {norm}",
                task_index, epoch, batch_index)

        method.before_step()
        optimizer.step()
        method.after_step()
        return None

    @staticmethod
    def _check_loss(loss) -> None:
        value = float(loss.data)
        if not np.isfinite(value):
            raise GuardrailViolation("nonfinite-loss", f"batch loss is {value}")
        if abs(value) > MAX_LOSS:
            raise GuardrailViolation(
                "loss-explosion",
                f"batch loss {value:.3e} exceeds {MAX_LOSS:.3e}")

    def _skip_event(self, kind: str, detail, task_index: int, epoch: int,
                    batch_index: int) -> dict:
        return self.log.append(kind, action="skip-batch", task_index=task_index,
                               epoch=epoch, batch=batch_index,
                               detail=clip_detail(detail))

    def _abort(self, task_index: int, restores: int) -> None:
        report = build_failure_report(self.method.name, task_index, restores,
                                      self.guardrails, self.log)
        report_path = self.log.write_failure_report(report)
        self.log.append("abort", task_index=task_index, restores=restores,
                        report=None if report_path is None else str(report_path))
        raise TrainingDiverged(report["message"], report=report,
                               report_path=report_path)


def run_method(name: str, sequence: TaskSequence, config: ContinualConfig,
               seed: int = 0, verbose: bool = False,
               checkpoint_dir: str | pathlib.Path | None = None,
               resume: bool = False,
               guardrails: GuardrailPolicy | None = None,
               ) -> tuple[ContinualResult, TransferMatrix]:
    """Apply method ``name`` to ``config.scenario``'s stream over ``sequence``.

    Builds the stream, then the objective and method from
    ``default_rng(seed)`` (stream building draws nothing from it), trains,
    and returns the result and the transfer matrix.
    ``checkpoint_dir``/``resume``/``guardrails`` are forwarded to
    :class:`ContinualTrainer`; a resumed run rebuilds the objective and
    method from the same seed, then the checkpoint overwrites every piece of
    state (including the RNG stream), so the continuation is bit-for-bit
    identical to the uninterrupted run.
    """
    # Late import: the registry imports repro.continual.config, so a
    # module-scope import would cycle when repro.scenarios loads first.
    from repro.scenarios.registry import build_stream

    stream = build_stream(config.scenario, sequence, config)
    rng = np.random.default_rng(seed)
    objective = build_objective(config, stream.sample_shape, rng)
    method = make_method(name, objective, config, rng)
    trainer = ContinualTrainer(method, config, rng, verbose=verbose,
                               checkpoint_dir=checkpoint_dir,
                               guardrails=guardrails)
    result = trainer.run(stream, resume=resume)
    return result, trainer.transfer_matrix
