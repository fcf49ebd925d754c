"""Scenario stream builders: the trainer's generalized stream contract.

A :class:`ScenarioStream` is what the trainer actually iterates: an
ordered tuple of :class:`StreamSegment` training increments plus a fixed
*eval panel* — the tasks every transfer-matrix row is probed against.
Sharp class-incremental training is the degenerate case (one segment per
task, the panel is the task list itself); the other builders reshape the
same base :class:`~repro.data.splits.TaskSequence` into streams the paper
never sees:

- :func:`blurry_stream` — each task donates a ``ratio`` fraction of its
  training data to its neighbours, so class distributions overlap across
  adjacent increments while test splits stay sharp;
- :func:`task_free_stream` — tasks are shuffled internally, concatenated,
  and re-sliced into many small segments with no boundary signal; the
  trainer's drift controller must *discover* the task changes;
- :func:`domain_incremental_stream` — one class set, per-domain nuisance
  transforms (:func:`repro.data.synthetic.apply_domain_shift`);
- :func:`long_sequence_stream` — the base task order cycled into a 20+
  segment stream, stressing guardrail/resume machinery at length.

Every builder is a **pure function of (seed, params)**: all randomness
comes from ``np.random.default_rng([seed, tag, index])`` streams keyed
per segment, so the same arguments rebuild bit-for-bit identical streams
in any process — the property the resume path depends on
(property-tested in ``tests/scenarios``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.splits import Task, TaskSequence
from repro.data.synthetic import apply_domain_shift

__all__ = [
    "ScenarioStream",
    "StreamSegment",
    "blurry_stream",
    "class_incremental_stream",
    "domain_incremental_stream",
    "long_sequence_stream",
    "task_free_stream",
]

#: Per-builder RNG namespace tags: a builder's draws can never collide
#: with another builder's (or any other consumer's) under the same seed.
_BLUR_TAG = 0x424C5552   # "BLUR"
_FREE_TAG = 0x46524545   # "FREE"
_DOMAIN_TAG = 0x444F4D41  # "DOMA"

_BOUNDARY_MODES = ("sharp", "task_free")


@dataclass(frozen=True)
class StreamSegment:
    """One training increment of a scenario stream.

    ``source_task`` is the eval-panel index the segment's training data
    primarily comes from (transfer-matrix row labeling).  ``eval_alias``
    names the panel column whose evaluation is *identical* to evaluating
    this segment's own test split — when set, the trainer reuses the
    panel row instead of re-probing (for sharp streams this is what makes
    the scenario path bit-identical to the classic path).
    """

    index: int
    task: Task
    source_task: int | None = None
    eval_alias: int | None = None


@dataclass(frozen=True)
class ScenarioStream:
    """An ordered segment stream plus the fixed evaluation panel."""

    scenario: str
    segments: tuple[StreamSegment, ...]
    eval_tasks: tuple[Task, ...]
    boundary_mode: str = "sharp"
    drift_threshold: float = 0.7
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a stream needs at least one segment")
        if not self.eval_tasks:
            raise ValueError("a stream needs at least one eval task")
        if self.boundary_mode not in _BOUNDARY_MODES:
            raise ValueError(f"unknown boundary mode {self.boundary_mode!r}; "
                             f"one of {_BOUNDARY_MODES}")
        for segment in self.segments:
            if (segment.eval_alias is not None
                    and not 0 <= segment.eval_alias < len(self.eval_tasks)):
                raise ValueError(f"segment {segment.index} aliases eval task "
                                 f"{segment.eval_alias}, panel has "
                                 f"{len(self.eval_tasks)}")

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Per-sample shape (no batch dim), for objective construction."""
        return self.segments[0].task.train.x.shape[1:]

    def __repr__(self) -> str:
        return (f"ScenarioStream({self.scenario}, segments={len(self.segments)}, "
                f"eval_tasks={len(self.eval_tasks)}, "
                f"boundary={self.boundary_mode})")


def _classes_of(y: np.ndarray) -> tuple[int, ...]:
    return tuple(int(c) for c in np.unique(y))


def class_incremental_stream(sequence: TaskSequence) -> ScenarioStream:
    """The identity stream: the task sequence itself, one segment per task.

    Shares the *same* :class:`Task` objects with ``sequence`` — no copies,
    no re-randomization — so running it through the trainer is provably
    the classic class-incremental run (pinned byte-for-byte by the parity
    regression test).
    """
    segments = tuple(StreamSegment(i, task, source_task=i, eval_alias=i)
                     for i, task in enumerate(sequence))
    return ScenarioStream("class_incremental", segments, tuple(sequence),
                          params={})


def blurry_stream(sequence: TaskSequence, ratio: float = 0.3,
                  seed: int = 0) -> ScenarioStream:
    """Overlapping class distributions: tasks donate data to neighbours.

    Each task draws a ``ratio`` fraction of its training samples (keyed
    rng per task) and donates half to the previous task and half to the
    next (edge tasks donate everything to their single neighbour).  Test
    splits stay sharp — evaluation still asks "how well is task ``j``'s
    class set represented" — only the *training* distributions blur.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError("blur ratio must be in [0, 1)")
    n_tasks = len(sequence)
    donated_to: list[list[tuple[np.ndarray, np.ndarray]]] = [
        [] for _ in range(n_tasks)]
    kept: list[np.ndarray] = []
    for i, task in enumerate(sequence):
        n = len(task.train)
        rng = np.random.default_rng([seed, _BLUR_TAG, i])
        quota = int(round(ratio * n)) if n_tasks > 1 else 0
        donors = rng.permutation(n)[:quota]
        if i == 0:
            to_prev, to_next = donors[:0], donors
        elif i == n_tasks - 1:
            to_prev, to_next = donors, donors[:0]
        else:
            half = len(donors) // 2
            to_prev, to_next = donors[:half], donors[half:]
        if i > 0 and len(to_prev):
            donated_to[i - 1].append((task.train.x[to_prev],
                                      task.train.y[to_prev]))
        if i < n_tasks - 1 and len(to_next):
            donated_to[i + 1].append((task.train.x[to_next],
                                      task.train.y[to_next]))
        kept.append(np.setdiff1d(np.arange(n), donors))

    segments = []
    for i, task in enumerate(sequence):
        xs = [task.train.x[kept[i]]] + [x for x, _ in donated_to[i]]
        ys = [task.train.y[kept[i]]] + [y for _, y in donated_to[i]]
        x = np.concatenate(xs, axis=0)
        y = np.concatenate(ys, axis=0)
        train = ArrayDataset(x, y, name=f"{task.train.name}-blurry")
        blurred = Task(task_id=i, classes=_classes_of(y), train=train,
                       test=task.test)
        segments.append(StreamSegment(i, blurred, source_task=i, eval_alias=i))
    return ScenarioStream("blurry", tuple(segments), tuple(sequence),
                          params={"ratio": float(ratio), "seed": int(seed)})


def task_free_stream(sequence: TaskSequence, segments_per_task: int = 3,
                     seed: int = 0,
                     drift_threshold: float = 0.7) -> ScenarioStream:
    """No boundary signal: tasks shuffled internally, re-sliced small.

    Each task's training data is shuffled with a keyed rng, the tasks are
    concatenated in order, and the whole stream is cut into
    ``segments_per_task * n_tasks`` contiguous chunks.  Task identity is
    *not* delivered to the trainer — segments carry it only as metadata
    (majority source, for result rows) — so methods must self-trigger
    selection/consolidation through the drift controller
    (``boundary_mode="task_free"``).
    """
    if segments_per_task < 1:
        raise ValueError("segments_per_task must be >= 1")
    n_tasks = len(sequence)
    xs, ys, sources = [], [], []
    for i, task in enumerate(sequence):
        perm = np.random.default_rng([seed, _FREE_TAG, i]).permutation(
            len(task.train))
        xs.append(task.train.x[perm])
        ys.append(task.train.y[perm])
        sources.append(np.full(len(task.train), i, dtype=np.int64))
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    source = np.concatenate(sources, axis=0)

    n_segments = segments_per_task * n_tasks
    total = len(x)
    if total < n_segments:
        raise ValueError(f"{total} samples cannot fill {n_segments} segments")
    edges = np.linspace(0, total, n_segments + 1).round().astype(int)

    segments = []
    for k in range(n_segments):
        lo, hi = edges[k], edges[k + 1]
        majority = int(np.bincount(source[lo:hi]).argmax())
        train = ArrayDataset(x[lo:hi], y[lo:hi],
                             name=f"{sequence.name}-free-seg{k}")
        chunk = Task(task_id=k, classes=_classes_of(y[lo:hi]), train=train,
                     test=sequence[majority].test)
        segments.append(StreamSegment(k, chunk, source_task=majority,
                                      eval_alias=majority))
    return ScenarioStream(
        "task_free", tuple(segments), tuple(sequence),
        boundary_mode="task_free", drift_threshold=float(drift_threshold),
        params={"segments_per_task": int(segments_per_task),
                "seed": int(seed),
                "drift_threshold": float(drift_threshold)})


def domain_incremental_stream(sequence: TaskSequence, n_domains: int = 4,
                              shift: float = 0.75,
                              seed: int = 0) -> ScenarioStream:
    """Same classes throughout, shifting nuisance transforms per domain.

    The merged dataset is subsampled into ``n_domains`` disjoint-by-draw
    slices (keyed rng per domain) and each slice — train *and* test — is
    pushed through :func:`~repro.data.synthetic.apply_domain_shift` with
    its domain index.  Domain 0 is the unshifted reference.  The eval
    panel is the domain tasks themselves: the transfer matrix reads "how
    does training on domain ``i`` move accuracy under domain ``j``'s
    transform".
    """
    if n_domains < 1:
        raise ValueError("n_domains must be >= 1")
    merged_train = sequence.merged_train
    merged_test = sequence.merged_test
    per_train = len(merged_train) // n_domains
    per_test = len(merged_test) // n_domains
    if per_train < 1 or per_test < 1:
        raise ValueError(f"{len(merged_train)}/{len(merged_test)} samples "
                         f"cannot fill {n_domains} domains")

    tasks = []
    for d in range(n_domains):
        rng = np.random.default_rng([seed, _DOMAIN_TAG, d])
        train_idx = rng.permutation(len(merged_train))[:per_train]
        test_idx = rng.permutation(len(merged_test))[:per_test]
        x_train = apply_domain_shift(merged_train.x[train_idx], d,
                                     strength=shift, seed=seed)
        x_test = apply_domain_shift(merged_test.x[test_idx], d,
                                    strength=shift, seed=seed)
        y_train = merged_train.y[train_idx]
        y_test = merged_test.y[test_idx]
        tasks.append(Task(
            task_id=d, classes=_classes_of(y_train),
            train=ArrayDataset(x_train, y_train,
                               name=f"{sequence.name}-domain{d}-train"),
            test=ArrayDataset(x_test, y_test,
                              name=f"{sequence.name}-domain{d}-test")))
    segments = tuple(StreamSegment(d, task, source_task=d, eval_alias=d)
                     for d, task in enumerate(tasks))
    return ScenarioStream(
        "domain_incremental", segments, tuple(tasks),
        params={"n_domains": int(n_domains), "shift": float(shift),
                "seed": int(seed)})


def long_sequence_stream(sequence: TaskSequence,
                         cycles: int = 4) -> ScenarioStream:
    """The base task order cycled ``cycles`` times: a 20+ segment stream.

    Segment ``k`` revisits base task ``k % n_tasks`` (same train/test
    arrays, new segment identity), so the stream exercises the guardrail,
    checkpoint, and resume machinery over many boundaries while the
    transfer matrix shows whether revisits recover forgotten tasks.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    n_tasks = len(sequence)
    segments = []
    for k in range(cycles * n_tasks):
        base = sequence[k % n_tasks]
        visit = Task(task_id=k, classes=base.classes, train=base.train,
                     test=base.test)
        segments.append(StreamSegment(k, visit, source_task=k % n_tasks,
                                      eval_alias=k % n_tasks))
    return ScenarioStream("long_sequence", tuple(segments), tuple(sequence),
                          params={"cycles": int(cycles)})
