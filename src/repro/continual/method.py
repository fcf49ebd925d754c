"""The interface every continual method implements.

A method wraps the live CSSL objective and contributes:

- per-increment setup/teardown (:meth:`begin_task` / :meth:`end_task`) —
  building distillation heads, selecting memory;
- the per-batch training loss (:meth:`batch_loss`), which the trainer
  back-propagates;
- optional optimizer-step hooks (:meth:`before_step` / :meth:`after_step`)
  used by SI's path-integral importance tracking;
- full run-state serialization (:meth:`state_dict` / :meth:`load_state_dict`)
  so a checkpointed run resumes bit-for-bit: subclasses extend the base
  snapshot with their distillation heads, importance accumulators, and any
  other state the training trajectory depends on.  Values must be
  JSON/ndarray-serializable (lint rule SER001).

The base class owns what replay and distillation methods keep across
increments, the episodic memory (Sec. III-A's ``{M_i}``) and the frozen
old model ``L_dis``/``L_rpl`` distil from, so a subclass only declares them
(see :class:`ContinualMethod`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.augment.base import TwoViewAugment
from repro.continual.config import ContinualConfig
from repro.data.splits import Task
from repro.memory.buffer import MemoryBuffer, MemoryRecord
from repro.nn.module import Parameter
from repro.ssl.base import CSSLObjective
from repro.tensor.tensor import Tensor


@dataclass(frozen=True)
class BoundaryEvent:
    """A stream-delivered task-boundary signal (see ``repro.scenarios``).

    The trainer no longer *assumes* sharp boundaries — it forwards
    whatever its boundary controller emits.  ``phase`` is ``"begin"`` or
    ``"end"``; ``task`` is the increment the event describes (for
    drift-detected boundaries, the merged data of every segment in the
    finished virtual task); ``index`` is the task index methods should
    attribute state to (the *virtual* index in task-free streams, which
    can lag the segment index).  ``n_tasks`` is an upper bound on the
    total task count (``"begin"`` only, 0 on ``"end"``).
    """

    phase: str
    task: Task
    index: int
    n_tasks: int = 0


class ContinualMethod:
    """Base class; the default behaviour is plain finetuning.

    ``uses_memory``: the first boundary builds ``self.buffer``, a
    :class:`~repro.memory.buffer.MemoryBuffer` of ``config.memory_budget``
    split evenly over that boundary's ``n_tasks``.  ``uses_old_model``:
    every boundary after the first replaces ``self.old_objective`` with an
    eval-mode copy of the live objective (``None`` while the first
    increment trains).  Both ride in :meth:`state_dict`.
    """

    name = "base"
    uses_memory = False
    uses_old_model = False

    def __init__(self, objective: CSSLObjective, config: ContinualConfig,
                 rng: np.random.Generator):
        self.objective = objective
        self.config = config
        self.rng = rng
        self.buffer: MemoryBuffer | None = None
        self.old_objective: CSSLObjective | None = None
        # Set by the trainer per increment; transient by design.
        self.augment: TwoViewAugment | None = None  # repro-lint: disable=SER002

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_task(self, task: Task, task_index: int, n_tasks: int) -> None:
        """Called before training on increment ``task_index`` starts.

        Builds the memory and snapshots the old model (see the class
        docstring); an override calls ``super().begin_task`` first.
        """
        if self.uses_memory and self.buffer is None:
            self.buffer = MemoryBuffer(self.config.memory_budget, n_tasks)
        if self.uses_old_model and task_index > 0:
            self.old_objective = self._frozen_copy()

    def end_task(self, task: Task, task_index: int) -> None:
        """Called after training on increment ``task_index`` finishes."""

    def remember(self, task: Task, index: int, chosen: np.ndarray,
                 **extras: np.ndarray) -> None:
        """Store the training samples ``chosen`` of ``task`` as record ``index``.

        ``extras`` are per-sample :class:`MemoryRecord` fields aligned with
        ``chosen`` (``noise_scales``, ``targets``).
        """
        self.buffer.add(MemoryRecord(task_id=index,
                                     samples=task.train.x[chosen].copy(),
                                     labels=task.train.y[chosen].copy(),
                                     **extras))

    def _frozen_copy(self, state: dict | None = None) -> CSSLObjective:
        """An eval-mode copy of the live objective, loaded with ``state``."""
        old = self.objective.copy()
        if state is not None:
            old.load_state_dict(state)
        old.eval()
        return old

    def on_boundary(self, event: BoundaryEvent) -> None:
        """Dispatch a stream boundary event to the lifecycle hooks.

        The single entry point the trainer's boundary controllers drive:
        sharp streams emit one begin/end pair per segment, task-free
        streams emit them per drift-detected *virtual* task.  It routes
        to :meth:`begin_task` / :meth:`end_task`, so every method works
        under every scenario unchanged.
        """
        if event.phase == "begin":
            self.begin_task(event.task, event.index, event.n_tasks)
        elif event.phase == "end":
            self.end_task(event.task, event.index)
        else:
            raise ValueError(f"unknown boundary phase {event.phase!r}")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def trainable_parameters(self) -> list[Parameter]:
        """Parameters the optimizer updates this increment."""
        return self.objective.parameters()

    @property
    def tape_safe(self) -> bool:
        """Whether the trainer may tape-replay this method's training step.

        Conservative default: only methods that keep the base
        :meth:`batch_loss` (a pure, shape-stable function of its array
        arguments) qualify.  Overriding methods typically sample replay
        batches, draw per-step noise, or snapshot old-model outputs — all
        things a recorded tape would freeze.  A second line of defence
        (the VAE sampler, BYOL's momentum update and eval-mode BatchNorm
        poisoning the active capture) catches unsafe *objectives* under a
        safe method.
        """
        return type(self).batch_loss is ContinualMethod.batch_loss

    def batch_loss(self, view1: np.ndarray, view2: np.ndarray,
                   raw: np.ndarray) -> Tensor:
        """Training loss for one batch: two augmented views plus the raw batch."""
        return self.objective.css_loss(view1, view2)

    def before_step(self) -> None:
        """Hook before ``optimizer.step()`` (after ``backward``)."""

    def after_step(self) -> None:
        """Hook after ``optimizer.step()``."""

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything the training trajectory depends on, as a nested dict.

        Leaves must be ndarrays, plain scalars, strings, ``None``, or
        lists/dicts thereof — the checkpoint layer flattens them into an
        ``.npz`` + JSON manifest (see :mod:`repro.runtime.checkpoint`).
        The base writes ``objective``, then ``old_objective`` when
        ``uses_old_model`` and ``buffer`` when ``uses_memory`` (each
        ``None`` until it exists).  Subclasses call ``super().state_dict()``
        and extend the mapping.
        """
        state = {"objective": self.objective.state_dict()}
        if self.uses_old_model:
            state["old_objective"] = (None if self.old_objective is None
                                      else self.old_objective.state_dict())
        if self.uses_memory:
            state["buffer"] = (None if self.buffer is None
                               else self.buffer.state_dict())
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto a freshly built method.

        The method (and its objective) must have been constructed with the
        same config/architecture; loading rebinds parameter values and
        rebuilds any auxiliary models in place (the old model as a copy of
        the restored live objective, overwritten with its frozen weights).
        """
        self.objective.load_state_dict(state["objective"])
        if self.uses_old_model:
            old = state["old_objective"]
            self.old_objective = None if old is None else self._frozen_copy(old)
        if self.uses_memory:
            self.buffer = (None if state["buffer"] is None
                           else MemoryBuffer.from_state_dict(state["buffer"]))

