"""Tape capture & replay: run a recorded training step without re-taping.

A shape-stable training loop (the SSL step) rebuilds an identical autograd
graph every iteration; eager dispatch pays Python-level input coercion,
dtype resolution, Tensor construction, and a graph walk per step, for a
program whose structure never changes.  This module records the program
once — straight from the :func:`repro.tensor.engine.apply_ctx` choke
point — and re-executes it against fresh input buffers:

- :func:`capture` installs the recording hook and yields a :class:`Tape`;
  the step still runs eagerly (and correctly) while being recorded.
- :meth:`Tape.replay` re-runs forward and backward from the recorded
  instruction list: no Tensor objects, no dispatch, no per-call dtype
  resolution — just ``op.forward``/``op.backward`` on raw arrays.  The
  backward pass replays the *same* reverse-topological schedule
  ``Tensor.backward`` walked at capture time, with the accumulation code
  replicated statement for statement, so float addition order and buffer
  reuse — and therefore every last bit of every leaf ``.grad`` — match
  eager exactly.
- :meth:`Tape.check` is the cheap validity guard: input shapes/dtypes, the
  fusion and grad-enabled flags, anomaly mode, and the op-registry
  fingerprint.  Callers fall back to eager dispatch and recapture on drift.
- :class:`TapedFunction` packages the capture -> validate -> replay ->
  invalidate lifecycle around a step callable, caching one tape per input
  signature (so partial final batches get their own tape instead of
  thrashing the full-batch one).

Leaf binding rules (what makes replay safe):

- tensors with ``requires_grad`` are *parameter leaves*: the tape keeps the
  Tensor object and reads ``.data`` fresh on every replay, so optimizer
  rebinds are picked up and gradients land in the same stable ``.grad``
  buffers the engine guarantees under ``zero_grad(set_to_none=False)``;
- arrays passed to :func:`capture` as ``inputs`` are *input leaves*, bound
  by array identity at capture and positionally at replay;
- every other leaf is a *constant*, kept by reference.  This is why any
  source of per-step randomness (Dropout masks, the VAE sampler) and any
  non-op side effect (BYOL's momentum update) must poison the active
  capture via :meth:`Tape.mark_unsafe` — a program with baked-in per-step
  constants must never be replayed.

Forward side effects that live outside the op stream (BatchNorm
running-stat updates) re-fire on replay through
:meth:`Tape.record_stat_hook`.

Memory planning (PR 8): a complete tape knows every buffer the step will
ever need, so the *second* replay runs as an observation pass — natural
output dtypes, view aliases, and which intermediates each op context
retains for backward are read off the live values — and feeds
:func:`repro.tensor.memplan.build_plan`.  Replays from the third on
execute against the resulting :class:`~repro.tensor.memplan.MemoryPlan`:
planned instructions write into pre-bound arena views (``out=``) and
draw their declared scratch from the same arena, with zero allocator
calls for planned storage.  The planned path is gated exactly like the
tape itself — bit-for-bit parity with the unplanned replay and with
eager is enforced by tests — and any planning failure (declaration
mismatch, odd dtypes, zero plannable buffers) permanently reverts that
tape to the allocate-per-op fallback path.  The loss root, parameter
leaves, ``.grad`` accumulators and captured constants never live in the
arena.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.faults import plane as _faults
from repro.tensor import anomaly, engine, memplan

__all__ = ["Tape", "TapedFunction", "capture"]

_MEMSTATS = memplan.stats()

_LEAF = 0
_OP = 1


class _Instruction:
    """One recorded ``apply_ctx`` call, in slot form."""

    __slots__ = ("name", "op_cls", "params", "input_slots", "out_slot",
                 "needs_input_grad", "out_dtype", "out_shape", "grad_out")

    def __init__(self, name, op_cls, params, input_slots, out_slot,
                 needs_input_grad, out_dtype, out_shape):
        self.name = name
        self.op_cls = op_cls
        self.params = params
        self.input_slots = input_slots
        self.out_slot = out_slot
        self.needs_input_grad = needs_input_grad
        self.out_dtype = out_dtype
        self.out_shape = out_shape
        self.grad_out = any(needs_input_grad)


class Tape:
    """A recorded forward+backward program over value slots.

    Built by :func:`capture`; every tensor seen during the capture gets a
    slot, instructions read and write slots, and leaves are bound per the
    module docstring.  After :meth:`check` passes, :meth:`replay` executes
    the program on fresh input arrays.
    """

    def __init__(self, example_inputs=()):
        self.instructions: list[_Instruction] = []
        self.param_of_slot: dict = {}
        self.const_of_slot: dict[int, np.ndarray] = {}
        self.input_slot_of_pos: dict[int, int] = {}
        self.input_signature = tuple(
            (np.asarray(a).shape, np.asarray(a).dtype.str) for a in example_inputs)
        self.stat_hooks: list[tuple] = []
        self.schedule: list[tuple[int, int]] = []
        self.seed_slot: int | None = None
        self.seed_grad: np.ndarray | None = None
        self.unsafe = False
        self.unsafe_reason: str | None = None
        self.complete = False
        self.plan: memplan.MemoryPlan | None = None
        self._plan_failed = False
        self.fusion = engine.fusion_enabled()
        self.grad_enabled = engine.is_grad_enabled()
        self.fingerprint = engine.registry_fingerprint()

        # Capture-time state, dropped at finalize.  ``_refs`` pins every
        # tensor (and ``_example_inputs`` every input array) for the length
        # of the capture so ``id()`` keys cannot be recycled.
        self._n_slots = 0
        self._backward_recorded = False
        self._refs: list | None = []
        self._ctx_refs: list | None = []
        self._slot_of_tensor: dict[int, int] | None = {}
        self._slot_of_array: dict[int, int] | None = {}
        self._inst_of_ctx: dict[int, int] | None = {}
        self._inst_of_out_slot: dict[int, int] = {}
        self._example_inputs = tuple(example_inputs)
        self._input_pos_of_array: dict[int, int] = {}
        for pos, arr in enumerate(self._example_inputs):
            self._input_pos_of_array.setdefault(id(arr), pos)

    # ------------------------------------------------------------------
    # Recording (called from engine.apply_ctx / Tensor.backward)
    # ------------------------------------------------------------------
    def mark_unsafe(self, reason: str) -> None:
        """Poison the capture: the recorded program must not be replayed."""
        if not self.unsafe:
            self.unsafe = True
            self.unsafe_reason = reason

    def _new_slot(self) -> int:
        sid = self._n_slots
        self._n_slots += 1
        return sid

    def _slot_for_input(self, t) -> int:
        sid = self._slot_of_tensor.get(id(t))
        if sid is not None:
            return sid
        self._refs.append(t)
        if t.requires_grad:
            # Parameter leaf: identity is the tensor, never the array —
            # two grad leaves sharing storage must accumulate separately,
            # exactly as eager keys its grads dict by tensor id.
            sid = self._new_slot()
            self.param_of_slot[sid] = t
            self._slot_of_tensor[id(t)] = sid
            self._slot_of_array.setdefault(id(t._data), sid)
            return sid
        data = t._data
        sid = self._slot_of_array.get(id(data))
        if sid is None:
            sid = self._new_slot()
            pos = self._input_pos_of_array.get(id(data))
            if pos is not None and pos not in self.input_slot_of_pos:
                self.input_slot_of_pos[pos] = sid
            else:
                self.const_of_slot[sid] = data
            self._slot_of_array[id(data)] = sid
        self._slot_of_tensor[id(t)] = sid
        return sid

    def record_apply(self, name, op_cls, tensors, params, out, ctx) -> None:
        """Record one dispatched op (the ``apply_ctx`` capture hook)."""
        if self.unsafe:
            return
        if self._backward_recorded:
            self.mark_unsafe(f"op {name!r} dispatched after backward during capture")
            return
        if anomaly.is_anomaly_enabled():
            self.mark_unsafe("anomaly detection was enabled during capture")
            return
        input_slots = tuple(self._slot_for_input(t) for t in tensors)
        out_slot = self._new_slot()
        self._refs.append(out)
        self._slot_of_tensor[id(out)] = out_slot
        self._slot_of_array.setdefault(id(out._data), out_slot)
        self._inst_of_out_slot[out_slot] = len(self.instructions)
        self._inst_of_ctx[id(ctx)] = len(self.instructions)
        self._ctx_refs.append(ctx)
        self.instructions.append(_Instruction(
            name, op_cls, dict(params), input_slots, out_slot,
            ctx.needs_input_grad, out._data.dtype, out._data.shape))

    def record_backward(self, root, seed: np.ndarray) -> None:
        """Freeze the backward schedule from the live graph at ``root``.

        Runs the same iterative DFS :meth:`Tensor.backward` is about to
        run and stores the reverse-topological visit order as slot/leaf
        references, so replay performs every accumulation in the same
        order on the same buffers.
        """
        if self.unsafe:
            return
        if self._backward_recorded:
            self.mark_unsafe("multiple backward passes during one capture")
            return
        root_slot = self._slot_of_tensor.get(id(root))
        if root_slot is None:
            self.mark_unsafe("backward from a tensor created outside the capture")
            return
        self._backward_recorded = True
        self.seed_slot = root_slot
        self.seed_grad = np.asarray(seed).copy()

        order = []
        seen: set[int] = set()
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        schedule = []
        for node in reversed(order):
            sid = self._slot_of_tensor.get(id(node))
            if sid is None:
                self.mark_unsafe(f"graph node ({node._op or 'leaf'}) was "
                                 f"created outside the capture")
                return
            if not node._parents:
                if sid not in self.param_of_slot:
                    self.mark_unsafe("backward reached a leaf the tape did not bind")
                    return
                schedule.append((_LEAF, sid))
                continue
            if node._op_cls is None:
                self.mark_unsafe(f"node {node._op or '?'} was taped with a "
                                 f"legacy closure (Tensor.from_op)")
                return
            schedule.append((_OP, self._inst_of_out_slot[sid]))
        self.schedule = schedule

    def record_stat_hook(self, callback, *, ctx=None, tensors=()) -> None:
        """Re-fire a forward side effect (BatchNorm running stats) on replay.

        ``ctx`` form: ``callback(replayed_ctx.mean, replayed_ctx.var)`` —
        for the fused batch-norm kernel, whose statistics live on its
        context.  ``tensors`` form: the callback receives the replayed slot
        values of the given captured tensors (the unfused composition's
        mean/var nodes).  Hooks fire after the forward replay, in
        registration order.
        """
        if self.unsafe:
            return
        if ctx is not None:
            idx = self._inst_of_ctx.get(id(ctx))
            if idx is None:
                self.mark_unsafe("stat hook bound to a context the tape did not record")
                return
            self.stat_hooks.append(("ctx", idx, callback))
            return
        slots = []
        for t in tensors:
            sid = self._slot_of_tensor.get(id(t))
            if sid is None:
                self.mark_unsafe("stat hook bound to a tensor the tape did not record")
                return
            slots.append(sid)
        self.stat_hooks.append(("slots", tuple(slots), callback))

    def _end_capture(self) -> None:
        """Finalize: pin the validity environment, drop capture-time state."""
        self.complete = self._backward_recorded and not self.unsafe
        self.fusion = engine.fusion_enabled()
        self.grad_enabled = engine.is_grad_enabled()
        self.fingerprint = engine.registry_fingerprint()
        self._refs = None
        self._ctx_refs = None
        self._slot_of_tensor = None
        self._slot_of_array = None
        self._inst_of_ctx = None
        self._example_inputs = ()
        self._input_pos_of_array = {}

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def check(self, inputs) -> str | None:
        """Cheap replay-validity check; returns the drift reason or ``None``.

        Guards everything the recorded program pinned: the input signature
        (all example inputs, used or not), the fusion and grad-enabled
        flags, anomaly mode, and the op-registry fingerprint.
        """
        if self.unsafe:
            return self.unsafe_reason
        if not self.complete:
            return "capture did not record a backward pass"
        if len(inputs) != len(self.input_signature):
            return (f"expected {len(self.input_signature)} inputs, "
                    f"got {len(inputs)}")
        for pos, (arr, (shape, dtype)) in enumerate(
                zip(inputs, self.input_signature)):
            arr = np.asarray(arr)
            if arr.shape != shape or arr.dtype.str != dtype:
                return (f"input {pos} drifted: captured {shape}/{dtype}, "
                        f"got {arr.shape}/{arr.dtype.str}")
        if engine.fusion_enabled() != self.fusion:
            return "fusion flag changed since capture"
        if engine.is_grad_enabled() != self.grad_enabled:
            return "grad-enabled flag changed since capture"
        if anomaly.is_anomaly_enabled():
            return "anomaly detection is enabled"
        if engine.registry_fingerprint() != self.fingerprint:
            return "op registry changed since capture"
        return None

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, inputs) -> np.ndarray:
        """Re-execute the program on ``inputs``; returns the root's value.

        The caller is responsible for :meth:`check`-ing first.  Parameter
        values are read fresh from the bound tensors and gradients are
        accumulated into their live ``.grad`` buffers, so a replayed step
        is bit-for-bit interchangeable with an eager one.

        Replay #1 after capture allocates per op; it doubles as the
        observation pass that builds this tape's :class:`MemoryPlan`.
        Later replays execute against the plan's arena.  Disabling
        planning (:func:`repro.tensor.memplan.no_planning`) or any
        planning failure reverts to the allocate-per-op path, which is
        bit-for-bit identical.
        """
        if self.plan is not None and memplan.planning_enabled():
            if self.plan.tape_fingerprint == (self.fingerprint,
                                              self.input_signature):
                return self._replay_planned(inputs)
            self.plan = None  # registry drifted under the plan: rebuild
        observe = (self.plan is None and not self._plan_failed
                   and memplan.planning_enabled())
        return self._replay_fallback(inputs, observe)

    def _bind_values(self, inputs) -> list:
        values: list = [None] * self._n_slots
        for sid, arr in self.const_of_slot.items():
            values[sid] = arr
        for sid, t in self.param_of_slot.items():
            values[sid] = t._data
        for pos, sid in self.input_slot_of_pos.items():
            values[sid] = inputs[pos]
        return values

    def _fire_stat_hooks(self, values, ctxs) -> None:
        for kind, ref, callback in self.stat_hooks:
            if kind == "ctx":
                replayed = ctxs[ref]
                callback(replayed.mean, replayed.var)
            else:
                callback(*[values[s] for s in ref])

    def _replay_fallback(self, inputs, observe: bool = False) -> np.ndarray:
        values = self._bind_values(inputs)
        armed = _faults.ARMED
        natural_ok = [False] * len(self.instructions) if observe else None
        ctxs: list = [None] * len(self.instructions)
        for i, inst in enumerate(self.instructions):
            ctx = engine.Context()
            ctx.needs_input_grad = inst.needs_input_grad
            data = inst.op_cls.forward(
                ctx, *[values[s] for s in inst.input_slots], **inst.params)
            _MEMSTATS["fallback_outputs"] += 1
            if data.dtype != inst.out_dtype:
                data = data.astype(inst.out_dtype)
            elif observe:
                natural_ok[i] = True
            if armed:
                data = _faults.corrupt("tape.replay", data)
            if not inst.grad_out:
                ctx.saved = ()
            values[inst.out_slot] = data
            ctxs[i] = ctx

        if observe and not armed:
            # Build the memory plan off this pass's live values.  Planning
            # is best-effort: any failure keeps this tape on the fallback
            # allocator for good (and the parity gate keeps that correct).
            try:
                self._build_plan(values, ctxs, natural_ok)
            except Exception:
                self._plan_failed = True

        self._fire_stat_hooks(values, ctxs)
        self._replay_backward(values, ctxs)
        return values[self.seed_slot]

    def _replay_planned(self, inputs) -> np.ndarray:
        values = self._bind_values(inputs)
        plan = self.plan
        out_views = plan.out_views
        scratch_views = plan.scratch_views
        armed = _faults.ARMED
        ctxs: list = [None] * len(self.instructions)
        for i, inst in enumerate(self.instructions):
            ctx = engine.Context()
            ctx.needs_input_grad = inst.needs_input_grad
            ins = [values[s] for s in inst.input_slots]
            staged = scratch_views[i]
            if staged:
                memplan.provide_scratch(staged)
            out = out_views[i]
            if out is not None:
                data = inst.op_cls.forward(ctx, *ins, out=out, **inst.params)
                _MEMSTATS["arena_outputs"] += 1
            else:
                data = inst.op_cls.forward(ctx, *ins, **inst.params)
                _MEMSTATS["fallback_outputs"] += 1
                if data.dtype != inst.out_dtype:
                    data = data.astype(inst.out_dtype)
            if staged:
                memplan.provide_scratch(())
            if armed:
                data = _faults.corrupt("tape.replay", data)
            if not inst.grad_out:
                ctx.saved = ()
            values[inst.out_slot] = data
            ctxs[i] = ctx

        self._fire_stat_hooks(values, ctxs)
        self._replay_backward(values, ctxs)
        return values[self.seed_slot]

    # ------------------------------------------------------------------
    # Plan construction (the observation pass)
    # ------------------------------------------------------------------
    @staticmethod
    def _ctx_arrays(ctx):
        """Every ndarray an op context retains (saved tuple + attributes)."""
        for value in vars(ctx).values():
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    if isinstance(item, np.ndarray):
                        yield item

    def _build_plan(self, values, ctxs, natural_ok) -> None:
        """Derive :class:`memplan.PlanInputs` from one observed replay.

        Lifetime evidence comes from the program itself (input slots, the
        frozen backward schedule, stat-hook slots) plus two things only
        the live pass can show: which instruction outputs are *views* of
        other slots (reshape/transpose/getitem — they own no storage) and
        which slot arrays each context retained for backward (saves extend
        a producer's lifetime to its consumer's backward position).
        """
        insts = self.instructions
        n = len(insts)
        bwd_time = {}
        for k, (kind, ref) in enumerate(self.schedule):
            if kind == _OP:
                bwd_time[ref] = n + 1 + k

        slot_of_array: dict[int, int] = {}
        out_values = []
        for inst in insts:
            val = values[inst.out_slot]
            slot_of_array.setdefault(id(val), inst.out_slot)
            out_values.append((inst.out_slot, val))

        alias_of: dict[int, int] = {}
        for i, inst in enumerate(insts):
            data = values[inst.out_slot]
            if data.base is None:
                continue
            for s in inst.input_slots:
                if values[s] is not None and np.may_share_memory(data, values[s]):
                    alias_of[inst.out_slot] = s
                    break

        saved_slots: list[tuple[int, ...]] = []
        for i, ctx in enumerate(ctxs):
            found: set[int] = set()
            if insts[i].grad_out:
                for arr in self._ctx_arrays(ctx):
                    slot = slot_of_array.get(id(arr))
                    if slot is not None:
                        found.add(slot)
                        continue
                    if arr.base is not None:
                        for out_slot, val in out_values:
                            if np.may_share_memory(arr, val):
                                found.add(out_slot)
            saved_slots.append(tuple(sorted(found)))

        out_specs: list = [None] * n
        scratch_specs: list = [()] * n
        for i, inst in enumerate(insts):
            data = values[inst.out_slot]
            if (not natural_ok[i] or data.base is not None
                    or inst.out_slot in alias_of
                    or inst.out_slot == self.seed_slot):
                continue
            input_specs = tuple((values[s].shape, values[s].dtype.str)
                                for s in inst.input_slots)
            try:
                spec, scratch = inst.op_cls.plan_buffers(inst.params, input_specs)
            except Exception:
                continue
            if spec is None:
                continue
            shape, dtype = spec
            # Cross-validate the declaration against the recorded output;
            # a lying plan_buffers must not get arena storage.
            if tuple(shape) != data.shape or np.dtype(dtype) != inst.out_dtype:
                continue
            out_specs[i] = (tuple(shape), np.dtype(dtype).str)
            scratch_specs[i] = tuple(
                (tuple(s), np.dtype(d).str, life) for s, d, life in scratch)

        stat_slots: list[int] = []
        for kind, ref, _callback in self.stat_hooks:
            if kind == "slots":
                stat_slots.extend(ref)

        plan = memplan.build_plan(memplan.PlanInputs(
            n_inst=n,
            out_slots=[inst.out_slot for inst in insts],
            input_slots=[inst.input_slots for inst in insts],
            out_specs=out_specs,
            scratch_specs=scratch_specs,
            saved_slots=saved_slots,
            backward_time=bwd_time,
            stat_slots=tuple(stat_slots),
            alias_of=alias_of,
            seed_slot=self.seed_slot,
            tape_fingerprint=(self.fingerprint, self.input_signature),
        ))
        if not plan.items:
            self._plan_failed = True
            return
        self.plan = plan

    def _replay_backward(self, values, ctxs) -> None:
        # Mirrors Tensor.backward statement for statement, with slot ids in
        # place of tensor ids; any divergence here breaks the bit-for-bit
        # parity guarantee (float accumulation order matters).
        grads: dict[int, np.ndarray] = {self.seed_slot: self.seed_grad}
        owned: set[int] = set()
        for kind, ref in self.schedule:
            if kind == _LEAF:
                node = self.param_of_slot[ref]
                node_grad = grads.pop(ref, None)
                if node_grad is None:
                    continue
                if node_grad.dtype != node._data.dtype:
                    node_grad = node_grad.astype(node._data.dtype)
                    owned.add(ref)
                buf = node.grad
                if buf is None:
                    node.grad = node_grad if ref in owned else node_grad.copy()
                elif buf.shape == node_grad.shape and buf.dtype == node_grad.dtype:
                    np.add(buf, node_grad, out=buf)
                else:
                    node.grad = buf + node_grad
                continue
            inst = self.instructions[ref]
            node_grad = grads.pop(inst.out_slot, None)
            if node_grad is None:
                continue
            contributions = inst.op_cls.backward(ctxs[ref], node_grad)
            for sid, requires, contribution in zip(
                    inst.input_slots, inst.needs_input_grad, contributions):
                if contribution is None or not requires:
                    continue
                contribution = np.asarray(contribution)
                accumulated = grads.get(sid)
                if accumulated is None:
                    grads[sid] = contribution
                elif (sid in owned and accumulated.shape == contribution.shape
                      and accumulated.dtype == contribution.dtype):
                    np.add(accumulated, contribution, out=accumulated)
                else:
                    grads[sid] = accumulated + contribution
                    owned.add(sid)


@contextlib.contextmanager
def capture(inputs=()):
    """Record every op dispatch and the backward walk into a fresh Tape.

    ``inputs`` are the per-step arrays (by identity): tensors wrapping them
    become input leaves, rebound positionally at replay.  The wrapped code
    runs eagerly and correctly; the yielded tape is finalized (validity
    environment pinned, capture state released) on exit.  Captures do not
    nest.
    """
    if engine._ACTIVE_CAPTURE is not None:
        raise RuntimeError("a tape capture is already active")
    tape = Tape(inputs)
    engine._ACTIVE_CAPTURE = tape
    try:
        yield tape
    finally:
        engine._ACTIVE_CAPTURE = None
        tape._end_capture()


class TapedFunction:
    """The capture -> validate -> replay -> invalidate lifecycle as a wrapper.

    ``fn(*arrays)`` must run one complete forward+backward over its array
    arguments and return the loss tensor.  The first call per input
    signature runs eagerly under :func:`capture`; later calls replay the
    cached tape when :meth:`Tape.check` passes, fall back to eager (and
    recapture) when it does not, and give up permanently — pure eager from
    then on — if a capture reports the step unsafe to tape (per-step
    randomness, non-op side effects).
    """

    def __init__(self, fn, name: str = ""):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "step")
        self.tapes: dict = {}
        self.enabled = True
        self.disabled_reason: str | None = None
        self.stats = {"captures": 0, "replays": 0, "eager": 0, "invalidations": 0}

    @staticmethod
    def _signature(arrays) -> tuple:
        return tuple((np.asarray(a).shape, np.asarray(a).dtype.str)
                     for a in arrays)

    def reset(self) -> None:
        """Drop every cached tape and re-enable capturing."""
        self.tapes.clear()
        self.enabled = True
        self.disabled_reason = None

    def __call__(self, *arrays):
        if (not self.enabled or engine._ACTIVE_CAPTURE is not None
                or not engine.is_grad_enabled()
                or anomaly.is_anomaly_enabled()):
            self.stats["eager"] += 1
            return self.fn(*arrays)
        key = (self._signature(arrays), engine.fusion_enabled())
        tape = self.tapes.get(key)
        if tape is not None:
            if tape.check(arrays) is None:
                self.stats["replays"] += 1
                return engine._TENSOR_CLS(tape.replay(arrays))
            del self.tapes[key]
            self.stats["invalidations"] += 1
        with capture(arrays) as tape:
            result = self.fn(*arrays)
        if tape.complete:
            self.tapes[key] = tape
            self.stats["captures"] += 1
        elif tape.unsafe:
            # A property of the step itself, not of this batch: stop paying
            # the capture overhead and run eagerly from now on.
            self.enabled = False
            self.disabled_reason = tape.unsafe_reason
        return result
