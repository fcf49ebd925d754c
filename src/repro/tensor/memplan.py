"""Tape-planned arena memory: static buffer lifetimes for replayed steps.

A captured :class:`~repro.tensor.tape.Tape` knows the entire instruction
list of a shape-stable step up front, so the storage of every intermediate
— forward activations, backward saves, op scratch — can be decided *once*
instead of being allocated per op on every replay.  This module is that
decision, split into the pieces the rest of the engine composes:

- :class:`Arena` — one backing byte allocation per planned step.  Views
  into it are created once at plan-bind time; a warm planned replay writes
  into the same slabs every step and performs no allocator calls for the
  planned buffers.  ``reset()`` is the bump-reset fired at the
  ``zero_grad`` step boundary (see :func:`on_step_boundary`); with
  :func:`set_debug_fill` it poisons the arena with NaN so any replay that
  *read* a stale byte would fail the bitwise parity gate instead of
  silently reusing last step's value.
- :func:`build_plan` — deterministic greedy interval coloring.  Each
  plannable buffer carries an inclusive ``[first_def, last_use]`` lifetime
  interval on the step's unified forward+backward timeline; buffers whose
  intervals do not overlap may share bytes.  The layout is a pure function
  of the plan inputs (no id()/hash ordering anywhere), so the same tape
  produces the identical plan — offsets, sizes and digest — in every
  process; :meth:`MemoryPlan.digest` is the cross-process witness.
- :func:`acquire`/:func:`release` — the op scratch mechanism that
  dissolves the old per-layer ``Conv2d._ColBufferPool``: under a planned
  replay, scratch declared via ``Op.plan_buffers`` is served from the
  arena (:func:`provide_scratch`); everywhere else a process-wide
  shape-keyed cache gives the same reuse the bespoke pool used to give
  eager conv, for every op.
- :func:`alloc`/:func:`zeros` — the single allocation helper used by
  planner-exempt buffers (``Tensor.zeros``-style constructors, fallback
  outputs) so the engine has one allocation idiom, not three.

Planner-exempt storage — leaf parameters, ``.grad`` accumulators, the
loss root that escapes the step, BatchNorm running stats and other method
buffers — is never placed in an arena: it must outlive the step, so it
stays individually owned exactly as before.
"""

from __future__ import annotations

import contextlib
import hashlib
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Arena",
    "MemoryPlan",
    "PlanInputs",
    "PlanItem",
    "acquire",
    "alloc",
    "build_plan",
    "clear_scratch_cache",
    "no_planning",
    "on_step_boundary",
    "planning_enabled",
    "provide_scratch",
    "release",
    "set_debug_fill",
    "set_planning",
    "stats",
    "stats_snapshot",
    "zeros",
]

#: Slab alignment in bytes; keeps every planned buffer cache-line aligned.
ALIGNMENT = 64

_PLANNING = True


def planning_enabled() -> bool:
    """Whether replays should build and execute against a memory plan."""
    return _PLANNING


def set_planning(enabled: bool) -> bool:
    """Enable/disable tape memory planning globally; returns the previous setting."""
    global _PLANNING
    previous = _PLANNING
    _PLANNING = bool(enabled)
    return previous


@contextlib.contextmanager
def no_planning():
    """Context manager forcing the allocate-per-op replay path.

    Used by the planned-vs-unplanned parity tests and the ``repro bench``
    memory section to measure exactly what the plan buys.
    """
    previous = set_planning(False)
    try:
        yield
    finally:
        set_planning(previous)


_DEBUG_FILL = False


def set_debug_fill(enabled: bool) -> bool:
    """Poison arenas with NaN on every reset; returns the previous setting.

    With the fill on, a planned replay that reads any byte it did not
    write *this* step produces NaN and fails the parity gate — the
    runtime proof that no state leaks across step (or restore) boundaries.
    """
    global _DEBUG_FILL
    previous = _DEBUG_FILL
    _DEBUG_FILL = bool(enabled)
    return previous


# ----------------------------------------------------------------------
# Allocation accounting
# ----------------------------------------------------------------------
# Counters are measurement state for the bench memory section and the
# zero-alloc regression tests; they never influence numerics.
_STATS = {
    "arena_outputs": 0,     # planned-replay outputs written into arena slabs
    "fallback_outputs": 0,  # replay outputs allocated per op (unplanned)
    "arena_scratch": 0,     # scratch served from the active plan's arena
    "cache_hits": 0,        # scratch served from the process-wide cache
    "cache_misses": 0,      # scratch that had to be freshly allocated
    "helper_allocs": 0,     # alloc()/zeros() calls that allocated
    "arena_resets": 0,      # step-boundary bump resets
}


def stats() -> dict:
    """The live counter dict (mutated in place by the engine)."""
    return _STATS


def stats_snapshot() -> dict:
    """A copy of the counters, for before/after deltas in tests and bench."""
    return dict(_STATS)


# ----------------------------------------------------------------------
# The single allocation helper (planner-exempt + fallback storage)
# ----------------------------------------------------------------------
def alloc(shape, dtype, out: np.ndarray | None = None) -> np.ndarray:
    """Return uninitialized storage of ``shape``/``dtype``.

    With ``out`` the caller-provided array is validated and returned
    instead of allocating — the one ``out=`` idiom shared by
    ``Tensor.zeros``-style constructors, fallback replay outputs, and
    planner-exempt buffers.
    """
    shape = tuple(shape)
    dtype = np.dtype(dtype)
    if out is not None:
        if out.shape != shape or out.dtype != dtype:
            raise ValueError(
                f"out= storage mismatch: need {shape}/{dtype.str}, "
                f"got {out.shape}/{out.dtype.str}")
        return out
    _STATS["helper_allocs"] += 1
    return np.empty(shape, dtype=dtype)


def zeros(shape, dtype, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-filled storage of ``shape``/``dtype``; reuses ``out`` when given."""
    buf = alloc(shape, dtype, out=out)
    buf.fill(0)
    return buf


# ----------------------------------------------------------------------
# Scratch: the generalized (ex-``_ColBufferPool``) mechanism
# ----------------------------------------------------------------------
class _ScratchCache:
    """Process-wide reusable scratch buffers, keyed by (shape, dtype)."""

    def __init__(self):
        self._free: dict[tuple, list[np.ndarray]] = {}

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        bucket = self._free.get(key)
        if bucket:
            _STATS["cache_hits"] += 1
            return bucket.pop()
        _STATS["cache_misses"] += 1
        return np.empty(key[0], dtype=dtype)

    def release(self, buf: np.ndarray) -> None:
        key = (buf.shape, buf.dtype.str)
        self._free.setdefault(key, []).append(buf)

    def clear(self) -> None:
        self._free.clear()


# Scratch is storage, not run state: nothing here affects numerics.
_CACHE = _ScratchCache()
_PROVIDED: list[np.ndarray] = []
#: id() of every live arena backing buffer, so release() can recognize
#: arena-owned scratch through any chain of reshape/transpose views.
_ARENA_ROOTS: set[int] = set()


def _is_arena_backed(arr: np.ndarray) -> bool:
    root = arr
    while root.base is not None:
        root = root.base
    return id(root) in _ARENA_ROOTS


def provide_scratch(views) -> None:
    """Stage planned arena slabs for the next op's :func:`acquire` calls.

    The tape's planned replay calls this immediately before an
    instruction's ``forward`` with the slabs the plan reserved for it, and
    clears it (``provide_scratch(())``) right after.
    """
    global _PROVIDED
    _PROVIDED = list(views)


def acquire(shape, dtype) -> np.ndarray:
    """Scratch storage for an op kernel (e.g. conv's im2col patch matrix).

    Under a planned replay the matching staged arena slab is consumed;
    otherwise the process-wide cache provides the same buffer reuse the
    old per-layer conv pool did.  The caller must :func:`release` the
    buffer once backward no longer needs it.
    """
    shape = tuple(shape)
    dtype = np.dtype(dtype)
    for idx, view in enumerate(_PROVIDED):
        if view.shape == shape and view.dtype == dtype:
            _PROVIDED.pop(idx)
            _STATS["arena_scratch"] += 1
            return view
    return _CACHE.acquire(shape, dtype)


def release(buf: np.ndarray) -> None:
    """Return scratch to the cache; arena-owned slabs are a no-op.

    Arena slabs live and die with the plan's lifetime intervals — handing
    them to the cache would let a *different* shape-matching acquire steal
    bytes the plan has promised elsewhere.
    """
    if _is_arena_backed(buf):
        return
    _CACHE.release(buf)


def clear_scratch_cache() -> None:
    """Drop every cached scratch buffer (tests)."""
    _CACHE.clear()


# ----------------------------------------------------------------------
# Arena
# ----------------------------------------------------------------------
class Arena:
    """One backing byte allocation serving every planned buffer of a step."""

    def __init__(self, nbytes: int):
        self.nbytes = int(nbytes)
        self.generation = 0
        # max(1, ...) keeps zero-item plans harmless (a real backing array
        # still exists for view bookkeeping).
        self._backing = np.empty(max(1, self.nbytes), dtype=np.uint8)
        _ARENA_ROOTS.add(id(self._backing))
        weakref.finalize(self._backing, _ARENA_ROOTS.discard, id(self._backing))
        _register_arena(self)

    def view(self, offset: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        raw = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset + raw > self.nbytes:
            raise ValueError(f"arena view [{offset}, {offset + raw}) exceeds "
                             f"arena of {self.nbytes} bytes")
        return self._backing[offset:offset + raw].view(dtype).reshape(shape)

    def reset(self) -> None:
        """Bump-reset at the step boundary: contents become undefined."""
        self.generation += 1
        _STATS["arena_resets"] += 1
        if _DEBUG_FILL:
            self._backing.fill(0xFF)  # float32/float64 NaN bit pattern

    def owns(self, arr: np.ndarray) -> bool:
        root = arr
        while root.base is not None:
            root = root.base
        return root is self._backing


# Live arenas, so the optimizer's zero_grad can bump-reset them at the
# step boundary without holding them alive.
_LIVE_ARENAS: "weakref.WeakSet[Arena]" = weakref.WeakSet()


def _register_arena(arena: Arena) -> None:
    _LIVE_ARENAS.add(arena)


def on_step_boundary() -> None:
    """Bump-reset every live arena; called from ``Optimizer.zero_grad``.

    The reset is accounting plus (in debug mode) poisoning — planned
    offsets are static, so there is no free pointer to rewind.  Resetting
    at ``zero_grad`` pins the arena lifecycle to the same boundary the
    stable-``.grad`` contract uses.
    """
    for arena in _LIVE_ARENAS:
        arena.reset()


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------
@dataclass
class PlanItem:
    """One planned buffer: an instruction output or a scratch slab."""

    kind: str                    # "out" | "scratch"
    inst: int                    # defining instruction index
    key: int                     # out: slot id; scratch: index within the inst
    shape: tuple[int, ...]
    dtype: str                   # numpy dtype .str
    start: int                   # inclusive timeline position of first def
    stop: int                    # inclusive timeline position of last use
    nbytes: int = 0              # exact payload bytes
    offset: int = -1             # byte offset in the arena (set by coloring)

    @property
    def aligned(self) -> int:
        return (self.nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass
class PlanInputs:
    """Everything :func:`build_plan` needs, extracted from one observed replay.

    Timeline convention (all positions inclusive): forward instruction
    ``i`` runs at time ``i``; stat hooks fire at ``n_inst``; the ``k``-th
    backward-schedule entry runs at ``n_inst + 1 + k``.
    """

    n_inst: int
    #: per instruction: output slot id
    out_slots: list[int]
    #: per instruction: input slot ids (slots read at time i)
    input_slots: list[tuple[int, ...]]
    #: per instruction: declared + validated output spec (shape, dtype str),
    #: or None when the output must stay on the fallback allocator
    out_specs: list[tuple[tuple[int, ...], str] | None]
    #: per instruction: declared scratch specs (shape, dtype str, lifetime)
    #: with lifetime in {"fwd", "bwd"}
    scratch_specs: list[tuple[tuple[tuple[int, ...], str, str], ...]]
    #: per instruction: slot ids retained on the op context for backward
    saved_slots: list[tuple[int, ...]]
    #: per instruction: backward timeline position (absent: no backward)
    backward_time: dict[int, int]
    #: slot ids read by replayed stat hooks (at time n_inst)
    stat_slots: tuple[int, ...]
    #: out slot -> the slot whose storage it aliases (views)
    alias_of: dict[int, int]
    #: the root slot whose value escapes the step (planner-exempt)
    seed_slot: int
    #: the owning tape's validity fingerprint, pinned into the plan
    tape_fingerprint: tuple = ()


class MemoryPlan:
    """A bound memory plan: layout, arena, and per-instruction views."""

    def __init__(self, items: list[PlanItem], total_bytes: int,
                 n_inst: int, tape_fingerprint: tuple):
        self.items = items
        self.total_bytes = total_bytes
        self.tape_fingerprint = tape_fingerprint
        self.arena = Arena(total_bytes)
        #: per instruction: arena view for the output, or None (fallback)
        self.out_views: list[np.ndarray | None] = [None] * n_inst
        #: per instruction: staged scratch views, in declaration order
        self.scratch_views: list[tuple[np.ndarray, ...]] = [()] * n_inst
        scratch_acc: dict[int, list] = {}
        for item in items:
            view = self.arena.view(item.offset, item.shape, item.dtype)
            if item.kind == "out":
                self.out_views[item.inst] = view
            else:
                scratch_acc.setdefault(item.inst, []).append((item.key, view))
        for inst, pairs in scratch_acc.items():
            pairs.sort(key=lambda pair: pair[0])
            self.scratch_views[inst] = tuple(view for _k, view in pairs)
        self.planned_outputs = sum(1 for v in self.out_views if v is not None)
        self.planned_scratch = sum(len(v) for v in self.scratch_views)

    def digest(self) -> str:
        """Content hash of the layout — equal iff the plan bytes are equal."""
        parts = [f"total={self.total_bytes}"]
        for item in sorted(self.items, key=lambda it: (it.kind, it.inst, it.key)):
            parts.append(f"{item.kind}:{item.inst}:{item.key}:{item.shape}:"
                         f"{item.dtype}:{item.start}:{item.stop}:"
                         f"{item.offset}:{item.nbytes}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def describe(self) -> dict:
        """JSON-friendly summary (bench reporting, tests)."""
        return {
            "total_bytes": self.total_bytes,
            "planned_outputs": self.planned_outputs,
            "planned_scratch": self.planned_scratch,
            "items": len(self.items),
            "digest": self.digest(),
        }


def _lifetimes(inputs: PlanInputs) -> tuple[dict[int, int], dict[int, int], int]:
    """Per-slot inclusive [def, last_use] intervals on the unified timeline."""
    end_of_step = inputs.n_inst + 1 + (max(inputs.backward_time.values(), default=-1)
                                       - inputs.n_inst if inputs.backward_time else 0)
    # A retained save whose backward position is unknown pins the slot to
    # the end of the step (conservative: never free early).
    horizon = max(end_of_step, inputs.n_inst + 1)

    def_of: dict[int, int] = {}
    last: dict[int, int] = {}
    for i in range(inputs.n_inst):
        def_of[inputs.out_slots[i]] = i
        for s in inputs.input_slots[i]:
            last[s] = max(last.get(s, -1), i)
    for s in inputs.stat_slots:
        last[s] = max(last.get(s, -1), inputs.n_inst)
    for i in range(inputs.n_inst):
        t = inputs.backward_time.get(i, horizon)
        for s in inputs.saved_slots[i]:
            last[s] = max(last.get(s, -1), t)
    return def_of, last, horizon


def _resolve_alias_roots(alias_of: dict[int, int]) -> dict[int, int]:
    roots: dict[int, int] = {}
    for slot in sorted(alias_of):
        root = alias_of[slot]
        seen = {slot}
        while root in alias_of and root not in seen:
            seen.add(root)
            root = alias_of[root]
        roots[slot] = root
    return roots


def build_plan(inputs: PlanInputs) -> MemoryPlan:
    """Greedy interval coloring over one byte arena; fully deterministic.

    Buffers are placed largest-first (ties broken by timeline position and
    identity), each at the lowest offset whose byte range is free for the
    buffer's whole lifetime.  Two buffers share bytes only if their
    inclusive lifetime intervals are disjoint, which the planner can prove
    from the tape alone.
    """
    def_of, last, horizon = _lifetimes(inputs)
    alias_root = _resolve_alias_roots(inputs.alias_of)

    # An alias output (reshape/transpose view) owns no storage; its uses
    # extend the lifetime of the slot whose bytes it shares.
    for slot in sorted(alias_root):
        root = alias_root[slot]
        if root in def_of:
            last[root] = max(last.get(root, -1), last.get(slot, -1))

    items: list[PlanItem] = []
    for i in range(inputs.n_inst):
        slot = inputs.out_slots[i]
        spec = inputs.out_specs[i]
        if (spec is not None and slot != inputs.seed_slot
                and slot not in alias_root):
            shape, dtype = spec
            nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            if nbytes > 0:
                items.append(PlanItem(
                    kind="out", inst=i, key=slot, shape=tuple(shape),
                    dtype=dtype, start=i, stop=max(last.get(slot, i), i),
                    nbytes=nbytes))
        for k, (shape, dtype, lifetime) in enumerate(inputs.scratch_specs[i]):
            nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            if nbytes <= 0:
                continue
            stop = i if lifetime == "fwd" else inputs.backward_time.get(i, horizon)
            items.append(PlanItem(
                kind="scratch", inst=i, key=k, shape=tuple(shape),
                dtype=dtype, start=i, stop=max(stop, i), nbytes=nbytes))

    order = sorted(items, key=lambda it: (-it.aligned, it.start, it.kind, it.key))
    placed: list[PlanItem] = []
    total = 0
    for item in order:
        busy = sorted(
            (p.offset, p.offset + p.aligned)
            for p in placed
            if p.start <= item.stop and item.start <= p.stop)
        offset = 0
        for lo, hi in busy:
            if offset + item.aligned <= lo:
                break
            offset = max(offset, hi)
        item.offset = offset
        placed.append(item)
        total = max(total, offset + item.aligned)

    return MemoryPlan(items, total, inputs.n_inst, inputs.tape_fingerprint)
