"""PERF002 — allocation discipline on the tape-replay path.

The memory planner (PR 8, :mod:`repro.tensor.memplan`) promises that a
warm planned replay performs no fresh numpy allocations: op outputs are
arena slabs bound once by the :class:`MemoryPlan`, op scratch comes from
staged slabs or the process-wide cache, and gradients accumulate into
stable leaf ``.grad`` storage.  A raw ``np.empty``/``np.zeros``/
``np.concatenate``/... call reachable from ``Tape.replay`` silently
re-introduces per-step allocator traffic that the plan can neither see
nor account for — the bench's allocator-call counters drift and the
arena's peak-RSS win erodes one hidden allocation at a time.

The rule walks the call graph from the replay entry points and flags
allocation-constructor calls, with three sanctioned escapes:

1. :mod:`repro.tensor.memplan` itself — the arena API is *where*
   allocation is supposed to happen (``alloc``, the scratch cache, the
   arena backing buffer).
2. The ``out is None`` fallback branch of a function that accepts an
   ``out`` parameter — that branch is by construction only taken on the
   eager / unplanned path, never on a warm planned replay.
3. The backward slice (``backward`` methods, ``_replay_backward``):
   gradient arrays belong to the leaves and the autograd engine, not to
   the forward plan, so the walk does not descend into it.

Anything else needs an explicit justified suppression — the point of the
rule is that new allocations on the replay path are a *decision*, not an
accident.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.index import FunctionInfo, ProjectIndex
from repro.analysis.linter import ProjectRule, Violation

#: Call-graph entry points of a tape replay (forward slice), matched by
#: qualified method name.
_REPLAY_ROOTS = {
    "Tape.replay",
    "Tape._replay_fallback",
    "Tape._replay_planned",
}

#: Functions the walk must not descend into: the backward slice owns its
#: own (leaf-stable) storage story.
_BACKWARD_NAMES = {"backward", "_replay_backward"}

#: numpy constructors that always materialize a fresh array.
_ALLOCATORS = {
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "concatenate", "stack", "vstack", "hstack", "dstack",
    "pad", "ascontiguousarray", "copy", "repeat", "tile",
}

#: The arena API module — allocation lives here by design.
_ARENA_MODULE = "repro.tensor.memplan"


def _has_out_param(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = node.args
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    return any(a.arg == "out" for a in every)


def _fallback_spans(node: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> list[tuple[int, int]]:
    """Line spans of ``if out is None: ...`` bodies (and the ``else`` of
    ``if out is not None: ...``) — the sanctioned eager-path branches."""
    spans: list[tuple[int, int]] = []

    def _is_out_none_test(test: ast.expr) -> str | None:
        if (isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name) and test.left.id == "out"
                and len(test.ops) == 1 and len(test.comparators) == 1
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            if isinstance(test.ops[0], ast.Is):
                return "is"
            if isinstance(test.ops[0], ast.IsNot):
                return "is not"
        return None

    def _span(stmts: list[ast.stmt]) -> tuple[int, int] | None:
        if not stmts:
            return None
        return (stmts[0].lineno,
                max(getattr(s, "end_lineno", s.lineno) for s in stmts))

    for sub in ast.walk(node):
        if not isinstance(sub, ast.If):
            continue
        kind = _is_out_none_test(sub.test)
        if kind == "is":
            span = _span(sub.body)
        elif kind == "is not":
            span = _span(sub.orelse)
        else:
            continue
        if span is not None:
            spans.append(span)
    return spans


class AllocDisciplineRule(ProjectRule):
    code = "PERF002"
    description = ("raw numpy allocation reachable from the tape-replay "
                   "path outside the arena API")

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        reachable = self._forward_slice(index)
        for fq in sorted(reachable):
            info = index.functions[fq]
            if info.module.name == _ARENA_MODULE:
                continue
            yield from self._allocations(info)

    # ------------------------------------------------------------------
    def _forward_slice(self, index: ProjectIndex) -> set[str]:
        """Replay-reachable functions, never descending into backward."""
        seen: set[str] = set()
        stack = [fq for fq, info in index.functions.items()
                 if info.qualname in _REPLAY_ROOTS]
        while stack:
            fq = stack.pop()
            if fq in seen:
                continue
            seen.add(fq)
            for callee in index.calls.get(fq, ()):
                if callee in seen:
                    continue
                info = index.functions.get(callee)
                if info is None or info.name in _BACKWARD_NAMES:
                    continue
                stack.append(callee)
        return seen

    # ------------------------------------------------------------------
    def _allocations(self, info: FunctionInfo) -> Iterator[Violation]:
        module = info.module
        exempt = _fallback_spans(info.node) if _has_out_param(info.node) else []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = self._allocator_name(module, node)
            if name is None:
                continue
            if any(lo <= node.lineno <= hi for lo, hi in exempt):
                continue
            yield Violation(
                path=module.path, line=node.lineno, code=self.code,
                message=(f"np.{name}(...) in replay-reachable "
                         f"{info.qualname}() allocates a fresh array every "
                         f"step, invisible to the memory plan; route the "
                         f"buffer through repro.tensor.memplan (alloc/"
                         f"acquire or a planned out= slab) or move the call "
                         f"into the `out is None` eager branch"))

    @staticmethod
    def _allocator_name(module, call: ast.Call) -> str | None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _ALLOCATORS:
            return None
        # np.concatenate(..., out=slab) writes into caller storage — the
        # whole point of the discipline — so it is not an allocation.
        if any(kw.arg == "out" for kw in call.keywords):
            return None
        resolved = module.resolve(func)
        if resolved == f"numpy.{func.attr}" \
                or resolved.startswith("numpy.") and resolved.endswith(f".{func.attr}"):
            return func.attr
        return None
