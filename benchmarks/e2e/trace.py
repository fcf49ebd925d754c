"""Outside-in per-layer tracing for the end-to-end benchmark.

The traced child wraps the public functions of each ``repro`` layer (a layer
is a ``repro`` subpackage) with span recorders, runs the workload, and writes
the spans as JSONL.  Nothing in ``repro`` changes: the wrappers are installed
by :meth:`Tracer.install` inside the traced child only, and the untraced
child never calls it (:func:`installed_wrappers` proves that).

A span is ``(name, start, end, parent, run)``.  Spans nest on one thread, so
a span's *self time* is its duration minus the durations of its direct
children; self times therefore add up to the top-level span time, which is
at most the run's wall time.  :func:`layer_metrics` turns a span file into
the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from typing import Callable, Iterator, NamedTuple

__all__ = ["LAYER_METRICS", "Span", "Tracer", "installed_wrappers",
           "layer_metrics", "read_spans", "self_times", "summarize"]

_MARK = "__e2e_traced__"

#: The nine ops whose forward/backward times and call counts are reported.
OPS = ("maxpool2d", "conv2d", "batch_norm", "linear", "relu", "mul", "add",
       "sum", "cosine_rows")

#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS: dict[str, str] = {
    **{f"tensor.op.{op}.{part}": unit for op in OPS
       for part, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))},
    "tensor.dispatches": "count",
    "tensor.backward_s": "s",
    "tensor.tape_s": "s",
    "tensor.tape_steps": "count",
    "tensor.tape_share": "ratio",
    "ssl.css_loss_s": "s",
    "ssl.distill_s": "s",
    "ssl.target_forward_s": "s",
    "ssl.target_forward_calls": "count",
    "optim.step_s": "s",
    "optim.zero_grad_s": "s",
    "continual.steps": "count",
    "continual.step_ms_p50": "ms",
    "continual.step_ms_p90": "ms",
    "continual.boundary_s": "s",
    "augment.s": "s",
    "augment.calls": "count",
    "replay.loss_s": "s",
    "replay.sample_s": "s",
    "replay.noise_scales_s": "s",
    "selection.select_s": "s",
    "memory.add_s": "s",
    "eval.evaluate_s": "s",
    "eval.cells": "count",
    "eval.extract_s": "s",
    "eval.extract_rows": "count",
    "eval.probe_fit_s": "s",
    "eval.probe_score_s": "s",
    "runtime.checkpoint_s": "s",
    "runtime.transfer_save_s": "s",
    "runtime.write_s": "s",
    "runtime.atomic_writes": "count",
    "runtime.bytes_written": "bytes",
    "data.fetch_s": "s",
    "data.batches": "count",
    "scenarios.drift_s": "s",
    "scenarios.boundaries": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


class Tracer:
    """Records spans in memory; :meth:`write` saves them as JSONL.

    ``counters`` accumulates quantities measured at the same boundaries
    (rows extracted, bytes written, batches yielded, boundaries fired).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.step_open = False
        self._stack: list[int] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, *,
             when: Callable[[], bool] | None = None,
             count: Callable[..., int] | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``when`` gates recording (the call still runs untraced when it
        returns false); ``count(*args, **kwargs)`` adds to ``counters[name]``.
        """
        # _open/_close inlined over local names: this wrapper runs on every
        # op dispatch, and its cost is what trace.overhead_pct reports.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        if count is not None:
            traced = _counted(traced, self.counters, name, count)
        if when is not None:
            traced = _gated(traced, fn, when)
        setattr(traced, _MARK, True)
        return traced

    def wrap_loader_iter(self, iter_fn: Callable) -> Callable:
        """``DataLoader.__iter__`` recording fetches and held batches.

        Each ``next`` is a ``data.fetch`` span; the time the trainer holds a
        yielded batch, up to its next ``next`` call, is a ``continual.step``
        span, which parents every wrapped call the step makes.
        """
        tracer = self

        @functools.wraps(iter_fn)
        def traced(loader) -> Iterator:
            batches = iter_fn(loader)
            while True:
                span = tracer._open("data.fetch")
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                tracer.counters["data.batches"] += 1
                step = tracer._open("continual.step")
                tracer.step_open = True
                try:
                    yield batch
                finally:
                    tracer.step_open = False
                    tracer._close(step)

        setattr(traced, _MARK, True)
        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary of :func:`_targets`."""
        from repro.tensor import engine

        options = {
            # Old-model targets: no-grad representations inside a step.
            "ssl.target_forward": dict(
                when=lambda: self.step_open and not engine.is_grad_enabled()),
            "continual.boundary": dict(
                count=lambda method, event: int(event.phase == "end")),
            "eval.extract": dict(count=lambda objective, x, *a, **k: len(x)),
            "runtime.write": dict(count=lambda path, data, *a, **k: len(data)),
        }
        # Read every original before replacing any: an op class inheriting
        # a registered parent's forward must wrap the parent's function,
        # not the parent's wrapper.
        targets = [(owner, attr, name, static, getattr(owner, attr))
                   for owner, attr, name, static in _targets()]
        for owner, attr, name, static, original in targets:
            if name == "data.fetch":
                wrapped = self.wrap_loader_iter(original)
            else:
                wrapped = self.wrap(name, original, **options.get(name, {}))
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def write(self, path) -> None:
        """Save the spans as JSONL, then one ``counters`` line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": None if parent < 0 else parent,
                     "run": self.run_id}) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters),
                                     "run": self.run_id}) + "\n")


def _counted(traced: Callable, counters: dict, name: str,
             count: Callable[..., int]) -> Callable:
    @functools.wraps(traced)
    def counted(*args, **kwargs):
        counters[name] += count(*args, **kwargs)
        return traced(*args, **kwargs)
    return counted


def _gated(traced: Callable, fn: Callable, when: Callable[[], bool]) -> Callable:
    @functools.wraps(fn)
    def gated(*args, **kwargs):
        return traced(*args, **kwargs) if when() else fn(*args, **kwargs)
    return gated


def _subclasses(base: type) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _defining(base: type, attr: str) -> list[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    return [cls for cls in _subclasses(base) if attr in vars(cls)]


def _targets():
    """Every wrapped boundary as ``(owner, attribute, span name, static)``.

    Functions imported by name are wrapped at the import site the run calls
    them through (``trainer.evaluate_tasks``, ``edsr.noise_scales``, ...).
    """
    import repro.augment.base as augment
    import repro.continual.edsr as edsr
    import repro.continual.trainer as trainer
    import repro.eval.protocol as protocol
    import repro.runtime.checkpoint as checkpoint
    import repro.runtime.guardrail as guardrail
    import repro.selection  # noqa: F401  (registers every strategy class)
    import repro.utils.serialization as serialization
    from repro.continual.method import ContinualMethod
    from repro.data.loader import DataLoader
    from repro.eval.knn import KNNClassifier
    from repro.eval.linear_probe import LinearProbe
    from repro.eval.ridge import RidgeProbe
    from repro.memory.buffer import MemoryBuffer
    from repro.optim.base import Optimizer
    from repro.replay.losses import ReplayLoss
    from repro.replay.sampling import ReplaySampling
    from repro.scenarios.drift import DriftDetector
    from repro.selection.base import SelectionStrategy
    from repro.ssl.base import CSSLObjective
    from repro.ssl.distill import DistillationHead
    from repro.tensor import engine
    from repro.tensor.tape import TapedFunction
    from repro.tensor.tensor import Tensor

    for op_name, op in engine.registered_ops().items():
        yield op, "forward", f"tensor.op.{op_name}.fwd", True
        yield op, "backward", f"tensor.op.{op_name}.bwd", True
    yield Tensor, "backward", "tensor.backward", False
    yield TapedFunction, "__call__", "tensor.tape", False
    for cls in _defining(CSSLObjective, "css_loss"):
        yield cls, "css_loss", "ssl.css_loss", False
    yield DistillationHead, "loss", "ssl.distill", False
    yield CSSLObjective, "representation", "ssl.target_forward", False
    yield Optimizer, "step", "optim.step", False
    yield Optimizer, "zero_grad", "optim.zero_grad", False
    yield ContinualMethod, "on_boundary", "continual.boundary", False
    yield DataLoader, "__iter__", "data.fetch", False
    yield augment.Compose, "__call__", "augment", False
    for cls in _defining(ReplayLoss, "loss"):
        yield cls, "loss", "replay.loss", False
    for cls in _defining(ReplaySampling, "sample"):
        yield cls, "sample", "replay.sample", False
    yield edsr, "noise_scales", "replay.noise_scales", False
    for cls in _defining(SelectionStrategy, "select"):
        yield cls, "select", "selection.select", False
    yield MemoryBuffer, "add", "memory.add", False
    yield trainer, "evaluate_tasks", "eval.evaluate", False
    yield trainer, "evaluate_task", "eval.evaluate", False
    yield protocol, "extract_representations", "eval.extract", False
    yield edsr, "extract_representations", "eval.extract", False
    for probe in (KNNClassifier, LinearProbe, RidgeProbe):
        yield probe, "fit", "eval.probe_fit", False
        yield probe, "accuracy", "eval.probe_score", False
    yield checkpoint.CheckpointManager, "save", "runtime.checkpoint", False
    yield trainer, "save_transfer_matrix", "runtime.transfer_save", False
    for module in (checkpoint, serialization, guardrail):
        yield module, "atomic_write_bytes", "runtime.write", False
    yield DriftDetector, "observe", "scenarios.drift", False


def installed_wrappers() -> int:
    """How many layer boundaries currently carry a tracing wrapper."""
    return sum(bool(getattr(getattr(owner, attr), _MARK, False))
               for owner, attr, _name, _static in _targets())


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
class Span(NamedTuple):
    """One span read back from a trace file; ``parent`` indexes the list."""

    name: str
    start: float
    end: float
    parent: int | None


def read_spans(path) -> tuple[list[Span], dict[str, int]]:
    """The spans and counters of a JSONL file written by :meth:`Tracer.write`."""
    spans, counters = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(Span(record["name"], record["start"],
                                  record["end"], record["parent"]))
    return spans, counters


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: ``calls``, ``self_s`` and inclusive ``total_s``."""
    names: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = names.setdefault(span.name,
                                 {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span.end - span.start
    return names


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]); NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], counters: dict[str, int],
                  run_s: float, untraced_run_s: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced run.

    ``*_s`` metrics are self times; ``run_s`` is the traced run's wall time
    and ``untraced_run_s`` the untraced median it is compared against.
    """
    names = summarize(spans)

    def self_s(name: str) -> float:
        return names[name]["self_s"] if name in names else 0.0

    def calls(name: str) -> int:
        return names[name]["calls"] if name in names else 0

    values: dict[str, float] = {}
    for op in OPS:
        values[f"tensor.op.{op}.fwd_s"] = self_s(f"tensor.op.{op}.fwd")
        values[f"tensor.op.{op}.bwd_s"] = self_s(f"tensor.op.{op}.bwd")
        values[f"tensor.op.{op}.calls"] = calls(f"tensor.op.{op}.fwd")
    steps = calls("continual.step")
    step_ms = [(span.end - span.start) * 1e3 for span in spans
               if span.name == "continual.step"]
    top_s = sum(span.end - span.start for span in spans if span.parent is None)
    values.update({
        "tensor.dispatches": sum(entry["calls"] for name, entry in names.items()
                                 if name.startswith("tensor.op.")
                                 and name.endswith(".fwd")),
        "tensor.backward_s": self_s("tensor.backward"),
        "tensor.tape_s": self_s("tensor.tape"),
        "tensor.tape_steps": calls("tensor.tape"),
        "tensor.tape_share": calls("tensor.tape") / steps if steps else 0.0,
        "ssl.css_loss_s": self_s("ssl.css_loss"),
        "ssl.distill_s": self_s("ssl.distill"),
        "ssl.target_forward_s": self_s("ssl.target_forward"),
        "ssl.target_forward_calls": calls("ssl.target_forward"),
        "optim.step_s": self_s("optim.step"),
        "optim.zero_grad_s": self_s("optim.zero_grad"),
        "continual.steps": steps,
        "continual.step_ms_p50": _percentile(step_ms, 50),
        "continual.step_ms_p90": _percentile(step_ms, 90),
        "continual.boundary_s": self_s("continual.boundary"),
        "augment.s": self_s("augment"),
        "augment.calls": calls("augment"),
        "replay.loss_s": self_s("replay.loss"),
        "replay.sample_s": self_s("replay.sample"),
        "replay.noise_scales_s": self_s("replay.noise_scales"),
        "selection.select_s": self_s("selection.select"),
        "memory.add_s": self_s("memory.add"),
        "eval.evaluate_s": self_s("eval.evaluate"),
        "eval.cells": calls("eval.probe_fit"),
        "eval.extract_s": self_s("eval.extract"),
        "eval.extract_rows": counters.get("eval.extract", 0),
        "eval.probe_fit_s": self_s("eval.probe_fit"),
        "eval.probe_score_s": self_s("eval.probe_score"),
        "runtime.checkpoint_s": self_s("runtime.checkpoint"),
        "runtime.transfer_save_s": self_s("runtime.transfer_save"),
        "runtime.write_s": self_s("runtime.write"),
        "runtime.atomic_writes": calls("runtime.write"),
        "runtime.bytes_written": counters.get("runtime.write", 0),
        "data.fetch_s": self_s("data.fetch"),
        "data.batches": counters.get("data.batches", 0),
        "scenarios.drift_s": self_s("scenarios.drift"),
        "scenarios.boundaries": counters.get("continual.boundary", 0),
        "trace.overhead_pct": 100.0 * (run_s / untraced_run_s - 1.0),
        "trace.coverage_pct": 100.0 * top_s / run_s,
    })
    return values
