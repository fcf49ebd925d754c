"""DET002 — dataflow-precise RNG/entropy taint reaching engine or selection.

DET001 flags the *call sites* of seedless randomness syntactically; this
rule follows the *values*.  A wall-clock read, OS entropy, a legacy
global-stream draw, or an unseeded ``default_rng()`` produces a value
that two runs of the same script disagree on; if that value flows —
through assignments, augmented assignments, walrus bindings,
comprehensions, container stores, ``try``/``finally`` paths, or closure
capture by a nested function — into an engine dispatch, a ``Tensor``
construction, or the memory-selection machinery, the run's training
trajectory (or its selected replay memory) is nondeterministic in a way
no seeded-generator audit of the call site can see.

Sources (taint labels)
    ``time.time``/``time.time_ns``/``perf_counter``/``monotonic``,
    ``os.urandom``, ``uuid.uuid4``, ``secrets.*``; stdlib ``random.*``
    draws; ``numpy.random.*`` legacy global-stream draws;
    ``default_rng()`` with no seed argument.

Sinks
    ``repro.tensor.engine.apply``/``apply_ctx`` (and the ``repro.tensor.
    ops`` wrappers), ``Tensor(...)`` construction, and the selection
    surface (``SelectionContext``, ``make_strategy``-produced
    ``select``).

Sanitizers
    ``len``/``type``/``isinstance`` — structural facts about a tainted
    value are deterministic even when the value is not.

``repro.utils.rng`` is exempt (it is the sanctioned generator mint), as is
timing code whose tainted values flow only into logs/results — those
never pass through a sink, so the dataflow rule stays silent where a
grep-shaped rule would cry wolf.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow import TaintSpec, analyze_function
from repro.analysis.index import ProjectIndex
from repro.analysis.linter import ProjectRule, Violation

_TIME_SOURCES = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "time.perf_counter": "wall-clock time",
    "time.perf_counter_ns": "wall-clock time",
    "time.monotonic": "wall-clock time",
    "os.urandom": "OS entropy",
    "uuid.uuid4": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.randbelow": "OS entropy",
}

_SANITIZERS = {"len", "type", "isinstance", "issubclass"}

_SINKS = {
    "repro.tensor.engine.apply": "engine op dispatch",
    "repro.tensor.engine.apply_ctx": "engine op dispatch",
    "repro.tensor.tensor.Tensor": "Tensor construction",
    "repro.selection.base.SelectionContext": "memory selection",
    "repro.selection.base.make_strategy": "memory selection",
}

_SINK_PREFIXES = {
    "repro.tensor.ops.": "engine op dispatch",
}

#: Unresolved dotted suffixes accepted as sinks so bare scripts/fixtures
#: (no import table into repro) still match.
_SINK_SUFFIXES = {
    "engine.apply": "engine op dispatch",
    "engine.apply_ctx": "engine op dispatch",
    "SelectionContext": "memory selection",
}


class _RNGTaintSpec(TaintSpec):
    def source_label(self, call: ast.Call, resolve) -> str | None:
        name = resolve(call.func)
        if name in _TIME_SOURCES:
            return _TIME_SOURCES[name]
        parts = name.split(".")
        if parts[0] == "random" and len(parts) == 2 and parts[1][:1].islower():
            return "global random-module stream"
        if len(parts) >= 2 and parts[-2] == "random" \
                and parts[0] in ("numpy", "np") and parts[-1][:1].islower():
            if parts[-1] == "default_rng":
                if not call.args and not call.keywords:
                    return "unseeded default_rng()"
                return None
            return "global numpy RNG stream"
        if parts[-1] == "default_rng" and not call.args and not call.keywords:
            return "unseeded default_rng()"
        return None

    def sink(self, call: ast.Call, resolve) -> str | None:
        name = resolve(call.func)
        if name in _SINKS:
            return _SINKS[name]
        for prefix, description in _SINK_PREFIXES.items():
            if name.startswith(prefix):
                return description
        for suffix, description in _SINK_SUFFIXES.items():
            if name == suffix or name.endswith("." + suffix):
                return description
        return None

    def is_sanitizer(self, call: ast.Call, resolve) -> bool:
        return resolve(call.func) in _SANITIZERS


class RNGTaintRule(ProjectRule):
    code = "DET002"

    spec_cls = _RNGTaintSpec

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        spec = self.spec_cls()
        for info in index.functions.values():
            if info.module.source.in_package("repro.utils.rng"):
                continue
            result = analyze_function(info.node, spec, info.module.resolve)
            for finding in result.findings:
                yield Violation(
                    path=info.module.path, line=finding.line, code=self.code,
                    message=(f"value derived from {finding.label} reaches "
                             f"{finding.sink} in {info.qualname}(); "
                             f"deterministic runs require every stochastic "
                             f"input to come from an explicitly seeded "
                             f"numpy.random.Generator "
                             f"(repro.utils.rng)"))
