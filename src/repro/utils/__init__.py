"""Shared utilities: seeding, multi-seed aggregation, table rendering.

Import layering
---------------
``repro.utils.rng`` and ``repro.utils.tables`` are leaf modules (numpy
only) and are imported eagerly, so low-level packages (``repro.nn``,
``repro.data``) can depend on the central seeded-RNG plumbing without
creating an import cycle.  The result/report/serialization helpers sit
*above* ``repro.nn`` and ``repro.eval`` in the layering and are loaded
lazily via module ``__getattr__`` (PEP 562) on first access; their names
stay part of the declared ``__all__`` surface.
"""

from __future__ import annotations

import importlib

from repro.utils.rng import fallback_rng, get_rng_state, set_rng_state
from repro.utils.tables import format_table, format_series, format_heatmap

__all__ = [
    "fallback_rng",
    "get_rng_state",
    "set_rng_state",
    "AggregateResult",
    "aggregate_runs",
    "save_result",
    "load_result",
    "save_transfer_matrix",
    "load_transfer_matrix",
    "collect_results",
    "build_report",
    "write_report",
    "format_table",
    "format_series",
    "format_heatmap",
]

_LAZY_EXPORTS = {
    "AggregateResult": "repro.utils.results",
    "aggregate_runs": "repro.utils.results",
    "save_result": "repro.utils.serialization",
    "load_result": "repro.utils.serialization",
    "save_transfer_matrix": "repro.utils.serialization",
    "load_transfer_matrix": "repro.utils.serialization",
    "collect_results": "repro.utils.report",
    "build_report": "repro.utils.report",
    "write_report": "repro.utils.report",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.utils' has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
