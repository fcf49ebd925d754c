"""Deterministic fault injection for the checkpoint writer.

``repro.faults`` turns the checkpoint writer's atomicity claim into an
executable check:

- :mod:`repro.faults.plane` — :class:`FaultPlan`/:class:`FaultEvent`, the
  ``fault_point``/``take_torn`` site primitives that
  :func:`repro.runtime.checkpoint.atomic_write_bytes` calls at each write
  stage, and the process-local arming state (zero-overhead no-ops while
  disarmed);
- :mod:`repro.faults.crashsweep` — the checkpoint crash-consistency
  sweep: re-runs ``CheckpointManager.save`` in a subprocess, SIGKILLs it
  at every registered I/O boundary in turn, and asserts ``load_latest``
  always yields the previous or the new checkpoint bit-for-bit — never a
  corrupt hybrid.

The sweep imports the checkpoint manager, so it is *not* imported here —
``from repro.faults.crashsweep import run_sweep`` explicitly.

See DESIGN.md ("Failure model") for the fault kinds, the site registry
and the degradation ladder.
"""

from repro.faults.plane import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    InjectedTornWrite,
    arm,
    armed,
    disarm,
    fault_point,
    site_counts,
    take_torn,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "InjectedTornWrite",
    "arm",
    "armed",
    "disarm",
    "fault_point",
    "site_counts",
    "take_torn",
]
