"""Deterministic fault injection and the chaos campaign harness.

``repro.faults`` is the robustness substrate of the repo: a seed-
reproducible fault-injection *plane* threaded through every I/O choke
point (checkpoint writes, the engine dispatch, the data loader, the
trainer's task boundary), plus the
harnesses that drive it:

- :mod:`repro.faults.plane` — :class:`FaultPlan`/:class:`FaultEvent`, the
  ``fault_point``/``corrupt``/``take_torn`` site primitives, and the
  process-local arming state (zero-overhead no-ops while disarmed);
- :mod:`repro.faults.scenarios` — the scenario catalog: a pure function
  of ``(seed, scenario)`` to a concrete plan, so every chaos failure is
  replayable from two integers and a name;
- :mod:`repro.faults.crashsweep` — the checkpoint crash-consistency
  sweep: re-runs ``CheckpointManager.save`` in a subprocess, SIGKILLs it
  at every registered I/O boundary in turn, and asserts ``load_latest``
  always yields the previous or the new checkpoint bit-for-bit — never a
  corrupt hybrid;
- :mod:`repro.faults.chaos` — the end-to-end campaign: N seeded
  scenarios through the full trainer (guardrails + checkpoints armed),
  classified survived / clean-abort / resume-verified / FAILED into a
  JSON survival report (``repro chaos``).

The heavyweight harnesses import the trainer, so they are *not* imported
here — ``from repro.faults.chaos import run_campaign`` explicitly.

See DESIGN.md ("Failure model") for the fault taxonomy, the site
registry, and the degradation ladder.
"""

from repro.faults.plane import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    InjectedCrash,
    InjectedIOError,
    InjectedTornWrite,
    arm,
    armed,
    corrupt,
    disarm,
    fault_point,
    site_counts,
    take_torn,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "InjectedCrash",
    "InjectedIOError",
    "InjectedTornWrite",
    "arm",
    "armed",
    "corrupt",
    "disarm",
    "fault_point",
    "site_counts",
    "take_torn",
]
