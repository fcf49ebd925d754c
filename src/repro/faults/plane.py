"""The deterministic fault-injection plane of the checkpoint writer.

Every I/O boundary of :func:`repro.runtime.checkpoint.atomic_write_bytes`
calls a *site* — ``fault_point("ckpt.arrays.tmp_written")``,
``take_torn("ckpt.manifest.torn")`` — which is a zero-overhead no-op until
a :class:`FaultPlan` is armed (the guard is a single module-attribute
bool check).  A plan is a pure value: a tuple of typed
:class:`FaultEvent` records, each naming a site and a fault kind.  Every
event is a one-shot that fires at the first invocation of its site.

Fault kinds
-----------
``kill``        ``SIGKILL`` the calling process (the crash sweep's fault)
``torn_write``  consumed by the atomic writer: write *truncated* bytes
                straight to the final path, then raise
                :class:`InjectedTornWrite` — the on-disk state a torn
                non-atomic write leaves behind

Arming is process-local: the crash sweep's forked child arms its own plan
with fresh counters.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass

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

FAULT_KINDS = ("kill", "torn_write")

#: Hot-path guard: sites check this single module attribute and return.
ARMED = False


class InjectedTornWrite(OSError):
    """An injected torn write: truncated bytes reached the final path."""

    def __init__(self, site: str):
        super().__init__(f"injected torn write at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` at the first call of ``site``."""

    site: str
    kind: str

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(FAULT_KINDS)}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events for one armed run."""

    events: tuple[FaultEvent, ...] = ()


class _PlaneState:
    """Per-process runtime state of the armed plan (counters, pending)."""

    def __init__(self, plan: FaultPlan):
        self.counts: dict[str, int] = {}
        self.pending = list(plan.events)

    def match(self, site: str) -> FaultEvent | None:
        self.counts[site] = self.counts.get(site, 0) + 1
        for event in self.pending:
            if event.site == site:
                self.pending.remove(event)
                return event
        return None


_STATE: _PlaneState | None = None


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process (fresh counters)."""
    global ARMED, _STATE
    _STATE = _PlaneState(plan)
    ARMED = True


def disarm() -> None:
    """Return every site to its zero-overhead no-op state."""
    global ARMED, _STATE
    ARMED = False
    _STATE = None


@contextmanager
def armed(plan: FaultPlan):
    """Context manager: arm ``plan``, always disarm on exit."""
    arm(plan)
    try:
        yield plan
    finally:
        disarm()


def site_counts() -> dict[str, int]:
    """Sites observed since arming (site -> invocation count)."""
    return {} if _STATE is None else dict(_STATE.counts)


def fault_point(site: str) -> None:
    """Declare a write-stage site; SIGKILLs the process if a ``kill`` is due."""
    if not ARMED:
        return
    event = _STATE.match(site)
    if event is not None and event.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def take_torn(site: str) -> bool:
    """Writer-side site: whether a ``torn_write`` event is due here."""
    if not ARMED:
        return False
    event = _STATE.match(site)
    return event is not None and event.kind == "torn_write"
