"""The deterministic fault-injection plane.

Every I/O choke point in the training stack calls a *site* —
``fault_point("ckpt.arrays.tmp_written")``, ``corrupt("engine.dispatch",
data)`` — which is a zero-overhead no-op until a :class:`FaultPlan` is
armed (the hot-path guard is a single module-attribute bool check).  A
plan is a pure value: a tuple of typed :class:`FaultEvent` records, each
naming a site, a fault kind, and the 1-based *hit* (the N-th invocation of
that site) at which it fires.  Plans are built by
:mod:`repro.faults.scenarios` as a pure function of ``(seed, scenario)``,
so any failing chaos run is exactly reproducible from those two values.

Fault kinds
-----------
``io_error``          raise :class:`InjectedIOError` (an ``OSError``);
                      ``transient=True`` marks it retryable — the bounded
                      retry/backoff paths consume it, a second identical
                      fault at the same call keeps failing
``torn_write``        consumed by the atomic writer: write *truncated*
                      bytes straight to the final path, then raise — the
                      on-disk state a torn non-atomic write leaves behind
``kill``              ``SIGKILL`` the calling process (crash sweep)
``nan_payload``       consumed by :func:`corrupt`: poison the payload
                      array with a NaN
``loader_fault``      alias of ``io_error`` for data-loader sites
``crash``             raise :class:`InjectedCrash` — a whole-process
                      failure the trainer does *not* catch; the chaos
                      harness treats it like a kill and exercises resume

Arming is process-local: the crash sweep's forked child arms its own plan
with fresh hit counters.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

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

FAULT_KINDS = ("io_error", "torn_write", "kill", "nan_payload",
               "loader_fault", "crash")

#: Hot-path guard: sites check this single module attribute and return.
ARMED = False


class InjectedIOError(OSError):
    """An injected I/O failure; ``transient`` marks it retryable."""

    def __init__(self, site: str, transient: bool = False):
        super().__init__(f"injected io_error at site {site!r}"
                         + (" (transient)" if transient else ""))
        self.site = site
        self.transient = transient


class InjectedTornWrite(InjectedIOError):
    """An injected torn write: truncated bytes reached the final path."""

    def __init__(self, site: str):
        super().__init__(site, transient=False)


class InjectedCrash(RuntimeError):
    """An injected whole-process failure the trainer must *not* absorb.

    Stands in for SIGKILL in in-process chaos scenarios: it escapes the
    guardrail ladder (which only catches batch-level poison), unwinds the
    run, and the chaos harness then exercises checkpoint resume.
    """

    def __init__(self, site: str):
        super().__init__(f"injected crash at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` at the ``hit``-th call of ``site``.

    ``hit=0`` fires on *every* call (persistent fault); ``hit >= 1`` is a
    one-shot at that occurrence.
    """

    site: str
    kind: str
    hit: int = 1
    transient: bool = False

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(FAULT_KINDS)}")
        if self.hit < 0:
            raise ValueError("hit must be >= 0 (0 = every occurrence)")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events for one scenario run."""

    seed: int
    scenario: str
    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def describe(self) -> dict:
        """JSON-safe summary for chaos reports."""
        return {"seed": self.seed, "scenario": self.scenario,
                "events": [{"site": e.site, "kind": e.kind, "hit": e.hit,
                            "transient": e.transient}
                           for e in self.events]}


class _PlaneState:
    """Per-process runtime state of the armed plan (counters, fired set)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.counts: dict[str, int] = {}
        self.fired: set[int] = set()

    def match(self, site: str) -> FaultEvent | None:
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        for index, event in enumerate(self.plan.events):
            if event.site != site:
                continue
            if event.hit == 0:
                return event
            if event.hit == count and index not in self.fired:
                self.fired.add(index)
                return event
        return None


_STATE: _PlaneState | None = None


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process (fresh hit counters)."""
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
    """Declare an injection site; no-op unless a matching event is due.

    Control-flow faults only — ``io_error``/``loader_fault`` raise,
    ``kill`` SIGKILLs the process, ``crash`` raises :class:`InjectedCrash`.
    Payload faults (``nan_payload``) go through :func:`corrupt` and torn
    writes through :func:`take_torn` instead.
    """
    if not ARMED:
        return
    event = _STATE.match(site)
    if event is None:
        return
    if event.kind in ("io_error", "loader_fault"):
        raise InjectedIOError(site, transient=event.transient)
    if event.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if event.kind == "crash":
        raise InjectedCrash(site)


def corrupt(site: str, array: np.ndarray) -> np.ndarray:
    """Payload site: return ``array``, NaN-poisoned when an event is due.

    The corruption is a copy — the caller's buffers are never mutated
    behind autograd's back.
    """
    if not ARMED:
        return array
    event = _STATE.match(site)
    if event is None or event.kind != "nan_payload":
        return array
    poisoned = np.array(array, copy=True)
    if poisoned.size:
        poisoned.reshape(-1)[0] = np.nan
    return poisoned


def take_torn(site: str) -> bool:
    """Writer-side site: whether a ``torn_write`` event is due here."""
    if not ARMED:
        return False
    event = _STATE.match(site)
    return event is not None and event.kind == "torn_write"
