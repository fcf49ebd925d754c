"""Crash-consistency sweep of the checkpoint write path.

For every registered I/O boundary in ``CheckpointManager.save`` (the
``CHECKPOINT_SITES`` registry in :mod:`repro.runtime.checkpoint`), the
sweep re-runs a save in a forked subprocess with a ``kill`` event armed
at exactly that site — the process is SIGKILLed mid-write — then asserts
the invariant the atomic protocol promises:

    after a crash at *any* boundary, ``load_latest()`` yields either the
    previous checkpoint or the new one, bit-for-bit — never a corrupt
    hybrid, and never nothing.

Two torn-write cases (truncated bytes at the final path of each file)
ride along in-process, covering the corruption mode SIGKILL alone cannot
produce.  A probe pass runs one uninjected save under an empty armed plan
and compares the sites actually observed against the registry, so adding
an I/O boundary to ``save`` without registering its site fails the sweep
rather than silently shrinking coverage.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal

import numpy as np

from repro.faults import plane
from repro.runtime.checkpoint import (CHECKPOINT_SITES, CheckpointManager,
                                      flatten_state)

__all__ = ["run_sweep", "states_equal"]

#: Seconds the parent waits for one killed child before declaring it hung.
CHILD_TIMEOUT = 60.0


def states_equal(a: dict, b: dict) -> bool:
    """Bit-for-bit equality of two checkpointable state trees.

    Both trees are flattened with the checkpoint serializer, so the
    comparison covers exactly what a checkpoint round-trips: the JSON
    tree must match exactly and every array must match in dtype, shape
    and bytes (NaNs compare equal — a partially recorded accuracy matrix
    is NaN-padded by construction).
    """
    tree_a, arrays_a = flatten_state(a)
    tree_b, arrays_b = flatten_state(b)
    if tree_a != tree_b or set(arrays_a) != set(arrays_b):
        return False
    for key, left in arrays_a.items():
        right = arrays_b[key]
        if left.dtype != right.dtype or left.shape != right.shape:
            return False
        equal_nan = left.dtype.kind == "f"
        if not np.array_equal(left, right, equal_nan=equal_nan):
            return False
    return True


def _demo_state(task_index: int, seed: int) -> dict:
    """A small deterministic state tree standing in for real run state."""
    rng = np.random.default_rng([seed, task_index, 0xC4A5])
    return {
        "task_index": task_index,
        "weights": {
            "w": rng.normal(size=(16, 8)).astype(np.float32),
            "b": rng.normal(size=(8,)).astype(np.float32),
        },
        "note": f"sweep-state-{task_index}",
    }


def _sweep_child(directory: str, site: str, seed: int) -> None:
    """Child body: arm a kill at ``site`` and attempt the task-1 save."""
    plan = plane.FaultPlan(events=(plane.FaultEvent(site=site, kind="kill"),))
    plane.arm(plan)
    CheckpointManager(directory).save(1, _demo_state(1, seed))
    # Reached only when the armed site never fired on the save path; a
    # distinctive clean exit the parent reports as a coverage gap.
    os._exit(3)


def _pick_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _clear_task1(directory: pathlib.Path) -> None:
    """Remove whatever a (possibly killed) task-1 save left behind."""
    for leftover in directory.glob("ckpt-00001*"):
        leftover.unlink(missing_ok=True)


def _classify_load(manager: CheckpointManager, state_a: dict,
                   state_b: dict) -> tuple[str, bool]:
    """What ``load_latest`` yields after the crash: previous/new/corrupt."""
    loaded = manager.load_latest()
    if loaded is None:
        return "nothing", False
    if loaded.task_index == 1:
        return "new", states_equal(loaded.state, state_b)
    if loaded.task_index == 0:
        return "previous", states_equal(loaded.state, state_a)
    return f"unexpected task {loaded.task_index}", False


def run_sweep(directory: str | pathlib.Path, seed: int = 0,
              timeout: float = CHILD_TIMEOUT) -> dict:
    """Run the full crash sweep in ``directory``; returns a JSON-safe report.

    The report's ``ok`` is true only when the probe pass observed exactly
    the registered boundary set *and* every kill/torn case loaded a
    bit-for-bit previous-or-new checkpoint.
    """
    directory = pathlib.Path(directory)
    manager = CheckpointManager(directory)
    state_a = _demo_state(0, seed)
    state_b = _demo_state(1, seed)
    manager.save(0, state_a)

    # Probe pass: one uninjected save under an empty armed plan records
    # which sites the write path actually visits.
    with plane.armed(plane.FaultPlan()):
        manager.save(1, state_b)
        observed = sorted(site for site in plane.site_counts()
                          if site.startswith("ckpt."))
    boundaries = {site for site in observed if not site.endswith(".torn")}
    coverage_complete = boundaries == set(CHECKPOINT_SITES)
    _clear_task1(directory)

    ctx = _pick_context()
    cases: list[dict] = []
    for site in CHECKPOINT_SITES:
        child = ctx.Process(target=_sweep_child,
                            args=(str(directory), site, seed),
                            name=f"repro-crash-sweep-{site}", daemon=True)
        child.start()
        child.join(timeout)
        if child.is_alive():  # pragma: no cover - only on a wedged child
            child.kill()
            child.join(timeout)
        exitcode = child.exitcode
        killed = exitcode == -signal.SIGKILL
        loaded, intact = _classify_load(CheckpointManager(directory),
                                        state_a, state_b)
        cases.append({
            "site": site, "mode": "kill", "exitcode": exitcode,
            "loaded": loaded,
            "ok": killed and intact,
            "detail": "" if killed else
                      f"site never fired (child exit {exitcode})",
        })
        _clear_task1(directory)

    for torn_site in ("ckpt.arrays.torn", "ckpt.manifest.torn"):
        torn_plan = plane.FaultPlan(
            events=(plane.FaultEvent(site=torn_site, kind="torn_write"),))
        raised = False
        with plane.armed(torn_plan):
            try:
                CheckpointManager(directory).save(1, state_b)
            except plane.InjectedTornWrite:
                raised = True
        loaded, intact = _classify_load(CheckpointManager(directory),
                                        state_a, state_b)
        cases.append({
            "site": torn_site, "mode": "torn", "exitcode": None,
            "loaded": loaded,
            "ok": raised and loaded == "previous" and intact,
            "detail": "" if raised else "torn write was not injected",
        })
        _clear_task1(directory)

    return {
        "seed": seed,
        "directory": str(directory),
        "coverage": {
            "registered": list(CHECKPOINT_SITES),
            "observed": observed,
            "complete": coverage_complete,
        },
        "cases": cases,
        "ok": coverage_complete and all(case["ok"] for case in cases),
    }
