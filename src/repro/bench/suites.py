"""Benchmark suites: fused-vs-unfused op microbenches + the SSL step bench.

Two layers of measurement:

* **Op microbenches** — each fused kernel (linear, linear+ReLU,
  L2-normalize, cosine rows, normalized MSE, batch norm) timed
  forward+backward with fusion on and off (:func:`repro.tensor.no_fusion`).
  These localise *where* a regression lives.
* **SSL training-step bench** — one full SimCLR-style optimisation step
  (SimSiam objective, MLP backbone, batch 128, SGD momentum), the unit the
  ISSUE acceptance bar is written against.  The pre-refactor engine
  (closure-taped, no fusion, fresh grad buffers every step) measured
  ``PRE_REFACTOR_REFERENCE`` on this exact configuration; the current
  engine must stay >= 1.5x faster (see BENCH_pr3.json).

``smoke=True`` shrinks shapes and repeats so the whole suite runs in well
under a second — that mode exists for the tier-1 test, not for numbers
worth reading.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import BenchTiming, speedup, time_callable
from repro.tensor import Tensor, no_fusion, ops

# Measured on the pre-registry engine (closure-based tape, unfused kernels,
# per-step grad allocation) with build_ssl_step()'s exact configuration.
PRE_REFACTOR_REFERENCE = {"median_s": 0.00974, "best_s": 0.00727, "mean_s": 0.01052}

#: Acceptance bar from ISSUE.md: median SSL-step time must beat the
#: pre-refactor reference by at least this factor.
REQUIRED_SPEEDUP = 1.5

#: PR 4 acceptance bar: median tape-replayed SSL-step time must beat the
#: eager-dispatch step by at least this factor (full shapes only).
TAPE_REQUIRED_SPEEDUP = 1.3

#: PR 9 acceptance bar: the closed-form ridge probe must beat the SGD
#: linear probe by at least this factor per accuracy-matrix cell (full
#: shapes only), while agreeing within PROBE_MAX_ACCURACY_DELTA.
RIDGE_REQUIRED_SPEEDUP = 10.0

#: Maximum |ridge accuracy − SGD probe accuracy| on the bench workload.
PROBE_MAX_ACCURACY_DELTA = 0.01

#: Worker counts the statistics shard-merge identity is checked across.
PROBE_BENCH_WORKER_COUNTS = (1, 2, 3)


# ----------------------------------------------------------------------
# Op microbenches
# ----------------------------------------------------------------------
def _bench_pair(make_step, *, warmup: int, repeats: int) -> dict:
    """Time ``make_step()`` with fusion enabled and disabled."""
    fused = time_callable(make_step, warmup=warmup, repeats=repeats)
    with no_fusion():
        unfused = time_callable(make_step, warmup=warmup, repeats=repeats)
    return {"fused": fused.to_dict(), "unfused": unfused.to_dict(),
            "speedup": speedup(unfused, fused)}


def op_microbenches(*, smoke: bool = False, repeats: int | None = None) -> dict:
    """Forward+backward timings for every fused kernel, fused vs composed."""
    n, d = (16, 8) if smoke else (256, 128)
    warmup = 1 if smoke else 5
    repeats = repeats or (3 if smoke else 30)
    rng = np.random.default_rng(0)
    x_np = rng.normal(size=(n, d)).astype(np.float32)
    y_np = rng.normal(size=(n, d)).astype(np.float32)
    w_np = (rng.normal(size=(d, d)) / np.sqrt(d)).astype(np.float32)
    b_np = np.zeros(d, dtype=np.float32)

    def linear_step():
        x = Tensor(x_np, requires_grad=True)
        w = Tensor(w_np, requires_grad=True)
        b = Tensor(b_np, requires_grad=True)
        ops.linear(x, w, b).sum().backward()

    def linear_relu_step():
        x = Tensor(x_np, requires_grad=True)
        w = Tensor(w_np, requires_grad=True)
        b = Tensor(b_np, requires_grad=True)
        ops.linear_relu(x, w, b).sum().backward()

    def l2_normalize_step():
        x = Tensor(x_np, requires_grad=True)
        ops.l2_normalize(x, axis=1).sum().backward()

    def cosine_step():
        a = Tensor(x_np, requires_grad=True)
        b = Tensor(y_np, requires_grad=True)
        ops.cosine_similarity(a, b, axis=1).sum().backward()

    def normalized_mse_step():
        p = Tensor(x_np, requires_grad=True)
        t = Tensor(y_np)
        ops.normalized_mse(p, t, axis=1).sum().backward()

    def batch_norm_step():
        x = Tensor(x_np, requires_grad=True)
        x_hat, _mean, _var = ops.batch_norm_train(x, (0,), 1e-5)
        x_hat.sum().backward()

    steps = {
        "linear": linear_step,
        "linear_relu": linear_relu_step,
        "l2_normalize": l2_normalize_step,
        "cosine_rows": cosine_step,
        "normalized_mse": normalized_mse_step,
        "batch_norm": batch_norm_step,
    }
    return {name: _bench_pair(fn, warmup=warmup, repeats=repeats)
            for name, fn in steps.items()}


# ----------------------------------------------------------------------
# SSL training-step bench
# ----------------------------------------------------------------------
def build_ssl_step(*, smoke: bool = False, seed: int = 0, use_tape: bool = False,
                   shapes: tuple[int, int, int] | None = None):
    """Build the SimSiam+MLP training step the acceptance bar measures.

    Returns ``(step, batches)`` where ``step()`` runs zero_grad -> loss ->
    backward -> optimizer step on a fixed pair of augmented views.  With
    ``use_tape`` the step runs through :class:`repro.ssl.SSLTrainStep`'s
    tape: captured on the first call, replayed afterwards.  ``shapes``
    overrides the default ``(batch, input_dim, hidden)`` (the memory
    bench uses larger buffers so allocations are mmap-sized and visible
    in resident-set numbers).
    """
    from repro.optim import SGD
    from repro.ssl.encoder import Encoder, build_backbone
    from repro.ssl.simsiam import SimSiam
    from repro.ssl.step import SSLTrainStep

    batch, input_dim, hidden = shapes or ((8, 8, 16) if smoke else (128, 32, 64))
    rng = np.random.default_rng(seed)
    backbone = build_backbone("mlp", rng, input_dim=input_dim, hidden_dim=hidden)
    encoder = Encoder(backbone, representation_dim=hidden, rng=rng)
    objective = SimSiam(encoder, rng=rng)
    optimizer = SGD(objective.parameters(), lr=0.03, momentum=0.9)
    train_step = SSLTrainStep(objective, optimizer, use_tape=use_tape)

    data_rng = np.random.default_rng(42)
    x = data_rng.normal(size=(batch, input_dim)).astype(np.float32)
    v1 = x + data_rng.normal(scale=0.1, size=x.shape).astype(np.float32)
    v2 = x + data_rng.normal(scale=0.1, size=x.shape).astype(np.float32)

    def step() -> float:
        return train_step(v1, v2)

    return step, (v1, v2)


def ssl_step_bench(*, smoke: bool = False, repeats: int | None = None) -> dict:
    """Time the full SSL training step, fused vs unfused engine paths."""
    warmup = 1 if smoke else 5
    repeats = repeats or (3 if smoke else 30)

    step, _ = build_ssl_step(smoke=smoke)
    fused = time_callable(step, warmup=warmup, repeats=repeats)

    step_unfused, _ = build_ssl_step(smoke=smoke)
    with no_fusion():
        unfused = time_callable(step_unfused, warmup=warmup, repeats=repeats)

    result = {
        "config": {"smoke": smoke, "batch": 8 if smoke else 128,
                   "backbone": "mlp", "objective": "simsiam",
                   "optimizer": "sgd(lr=0.03, momentum=0.9)",
                   "repeats": repeats},
        "fused": fused.to_dict(),
        "unfused": unfused.to_dict(),
        "speedup_fused_vs_unfused": speedup(unfused, fused),
    }
    if not smoke:
        # The reference was measured at full shapes; comparing a smoke run
        # against it would be meaningless.
        result["pre_refactor_reference"] = dict(PRE_REFACTOR_REFERENCE)
        result["speedup_vs_pre_refactor"] = speedup(PRE_REFACTOR_REFERENCE, fused)
        result["required_speedup"] = REQUIRED_SPEEDUP
    return result


def tape_replay_bench(*, smoke: bool = False, repeats: int | None = None) -> dict:
    """Time the SSL step eager vs tape-replayed (PR 4's acceptance bar).

    Both variants run the identical model/optimizer configuration; the
    taped one captures during warmup and replays the recorded program for
    every timed repetition.
    """
    warmup = 1 if smoke else 5
    repeats = repeats or (3 if smoke else 30)

    step_eager, _ = build_ssl_step(smoke=smoke, use_tape=False)
    eager = time_callable(step_eager, warmup=warmup, repeats=repeats)

    step_taped, _ = build_ssl_step(smoke=smoke, use_tape=True)
    replay = time_callable(step_taped, warmup=warmup, repeats=repeats)

    result = {
        "config": {"smoke": smoke, "batch": 8 if smoke else 128,
                   "backbone": "mlp", "objective": "simsiam",
                   "optimizer": "sgd(lr=0.03, momentum=0.9)",
                   "repeats": repeats},
        "eager": eager.to_dict(),
        "replay": replay.to_dict(),
        "speedup_replay_vs_eager": speedup(eager, replay),
    }
    if not smoke:
        # Smoke shapes are dominated by fixed Python overhead; the bar is
        # only meaningful at full shapes.
        result["required_speedup"] = TAPE_REQUIRED_SPEEDUP
    return result


# ----------------------------------------------------------------------
# Eval-probe bench (PR 9)
# ----------------------------------------------------------------------
def _probe_workload(smoke: bool):
    """Synthetic frozen representations with partial class overlap.

    Gaussian class blobs whose spread leaves a few percent of samples
    ambiguous — both probes land in the same accuracy band (the ±1pt
    agreement bar is meaningful) without either saturating at 100%.
    """
    n_train, n_test, dim, n_classes = (60, 30, 8, 3) if smoke else (1200, 600, 64, 10)
    rng = np.random.default_rng(7)
    centers = rng.normal(scale=0.6, size=(n_classes, dim))

    def sample(count):
        labels = rng.integers(0, n_classes, size=count)
        reps = centers[labels] + rng.normal(size=(count, dim))
        return reps.astype(np.float32), labels

    return sample(n_train), sample(n_test)


def eval_probe_bench(*, smoke: bool = False, repeats: int | None = None) -> dict:
    """Time one accuracy-matrix cell: SGD linear probe vs closed-form ridge.

    Measures exactly what the evaluation protocol pays per cell — construct
    a probe, ``fit`` on the train representations, ``accuracy`` on the test
    split — for the 50-epoch Adam :class:`~repro.eval.linear_probe.LinearProbe`
    and the streaming :class:`~repro.eval.ridge.RidgeProbe`.  Fewer default
    repeats than the microbenches because one SGD fit is itself a
    thousand-step optimization.

    Also checks the statistics shard-merge contract end-to-end: the train
    pass is split into blocks, the blocks are partitioned across
    ``PROBE_BENCH_WORKER_COUNTS`` simulated workers, and every worker
    count's merged ``(A, B)`` must be byte-identical (reported as digests).
    """
    import hashlib

    from repro.eval.linear_probe import LinearProbe
    from repro.eval.ridge import RidgeProbe, RidgeStatistics
    from repro.utils.rng import fallback_rng

    (train_x, train_y), (test_x, test_y) = _probe_workload(smoke)
    warmup = 0 if smoke else 1
    repeats = repeats or (2 if smoke else 5)

    def linear_cell() -> float:
        probe = LinearProbe(rng=fallback_rng(11)).fit(train_x, train_y)
        return probe.accuracy(test_x, test_y)

    def ridge_cell() -> float:
        return RidgeProbe().fit(train_x, train_y).accuracy(test_x, test_y)

    linear_acc = linear_cell()
    ridge_acc = ridge_cell()
    linear_timing = time_callable(linear_cell, warmup=warmup, repeats=repeats)
    ridge_timing = time_callable(ridge_cell, warmup=warmup, repeats=repeats)

    # Shard-merge identity across worker counts: same blocks, different
    # partitions, merged in reverse order to exercise order-independence.
    block_size = 16 if smoke else 128
    classes = np.unique(train_y)
    blocks = [(train_x[s:s + block_size], train_y[s:s + block_size])
              for s in range(0, len(train_x), block_size)]
    digests = {}
    for workers in PROBE_BENCH_WORKER_COUNTS:
        bounds = np.linspace(0, len(blocks), workers + 1).astype(int)
        partials = []
        for start, stop in zip(bounds, bounds[1:]):
            if start == stop:
                continue
            shard = RidgeStatistics(train_x.shape[1], classes,
                                    start_block=int(start))
            for block_x, block_y in blocks[start:stop]:
                shard.update(block_x, block_y)
            partials.append(shard)
        merged = partials[-1]
        for shard in reversed(partials[:-1]):
            merged = merged.merge(shard)
        a, b = merged.reduced()
        digests[str(workers)] = hashlib.sha256(
            a.tobytes() + b.tobytes()).hexdigest()
    identical = len(set(digests.values())) == 1

    result = {
        "config": {"smoke": smoke, "n_train": len(train_x),
                   "n_test": len(test_x), "dim": train_x.shape[1],
                   "n_classes": int(classes.size), "block_size": block_size,
                   "linear_probe": "adam(epochs=50, lr=1e-2)",
                   "repeats": repeats},
        "linear": linear_timing.to_dict(),
        "ridge": ridge_timing.to_dict(),
        "speedup_ridge_vs_linear": speedup(linear_timing, ridge_timing),
        "linear_accuracy": linear_acc,
        "ridge_accuracy": ridge_acc,
        "accuracy_delta": abs(ridge_acc - linear_acc),
        "shard_merge": {"worker_counts": list(PROBE_BENCH_WORKER_COUNTS),
                        "digests": digests,
                        "identical_across_worker_counts": identical},
    }
    if not smoke:
        # Smoke shapes are fixed Python overhead; the bars are full-shape
        # only, like every other suite.
        result["required_speedup"] = RIDGE_REQUIRED_SPEEDUP
        result["max_accuracy_delta"] = PROBE_MAX_ACCURACY_DELTA
    return result


# ----------------------------------------------------------------------
# Memory bench (PR 8)
# ----------------------------------------------------------------------
#: Steps measured (after warmup) by each memory-bench variant.
MEMORY_BENCH_STEPS = {"smoke": 5, "full": 30}

#: (batch, input_dim, hidden) for the full-mode memory bench.  Larger
#: than the timing bench on purpose: per-step transients must clear the
#: allocator's mmap threshold so resident-set numbers can see them.
MEMORY_BENCH_SHAPES = (512, 128, 256)


def _malloc_trim() -> None:
    """Return freed heap pages to the OS (glibc); no-op elsewhere.

    Called once after warmup so each variant's sampled RSS reflects its
    *steady-state* live set rather than pages the warmup (eager capture +
    observation pass) dirtied and the allocator never returned.
    """
    try:
        import ctypes

        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except Exception:  # pragma: no cover - non-glibc platforms
        pass


def _sampled_rss_kb() -> int:
    """Current (not high-water) resident set, in kB; 0 off-Linux."""
    import os

    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE") // 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0


def _memory_probe(variant: str, smoke: bool, steps: int) -> dict:
    """Run ``steps`` SSL steps under one allocation regime; report memory.

    Meant to run in a *fresh* subprocess (one per variant) so the numbers
    are attributable to the variant.  ``tracemalloc`` tracks numpy buffer
    allocations too (numpy registers its data allocations with the
    tracemalloc domain), so the traced peak measures exactly the
    transient allocations of the measured steps: a warm planned replay
    should add almost nothing.

    Two resident-set numbers, because they answer different questions:
    ``ru_maxrss_kb`` is the process-lifetime high-water mark — the eager
    warm-up capture step sets it for every variant, so it mostly reflects
    the *capture* footprint; ``peak_rss_kb`` samples current RSS across
    the measured steady-state window, which is where planned replay's
    slab sharing shows (freed transients are mmap-returned at these
    shapes, so current RSS tracks the live set).
    """
    import contextlib
    import resource
    import tracemalloc

    from repro.tensor import memplan

    if variant not in ("eager", "unplanned", "planned"):
        raise ValueError(f"unknown memory-bench variant {variant!r}")
    guard = memplan.no_planning() if variant == "unplanned" \
        else contextlib.nullcontext()
    shapes = None if smoke else MEMORY_BENCH_SHAPES
    with guard:
        step, _ = build_ssl_step(smoke=smoke, use_tape=variant != "eager",
                                 shapes=shapes)
        # Warmup covers capture (1), the observation replay (2) and the
        # first planned replay (3); from step 4 on the regime is steady.
        for _ in range(3):
            step()
        _malloc_trim()
        before = memplan.stats_snapshot()
        peak_rss = _sampled_rss_kb()
        tracemalloc.start()
        for _ in range(steps):
            step()
            peak_rss = max(peak_rss, _sampled_rss_kb())
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        after = memplan.stats_snapshot()
    delta = {key: after[key] - before[key] for key in after}
    # Planner-visible allocator traffic: fresh op-output arrays on the
    # replay path plus scratch-cache misses plus helper allocations.
    # (Eager dispatch allocates outside the planner's accounting, so this
    # counter only compares like-for-like between the two tape regimes;
    # the tracemalloc peak covers all three.)
    alloc_calls = (delta["fallback_outputs"] + delta["cache_misses"]
                   + delta["helper_allocs"])
    return {
        "variant": variant,
        "steps": steps,
        "tracemalloc_peak_kb": round(peak / 1024.0, 1),
        "peak_rss_kb": peak_rss,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "planner_alloc_calls": alloc_calls,
        "planner_alloc_calls_per_step": round(alloc_calls / steps, 2),
        "stats_delta": delta,
    }


def memory_bench(*, smoke: bool = False, steps: int | None = None) -> dict:
    """Allocator-call counts and peak memory: eager vs unplanned vs planned.

    Each variant runs in its own subprocess so ``ru_maxrss`` is a clean
    per-variant number.  ``unplanned`` replays the tape with the memory
    planner disabled (the pre-PR-8 allocation regime: one fresh array per
    op output per step); ``planned`` replays against the arena.
    """
    import json
    import os
    import subprocess
    import sys

    import repro

    steps = steps or MEMORY_BENCH_STEPS["smoke" if smoke else "full"]
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    driver = ("import sys, json; from repro.bench.suites import _memory_probe; "
              "print(json.dumps(_memory_probe(sys.argv[1], sys.argv[2] == '1', "
              "int(sys.argv[3]))))")
    results = {}
    for variant in ("eager", "unplanned", "planned"):
        proc = subprocess.run(
            [sys.executable, "-c", driver, variant,
             "1" if smoke else "0", str(steps)],
            capture_output=True, text=True, env=env, timeout=600, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"memory bench variant {variant!r} failed:\n"
                               f"{proc.stderr[-2000:]}")
        results[variant] = json.loads(proc.stdout.strip().splitlines()[-1])

    planned, unplanned = results["planned"], results["unplanned"]

    def _reduction(metric: str) -> float:
        base = unplanned[metric]
        return round(1.0 - planned[metric] / base, 4) if base else 0.0

    return {
        "config": {"smoke": smoke, "steps": steps, "backbone": "mlp",
                   "objective": "simsiam"},
        "variants": results,
        "planned_vs_unplanned": {
            "alloc_calls_reduction": _reduction("planner_alloc_calls"),
            "tracemalloc_peak_reduction": _reduction("tracemalloc_peak_kb"),
            "peak_rss_reduction": _reduction("peak_rss_kb"),
            "ru_maxrss_reduction": _reduction("ru_maxrss_kb"),
        },
    }


def run_suite(*, smoke: bool = False, repeats: int | None = None) -> dict:
    """Run every bench; return one JSON-serializable report."""
    return {
        "suite": "repro-bench-pr9",
        "mode": "smoke" if smoke else "full",
        "ops": op_microbenches(smoke=smoke, repeats=repeats),
        "ssl_step": ssl_step_bench(smoke=smoke, repeats=repeats),
        "tape": tape_replay_bench(smoke=smoke, repeats=repeats),
        "memory": memory_bench(smoke=smoke),
        "eval_probe": eval_probe_bench(smoke=smoke, repeats=repeats),
    }


def format_report(report: dict) -> str:
    """Render a suite report as an aligned plain-text table."""
    from repro.utils import format_table

    rows = []
    for name, entry in report["ops"].items():
        rows.append([name,
                     f"{entry['fused']['median_s'] * 1e6:.1f}",
                     f"{entry['unfused']['median_s'] * 1e6:.1f}",
                     f"{entry['speedup']:.2f}x"])
    lines = [format_table(["op (fwd+bwd)", "fused us", "unfused us", "speedup"],
                          rows, title=f"op microbenches ({report['mode']})")]
    ssl = report["ssl_step"]
    lines.append("")
    lines.append(f"SSL step (simsiam/mlp, batch {ssl['config']['batch']}): "
                 f"fused {ssl['fused']['median_s'] * 1e3:.2f} ms, "
                 f"unfused {ssl['unfused']['median_s'] * 1e3:.2f} ms "
                 f"({ssl['speedup_fused_vs_unfused']:.2f}x)")
    if "speedup_vs_pre_refactor" in ssl:
        verdict = ("PASS" if ssl["speedup_vs_pre_refactor"] >= ssl["required_speedup"]
                   else "FAIL")
        lines.append(f"vs pre-refactor engine "
                     f"({ssl['pre_refactor_reference']['median_s'] * 1e3:.2f} ms): "
                     f"{ssl['speedup_vs_pre_refactor']:.2f}x "
                     f"(required >= {ssl['required_speedup']:.1f}x) [{verdict}]")
    tape = report.get("tape")
    if tape is not None:
        lines.append("")
        lines.append(f"tape replay (same step): "
                     f"eager {tape['eager']['median_s'] * 1e3:.2f} ms, "
                     f"replayed {tape['replay']['median_s'] * 1e3:.2f} ms "
                     f"({tape['speedup_replay_vs_eager']:.2f}x)")
        if "required_speedup" in tape:
            verdict = ("PASS" if tape["speedup_replay_vs_eager"] >= tape["required_speedup"]
                       else "FAIL")
            lines.append(f"tape acceptance: required >= "
                         f"{tape['required_speedup']:.1f}x [{verdict}]")
    memory = report.get("memory")
    if memory is not None:
        lines.append("")
        rows = []
        for name, entry in memory["variants"].items():
            rows.append([name,
                         f"{entry['planner_alloc_calls_per_step']:.1f}",
                         f"{entry['tracemalloc_peak_kb']:.0f}",
                         f"{entry['peak_rss_kb']}",
                         f"{entry['ru_maxrss_kb']}"])
        lines.append(format_table(
            ["variant", "alloc calls/step", "traced peak kB",
             "steady RSS kB", "max RSS kB"],
            rows, title=f"memory ({memory['config']['steps']} steps, "
                        f"fresh process per variant)"))
        red = memory["planned_vs_unplanned"]
        lines.append(f"planned vs unplanned: allocator calls "
                     f"-{red['alloc_calls_reduction'] * 100:.1f}%, traced peak "
                     f"-{red['tracemalloc_peak_reduction'] * 100:.1f}%, steady "
                     f"RSS -{red['peak_rss_reduction'] * 100:.1f}%")
    probe = report.get("eval_probe")
    if probe is not None:
        cfg = probe["config"]
        lines.append("")
        lines.append(f"eval probe ({cfg['n_train']}x{cfg['dim']} reps, "
                     f"{cfg['n_classes']} classes): "
                     f"sgd-linear {probe['linear']['median_s'] * 1e3:.2f} ms, "
                     f"ridge {probe['ridge']['median_s'] * 1e3:.2f} ms "
                     f"({probe['speedup_ridge_vs_linear']:.1f}x); accuracy "
                     f"{probe['linear_accuracy']:.4f} vs "
                     f"{probe['ridge_accuracy']:.4f} "
                     f"(delta {probe['accuracy_delta']:.4f})")
        merge = probe["shard_merge"]
        merge_verdict = ("identical" if merge["identical_across_worker_counts"]
                         else "MISMATCH")
        lines.append(f"statistics shard-merge across workers "
                     f"{merge['worker_counts']}: {merge_verdict}")
        if "required_speedup" in probe:
            verdict = ("PASS" if probe["speedup_ridge_vs_linear"]
                       >= probe["required_speedup"]
                       and probe["accuracy_delta"] <= probe["max_accuracy_delta"]
                       and merge["identical_across_worker_counts"] else "FAIL")
            lines.append(f"probe acceptance: required >= "
                         f"{probe['required_speedup']:.0f}x, accuracy delta <= "
                         f"{probe['max_accuracy_delta']:.2f}, merge identical "
                         f"[{verdict}]")
    return "\n".join(lines)


__all__ = [
    "MEMORY_BENCH_STEPS",
    "PRE_REFACTOR_REFERENCE",
    "PROBE_BENCH_WORKER_COUNTS",
    "PROBE_MAX_ACCURACY_DELTA",
    "REQUIRED_SPEEDUP",
    "RIDGE_REQUIRED_SPEEDUP",
    "TAPE_REQUIRED_SPEEDUP",
    "BenchTiming",
    "build_ssl_step",
    "eval_probe_bench",
    "format_report",
    "memory_bench",
    "op_microbenches",
    "run_suite",
    "ssl_step_bench",
    "tape_replay_bench",
]
