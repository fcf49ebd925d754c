"""Run the end-to-end continual-run benchmark.

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 0
    python3 benchmarks/e2e/run.py --workload edsr-image --seed 0 --seconds 15 --trace 0

One sequential runner launches a fresh child interpreter per run
(:mod:`benchmarks.e2e.child`), one after another, each with one BLAS/OpenMP
thread.  Each workload runs ``--repeats`` untraced times (or, with
``--seconds``, until that many seconds have passed and at least
``MIN_TIMED_REPEATS`` runs are done), then once traced unless ``--trace 0``.
End-to-end metrics come from the untraced runs only; per-layer metrics come
from the traced run's span file.

The command prints every metric by name with its unit, applies the
correctness gate (same digests across repeats at one seed, accuracy floors),
writes everything to ``--out`` as JSON, and exits 1 on any failure.  With a
single ``--workload`` its last stdout line is the JSON summary
``{"correct", "attempted", "failed", "metrics"}`` over the metrics that
``BENCHMARK.json`` lists: ``end_to_end`` medians for ``--trace 0``,
``per_layer`` values for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
if not __package__:
    # Run as a file: import the package from the checkout root, not from
    # this directory, whose module names would shadow the standard library.
    sys.path[0] = str(ROOT)

from benchmarks.e2e.trace import (LAYER_METRICS, layer_metrics,  # noqa: E402
                                  read_spans, summarize)
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: One thread per BLAS/OpenMP pool in every child: runs go one at a time,
#: so the runner never uses more threads than the host has cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: End-to-end metrics and their units.  ``BENCHMARK.json`` lists those that
#: are never 0; ``fgt_pct`` and ``fail_rate`` can be, and are compared with
#: the absolute bounds in :mod:`benchmarks.e2e.compare`.
E2E_METRICS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
               "acc_pct": "pts", "fgt_pct": "pts", "fail_rate": "ratio"}

#: Fewest untraced runs behind a median in ``--seconds`` mode.
MIN_TIMED_REPEATS = 3
CHILD_TIMEOUT_S = 150
WORK_DIR = ROOT / ".bench_e2e"


def load_spec() -> dict:
    """``BENCHMARK.json`` at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit(root: pathlib.Path) -> str | None:
    """The checked-out commit, read from ``.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    """What two result files must share to be comparable (plus the commit)."""
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def launch(workload: str, seed: int, smoke: bool,
           trace_out: pathlib.Path | None = None) -> dict:
    """Run one child to completion; its record, or ``{"error": ...}``."""
    env = dict(os.environ, **THREAD_ENV)
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH", ""))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        command = [sys.executable, "-m", "benchmarks.e2e.child",
                   "--workload", workload, "--seed", str(seed),
                   "--work-dir", scratch]
        if smoke:
            command.append("--smoke")
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        try:
            proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if proc.returncode != 0 and "error" not in record:
        record["error"] = f"exit {proc.returncode}"
    return record


def gate(records: list[dict], acc_floor: float | None) -> list[str | None]:
    """The correctness gate: one failure reason (or ``None``) per record.

    Every run at one seed must produce the first good run's accuracy-matrix
    digest and, when it checkpoints, its last-manifest checksum digest; its
    ``acc_pct`` must be finite and, unless ``acc_floor`` is ``None``, at
    least the floor.
    """
    reference = next((r for r in records if "error" not in r), None)
    reasons = []
    for record in records:
        if "error" in record:
            reason = "exception: " + record["error"].strip().splitlines()[-1]
        elif not math.isfinite(record["acc_pct"]):
            reason = "divergence: acc_pct is not finite"
        elif (record["matrix_sha256"] != reference["matrix_sha256"]
              or record["manifest_sha256"] != reference["manifest_sha256"]):
            reason = "digest mismatch with the first run at this seed"
        elif acc_floor is not None and record["acc_pct"] < acc_floor:
            reason = f"acc_pct {record['acc_pct']:.2f} below floor {acc_floor}"
        else:
            reason = None
        reasons.append(reason)
    return reasons


def spread(values: list[float]) -> dict:
    """Median, sample quartiles and count of one metric over untraced runs.

    Quartiles use the ``inclusive`` method (numpy's default): with five
    runs the ``exclusive`` one extrapolates toward the extremes.
    """
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def measure(name: str, args) -> dict:
    """All runs of one workload, gated and summarized."""
    records = []
    start = time.monotonic()
    while True:
        records.append(launch(name, args.seed, args.smoke))
        if args.seconds is None:
            if len(records) >= args.repeats:
                break
        elif (len(records) >= MIN_TIMED_REPEATS
              and time.monotonic() - start >= args.seconds):
            break
    untraced = [r for r in records if "error" not in r]
    trace_path = None
    if args.trace:
        trace_path = WORK_DIR / "traces" / f"{name}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        records.append(launch(name, args.seed, args.smoke, trace_path))

    workload = WORKLOADS[name]
    reasons = gate(records, None if args.smoke else workload.acc_floor)
    failed = sum(reason is not None for reason in reasons)
    out = {
        "attempted": len(records),
        "failed": failed,
        "failures": [{"run": i, "traced": records[i].get("traced", False),
                      "reason": reason}
                     for i, reason in enumerate(reasons) if reason],
        "runs": records,
        "end_to_end": {},
        "per_layer": {},
    }
    if untraced:
        for metric in ("setup_s", "run_s", "peak_rss_mb", "acc_pct", "fgt_pct"):
            out["end_to_end"][metric] = spread([r[metric] for r in untraced])
        rate = failed / len(records)
        out["end_to_end"]["fail_rate"] = spread([rate]) | {"n": len(records)}
    traced = records[-1] if args.trace else None
    if traced is not None and "error" not in traced and untraced:
        spans, counters = read_spans(trace_path)
        out["per_layer"] = layer_metrics(spans, counters, traced["run_s"],
                                         out["end_to_end"]["run_s"]["median"])
        out["spans"] = summarize(spans)
        out["traced_run_s"] = traced["run_s"]
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_workload(name: str, result: dict) -> None:
    print(f"{name}: {result['attempted']} runs, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAIL run {failure['run']}: {failure['reason']}")
    for metric, stats in result["end_to_end"].items():
        print(f"  {metric:<12} {stats['median']:12.4f} {E2E_METRICS[metric]:<5}"
              f" q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}")
    for metric, value in result["per_layer"].items():
        print(f"  {metric:<32} {value:14.4f} {LAYER_METRICS[metric]}")


def summary_line(result: dict, spec: dict, traced: bool) -> dict | None:
    """The one-line JSON summary for a single workload, if it has values."""
    if traced:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        source = result["per_layer"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        source = {k: v["median"] for k, v in result["end_to_end"].items()}
    if not all(name in source for name in wanted):
        return None
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": source[name], "unit": unit}
                        for name, unit in wanted.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end continual-run benchmark.")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="training seed and scenario seed")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced runs per workload")
    parser.add_argument("--seconds", type=float,
                        help="run untraced repeats for this long instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        nargs="?", const=1,
                        help="add one traced run per workload (default 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="one epoch per task; accuracy floors not applied")
    parser.add_argument("--out", type=pathlib.Path,
                        help="result JSON (default .bench_e2e/e2e-seed<N>.json)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = args.workload or list(WORKLOADS)
    WORK_DIR.mkdir(exist_ok=True)
    report = {"environment": environment(args), "workloads": {}}
    for name in names:
        result = measure(name, args)
        report["workloads"][name] = result
        print_workload(name, result)
    failed = sum(r["failed"] for r in report["workloads"].values())
    attempted = sum(r["attempted"] for r in report["workloads"].values())
    report["fail_rate"] = failed / attempted
    out = args.out or WORK_DIR / f"e2e-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if len(names) == 1:
        line = summary_line(report["workloads"][names[0]], spec, bool(args.trace))
        if line is not None:
            print(json.dumps(line))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
