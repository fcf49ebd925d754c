"""One benchmark run: a single workload, once, in this process.

Launched by :mod:`benchmarks.e2e.run` as a fresh interpreter per run::

    PYTHONPATH=src python -m benchmarks.e2e.child --workload edsr-image --seed 0

It repeats :func:`repro.scenarios.registry.run_scenario_method`'s
construction order through the public API, so set-up (``import repro``
through trainer construction) and the run (``trainer.run``) are timed
apart while the code path stays the one users get.  With ``--trace-out``
the layer wrappers of :mod:`benchmarks.e2e.trace` are installed after
set-up and the spans are written to that file after the run.  The last
line of standard output is the run's JSON record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import sys
import time
import traceback

from benchmarks.e2e.trace import Tracer, installed_wrappers
from benchmarks.e2e.workloads import SMOKE_EPOCHS, WORKLOADS


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    Linux keeps ``ru_maxrss`` across ``exec``, so a child would inherit the
    runner's high-water mark; ``VmHWM`` belongs to the process image and
    starts afresh at ``exec``.  ``ru_maxrss`` is the fallback elsewhere.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(name: str, seed: int, smoke: bool, work_dir: pathlib.Path | None,
             trace_out: pathlib.Path | None) -> dict:
    """Set up and run workload ``name``; returns the run's record."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    import numpy as np

    from repro.continual import (ContinualConfig, ContinualTrainer,
                                 build_objective, make_method)
    from repro.data import load_image_benchmark, load_tabular_benchmark
    from repro.scenarios import build_stream

    overrides = dict(workload.config, scenario_seed=seed)
    if smoke:
        overrides["epochs"] = SMOKE_EPOCHS
    config = ContinualConfig().with_overrides(**overrides)
    if workload.data == "image":
        sequence = load_image_benchmark("cifar10-like", "ci")
    else:
        sequence = load_tabular_benchmark("ci")
    stream = build_stream(config.scenario, sequence, config)
    rng = np.random.default_rng(seed)
    objective = build_objective(config, stream.sample_shape, rng)
    method = make_method(workload.method, objective, config, rng)
    checkpoint_dir = work_dir if workload.checkpoints else None
    trainer = ContinualTrainer(method, config, rng, checkpoint_dir=checkpoint_dir)
    setup_s = time.perf_counter() - start

    tracer = None
    if trace_out is not None:
        tracer = Tracer(run_id=f"{name}-seed{seed}")
        tracer.install()
    start = time.perf_counter()
    result = trainer.run(stream)
    run_s = time.perf_counter() - start
    peak_mb = peak_rss_mb()

    manifest_sha256 = None
    if trainer.checkpoints is not None:
        # Manifests also carry wall-clock fields, so only the per-array
        # checksums of the last one are compared, never the raw bytes.
        last = trainer.checkpoints.manifest_paths()[-1]
        checksums = json.loads(last.read_text(encoding="utf-8"))["checksums"]
        manifest_sha256 = _sha256_json(checksums)
    matrix = np.ascontiguousarray(result.accuracy_matrix, dtype=np.float64)
    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "traced": tracer is not None,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_mb,
        "acc_pct": 100.0 * result.acc(),
        "fgt_pct": 100.0 * result.fgt(),
        "matrix_sha256": hashlib.sha256(matrix.tobytes()).hexdigest(),
        "manifest_sha256": manifest_sha256,
        "wrappers": installed_wrappers(),
    }
    if tracer is not None:
        tracer.write(trace_out)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", type=pathlib.Path,
                        help="empty directory for checkpoints")
    parser.add_argument("--trace-out", type=pathlib.Path,
                        help="trace this run and write its spans here")
    args = parser.parse_args(argv)
    try:
        record = run_once(args.workload, args.seed, args.smoke, args.work_dir,
                          args.trace_out)
    except Exception:  # the runner reports it and counts the run as failed
        print(json.dumps({"error": traceback.format_exc(limit=8)}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
