"""Compare two result files of :mod:`benchmarks.e2e.run`, pair by pair.

    python -m benchmarks.e2e.compare BASE.json CHANGE.json

For every (end-to-end metric, workload) pair it prints one verdict:

- ``better`` / ``worse``: the change's median moved past the bound;
- ``same``: the medians are within the bound of each other;
- ``unresolved``: a side's spread (q3 - q1) is wider than the bound, so the
  medians cannot decide; it still reads ``better`` when every run of the
  change beats every run of the base.

Bounds come from ``BENCHMARK.json`` as a share of the base median.  The
metrics it cannot list because they can read 0 have the absolute bounds of
:data:`ABSOLUTE_BOUNDS`.  Files whose environments differ (other than the
commit) are refused, exit 2; any ``worse`` pair exits 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: ``(better, bound)`` in the metric's own unit, for metrics that can be 0.
ABSOLUTE_BOUNDS = {"acc_pct": ("higher", 1.0), "fgt_pct": ("lower", 1.0),
                   "fail_rate": ("lower", 0.0)}

#: Environment fields two result files must share to be compared.
COMPARABLE = ("python", "numpy", "blas_threads", "nproc", "seed", "repeats",
              "seconds", "trace", "smoke")


def bounds(spec: dict) -> dict[str, tuple[str, float, bool]]:
    """``metric -> (better, bound, relative)``."""
    table = {m["name"]: (m["better"], m["bound"], True)
             for m in spec["end_to_end"]}
    for name, (better, bound) in ABSOLUTE_BOUNDS.items():
        table.setdefault(name, (better, bound, False))
    return table


def verdict(base: dict, change: dict, better: str, bound: float,
            relative: bool) -> str:
    """One pair's verdict from the two sides' median/q1/q3/values."""
    sign = 1.0 if better == "lower" else -1.0  # worse is positive
    scale = abs(base["median"]) if relative else 1.0
    delta = sign * (change["median"] - base["median"]) / scale
    width = max(base["q3"] - base["q1"], change["q3"] - change["q1"]) / scale
    if width > bound:
        if all(sign * (c - b) < 0 for b in base["values"]
               for c in change["values"]):
            return "better"
        return "unresolved"
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "same"


def compare(base: dict, change: dict, spec: dict) -> list[tuple]:
    """``(workload, metric, base median, change median, verdict)`` rows."""
    rows = []
    for workload, base_result in base["workloads"].items():
        change_result = change["workloads"].get(workload, {})
        for metric, (better, bound, relative) in bounds(spec).items():
            a = base_result.get("end_to_end", {}).get(metric)
            b = change_result.get("end_to_end", {}).get(metric)
            if a is None or b is None:
                rows.append((workload, metric, a and a["median"],
                             b and b["median"], "unresolved"))
                continue
            rows.append((workload, metric, a["median"], b["median"],
                         verdict(a, b, better, bound, relative)))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    change = json.loads(args.change.read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    differing = [field for field in COMPARABLE
                 if base["environment"].get(field) != change["environment"].get(field)]
    if differing:
        for field in differing:
            print(f"not comparable: {field} is {base['environment'].get(field)!r}"
                  f" vs {change['environment'].get(field)!r}")
        return 2
    print(f"base   {base['environment'].get('commit')}\n"
          f"change {change['environment'].get('commit')}")
    rows = compare(base, change, spec)
    for workload, metric, a, b, result in rows:
        a_text = "-" if a is None else f"{a:.4f}"
        b_text = "-" if b is None else f"{b:.4f}"
        print(f"{workload:<15} {metric:<12} {a_text:>12} {b_text:>12}  {result}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
