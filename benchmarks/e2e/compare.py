#!/usr/bin/env python3
"""Compare two sets of e2e results, metric by metric.

``python benchmarks/e2e/compare.py BASE CHANGE`` where each side is a
result file written by ``run.py --out`` or a directory of them (repeated
runs).  One row per workload × end-to-end metric: both medians with
their quartiles, the ratio ``change / base`` (the base is the left-hand
side), and a verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread of either side (interquartile
  range over median) is wider than the metric's bound, unless every run
  of one side beats every run of the other;
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``within-bound`` — otherwise.

The exit code is 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> list[dict[str, Any]]:
    """The result documents of one side (a file, or every ``*.json`` of a
    directory)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"{path}: no result files")
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def check_comparable(base: list[dict[str, Any]], change: list[dict[str, Any]]) -> None:
    """Smoke and full records measure different graphs and sizes."""
    modes = {run["env"]["mode"] for run in (*base, *change)}
    seconds = {run["seconds"] for run in (*base, *change)}
    if len(modes) > 1 or len(seconds) > 1:
        raise SystemExit(
            f"not comparable: modes {sorted(modes)}, --seconds {sorted(seconds)}"
        )


def metric_values(runs: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    values = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
        if entry is not None:
            values.append(float(entry["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """``better`` / ``worse`` / ``within-bound`` / ``unresolved``."""
    sign = 1.0 if better == "higher" else -1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    gain = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if max(spread(base), spread(change)) > bound:
        # Too noisy to call, unless the two sides do not even overlap.
        good_base = [sign * v for v in base]  # larger is better on both
        good_change = [sign * v for v in change]
        if min(good_change) > max(good_base):
            return "better"
        if max(good_change) < min(good_base):
            return "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "within-bound"


def compare(
    base: list[dict[str, Any]], change: list[dict[str, Any]], spec: dict[str, Any]
) -> list[dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = metric_values(base, workload, metric["name"])
            b = metric_values(change, workload, metric["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "base": qa,
                    "change": qb,
                    "runs": (len(a), len(b)),
                    "ratio": qb[1] / qa[1] if qa[1] else float("nan"),
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    header = (
        f"{'workload':22s} {'metric':30s} {'base median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'change/base':>11s} {'bound':>6s}  verdict"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        a, b = r["base"], r["change"]
        lines.append(
            f"{r['workload']:22s} {r['metric'] + ' (' + r['unit'] + ')':30s} "
            f"{a[1]:12.5g} [{a[0]:9.5g},{a[2]:9.5g}] "
            f"{b[1]:12.5g} [{b[0]:9.5g},{b[2]:9.5g}] "
            f"{r['ratio']:11.4f} {r['bound']:6.2f}  {r['verdict']}"
            f" (n={r['runs'][0]}/{r['runs'][1]})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="result file or directory (the ratio's base)")
    parser.add_argument("change", type=Path, help="result file or directory")
    parser.add_argument(
        "--spec", type=Path, default=ROOT / "BENCHMARK.json",
        help="metric names, directions and bounds (default: the repo's BENCHMARK.json)",
    )
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    base, change = load_runs(args.base), load_runs(args.change)
    check_comparable(base, change)
    rows = compare(base, change, spec)
    print(render(rows))
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("\n" + ", ".join(f"{v}: {n}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
