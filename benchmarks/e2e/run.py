#!/usr/bin/env python3
"""One wall-clock benchmark of the full serving stack.

``python benchmarks/e2e/run.py --seed 0`` runs the six workloads, each
in a fresh subprocess, and prints every metric by name with its unit;
``--workload NAME --trace 0|1`` runs one workload and prints one result
object on the last line of standard output (the form a benchmark driver
reads): ``--trace 0`` the end-to-end metrics of an untraced run,
``--trace 1`` the per-layer metrics of a traced run.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures the repo's own source")
# The harness pins the data scale; a caller's setting must not resize the graph.
os.environ["REPRO_SCALE"] = "1.0"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.bench import kernel_backend_info  # noqa: E402
from harness import (  # noqa: E402
    CHECK_ROWS,
    EXACT_ROWS,
    Tally,
    check_served,
    closed_phase,
    median,
    OpenResult,
    open_segment,
    peak_rss_mb,
    update_phase,
    warm_up,
)
from layers import (  # noqa: E402
    PER_LAYER_UNITS,
    Counters,
    TracedRun,
    instrument,
    instrument_engines,
    layer_metrics,
    run_probes,
)
from trace import Proxies, Recorder  # noqa: E402
from workloads import (  # noqa: E402
    CLOSED_BLOCKS,
    OPEN_SEGMENTS,
    REFERENCE_SECONDS,
    TRACED_BLOCKS,
    WORKLOADS,
    Deployment,
    Sizes,
    Workload,
    build_router,
    build_service,
    edge_updates,
    request_stream,
    set_up,
    sizes_for,
    stop_started_processes,
)

END_TO_END_UNITS = {
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "update_p50_ms": "ms",
    "wire_bytes_per_query": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Stream tags: one seeded stream per phase, the same for a given --seed.
_WARM, _CLOSED, _OPEN, _FINAL, _REFERENCE = range(5)


def _environment(seed: int, smoke: bool) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a source checkout without history
    return {
        "commit": commit,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "REPRO_SCALE": os.environ["REPRO_SCALE"],
        "mode": "smoke" if smoke else "full",
        **kernel_backend_info(),
    }


def _set_up_checked(
    w: Workload, sizes: Sizes, seed: int, tally: Tally, built: Deployment | None = None
) -> Deployment:
    """Set up (timed), then check the warm-up answers (untimed)."""
    pairs: list[Any] = []

    def warm(dep: Deployment) -> None:
        nodes = request_stream(w, dep.num_nodes, sizes.warmup_requests, seed, _WARM)
        pairs.extend(warm_up(dep, nodes, tally, seed))

    dep = set_up(w, sizes, warm, built=built)
    check_served(dep, pairs, tally)
    return dep


def _closed(
    dep: Deployment, sizes: Sizes, seed: int, tally: Tally, blocks: int, tag: int, **kw: Any
) -> Any:
    stream = request_stream(
        dep.workload, dep.num_nodes, sizes.block_requests * blocks, seed, tag
    )
    return closed_phase(dep, stream, blocks, tally, seed=seed, **kw)


def _open_segments(
    dep: Deployment, sizes: Sizes, seed: int, tally: Tally, segments: int
) -> tuple[OpenResult, Any]:
    """The open phase's result and a ``run_next()`` that runs its next
    segment (each segment is its own drained schedule)."""
    w = dep.workload
    stream = request_stream(w, dep.num_nodes, sizes.open_requests, seed, _OPEN)
    pieces = iter(np.array_split(stream, segments))
    result = OpenResult(rate=w.open_rate)

    def run_next() -> None:
        open_segment(
            dep, next(pieces), result, tally,
            seed=seed + len(result.lateness),
            check_rows=max(EXACT_ROWS, -(-CHECK_ROWS // segments)),
        )

    return result, run_next


def _final_check(dep: Deployment, sizes: Sizes, seed: int, tally: Tally) -> None:
    """After the last update: serve a fresh sample through the stack and
    check it against the post-update engine and graph."""
    one_batch = dataclasses.replace(sizes, block_requests=dep.workload.max_batch)
    _closed(dep, one_batch, seed, tally, 1, _FINAL)


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def untraced_run(
    w: Workload, seed: int, seconds: float, smoke: bool
) -> tuple[dict[str, float], Tally, dict[str, Any], Deployment]:
    sizes = sizes_for(w, seconds, smoke=smoke, traced=False)
    tally = Tally()
    setups: list[dict[str, float]] = []
    dep: Deployment | None = None
    for _ in range(sizes.setup_repeats):
        if dep is not None:
            dep.close()
            dep = None  # free the previous index before building the next
        dep = _set_up_checked(w, sizes, seed, tally)
        setups.append(dep.timings)
    assert dep is not None
    try:
        updates = edge_updates(
            dep.graph, sizes.interleaved_updates + sizes.tail_updates, seed
        )
        every = CLOSED_BLOCKS // sizes.interleaved_updates if sizes.interleaved_updates else 0
        opened, after_block = None, None
        if sizes.open_requests:
            opened, next_segment = _open_segments(dep, sizes, seed, tally, OPEN_SEGMENTS)
            stride = CLOSED_BLOCKS // OPEN_SEGMENTS

            def after_block(b: int) -> None:
                if (b + 1) % stride == 0:
                    next_segment()

        closed = _closed(
            dep, sizes, seed, tally, CLOSED_BLOCKS, _CLOSED,
            updates=updates[: sizes.interleaved_updates], update_every=every,
            after_block=after_block,
        )
        tail_walls, _ = update_phase(dep, updates[sizes.interleaved_updates :], tally)
        if updates:
            _final_check(dep, sizes, seed, tally)
        update_walls = closed.update_walls + tail_walls
    finally:
        dep.close()
    rss = peak_rss_mb(dep)

    if opened is not None:
        p50s, p99s = opened.segment_p50_ms, opened.segment_p99_ms
    else:  # the offline client's latency is its call time, per block
        p50s = [float(np.percentile(c, 50)) * 1e3 for c in closed.call_seconds]
        p99s = [float(np.percentile(c, 99)) * 1e3 for c in closed.call_seconds]
    metrics = {
        # All closed-loop requests over all block time.  The sandbox's
        # speed moves in bursts of seconds, so a median of ten block rates
        # flips between the two speeds from run to run while the
        # time-weighted mean moves with the mix: measured spread across
        # seeds 9-13% against 12-18% (README, "Steadiness").
        "qps": closed.read_rate if closed.block_walls else 0.0,
        "p50_ms": median(p50s),
        "p99_ms": median(p99s),
        "update_p50_ms": median(update_walls) * 1e3,
        "wire_bytes_per_query": closed.wire_bytes / max(1, closed.requests),
        "setup_s": median([s["setup_s"] for s in setups]),
        "peak_rss_mb": rss,
    }
    unresolved = []
    if opened is not None and opened.lateness and opened.saturated:
        unresolved.append(
            f"open loop saturated (backlog_end={opened.backlog_end}, "
            f"gen_late_ms_p99={opened.gen_late_ms_p99:.2f}): p50_ms/p99_ms unresolved"
        )
    if w.process_pool and len(os.sched_getaffinity(0)) < 2:
        unresolved.append("process pool on fewer than 2 CPUs: qps/p50_ms/p99_ms unresolved")
    detail = {
        "sizes": dataclasses.asdict(sizes),
        "qps_block_rates": closed.block_rates,
        "qps_quartiles": (
            statistics.quantiles(closed.block_rates, n=4) if len(closed.block_rates) > 1 else None
        ),
        "segment_p50_ms": p50s,
        "segment_p99_ms": p99s,
        "update_walls_ms": [x * 1e3 for x in update_walls],
        "setup_runs": setups,
        "open_rate": w.open_rate,
        "gen_late_ms_p99": opened.gen_late_ms_p99 if opened and opened.lateness else None,
        "backlog_end": opened.backlog_end if opened and opened.lateness else None,
        "unresolved": unresolved,
    }
    return metrics, tally, detail, dep


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------
def _serial_reference_qps(dep: Deployment, sizes: Sizes, seed: int) -> float:
    """One traced block of the same stream on a serial twin of a
    process-pool deployment (``backend=None``): the base of the speed-up."""
    w = dep.workload
    router = build_router(w, dep.index, dep.index, pool=None)
    twin = Deployment(
        workload=w, graph=dep.graph, index=dep.index,
        router=router, service=build_service(w, router),
    )
    scratch = Tally()
    nodes = request_stream(w, twin.num_nodes, sizes.warmup_requests, seed, _WARM)
    warm_up(twin, nodes, scratch, seed)
    px = Proxies(Recorder())
    instrument(twin, px, [])
    try:
        result = _closed(twin, sizes, seed, scratch, 1, _CLOSED)
    finally:
        px.restore()
    return median(result.block_rates)


def traced_run(
    w: Workload,
    seed: int,
    seconds: float,
    smoke: bool,
    trace_out: str | None,
    built: Deployment | None = None,
) -> tuple[dict[str, float], Tally]:
    sizes = sizes_for(w, seconds, smoke=smoke, traced=True)
    tally = Tally()
    dep = _set_up_checked(w, sizes, seed, tally, built)
    rec = Recorder()
    px = Proxies(rec)
    payloads: list[Any] = []
    counters: dict[str, Counters] = {}
    resume_phase = ""
    try:
        # Untraced blocks on this very deployment: the base of the overhead.
        reference = _closed(dep, sizes, seed, tally, TRACED_BLOCKS, _REFERENCE)
        instrument(dep, px, payloads)

        def update_hook(stage: str) -> None:
            nonlocal resume_phase
            if stage == "before":
                resume_phase, rec.phase = rec.phase, "update"
            else:
                rec.phase = resume_phase
                instrument_engines(dep, px)  # the update swapped index objects

        updates = edge_updates(
            dep.graph, sizes.interleaved_updates + sizes.tail_updates, seed
        )
        counters["start"] = Counters.read(dep)
        rec.phase = "closed"
        closed = _closed(
            dep, sizes, seed, tally, TRACED_BLOCKS, _CLOSED,
            updates=updates[: sizes.interleaved_updates],
            update_every=1 if sizes.interleaved_updates else 0,
            update_hook=update_hook,
        )
        counters["closed"] = Counters.read(dep)
        opened = None
        if sizes.open_requests:
            rec.phase = "open"
            opened, next_segment = _open_segments(dep, sizes, seed, tally, 1)
            next_segment()
        counters["open"] = Counters.read(dep)
        rec.phase = "tail"
        _, tail_receipts = update_phase(
            dep, updates[sizes.interleaved_updates :], tally, update_hook
        )
        counters["end"] = Counters.read(dep)
        arena_bytes = dep.arena_bytes()
        px.restore()
        serial_qps = _serial_reference_qps(dep, sizes, seed) if w.process_pool else 0.0
        probe_nodes = request_stream(w, dep.num_nodes, 256, seed, _CLOSED)
        run = TracedRun(
            recorder=rec,
            reference_rates=reference.block_rates,
            closed=closed,
            opened=opened,
            counters=counters,
            receipts=closed.receipts + tail_receipts,
            arena_bytes=arena_bytes,
            serial_ref_qps=serial_qps,
            probes=run_probes(dep, probe_nodes, payloads),
            failed_share=tally.failed_share,
        )
        metrics = layer_metrics(dep, run)
    finally:
        px.restore()
        dep.close()
    if trace_out:
        rec.write_jsonl(f"{trace_out}.{w.name}.jsonl")
        rec.write_chrome_trace(f"{trace_out}.{w.name}.trace.json")
    return metrics, tally


# ----------------------------------------------------------------------
# One workload (this process) and all six (one subprocess each)
# ----------------------------------------------------------------------
def _with_units(metrics: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    return {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}


def run_workload(args: argparse.Namespace) -> int:
    w = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    metrics: dict[str, Any] = {}
    record: dict[str, Any] = {"workload": w.name, "why": w.why, "seconds": args.seconds}
    attempted = failed = checked_rows = 0
    errors: list[str] = []
    built = None
    if args.trace in (0, 2):
        e2e, tally, detail, built = untraced_run(w, args.seed, args.seconds, args.smoke)
        record["end_to_end"] = _with_units(e2e, END_TO_END_UNITS)
        record["detail"] = detail
        metrics.update(record["end_to_end"])
        attempted += tally.attempted
        failed += tally.failed
        checked_rows += tally.checked_rows
        errors += tally.errors
    if args.trace in (1, 2):
        layers, tally = traced_run(
            w, args.seed, args.seconds, args.smoke, args.trace_out, built
        )
        record["per_layer"] = _with_units(layers, PER_LAYER_UNITS)
        metrics.update(record["per_layer"])
        attempted += tally.attempted
        failed += tally.failed
        checked_rows += tally.checked_rows
        errors += tally.errors
    record.update(
        attempted=attempted,
        failed=failed,
        failed_share=failed / max(1, attempted),
        errors=errors,
        checked_rows=checked_rows,
        wall_s=time.perf_counter() - t0,
        env=_environment(args.seed, args.smoke),
    )
    for name, entry in metrics.items():
        print(f"{w.name:22s} {name:44s} {entry['value']:>16.6g} {entry['unit']}")
    for reason in record.get("detail", {}).get("unresolved", []):
        print(f"{w.name}: UNRESOLVED {reason}")
    for error in errors:
        print(f"{w.name}: FAILED {error}", file=sys.stderr)
    result: dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.trace == 2:
        result["record"] = record
    elif "detail" in record:
        print("detail " + json.dumps(record["detail"]))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess: untraced run, then traced run."""
    records: dict[str, Any] = {}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "2",
        ]
        if args.smoke:
            cmd.append("--smoke")
        if args.trace_out:
            cmd += ["--trace-out", args.trace_out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            status = 1
            continue
        records[name] = result["record"]
        if proc.returncode or result["failed"]:
            status = 1
    if records:
        env = next(iter(records.values()))["env"]
        payload = {
            "schema": 1,
            "claim": None,
            "env": env,
            "seconds": args.seconds,
            "workloads": records,
        }
        if args.out:
            Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {args.out}")
    worst = max((r["failed_share"] for r in records.values()), default=1.0)
    print(f"failed_share max over workloads: {worst:g}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(REFERENCE_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=2,
                        help="0 end-to-end, 1 per-layer, 2 both (with --workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="email stand-in, a few hundred requests, 2 updates")
    parser.add_argument("--out", help="write the full record of all workloads here")
    parser.add_argument("--trace-out", help="prefix for span exports (JSON lines, Chrome trace)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload:
            return run_workload(args)
        return run_all(args)
    finally:
        stop_started_processes()


if __name__ == "__main__":
    sys.exit(main())
