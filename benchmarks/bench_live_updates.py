"""Live updates: incremental update cost and serving during rollout.

Not a paper figure — the paper precomputes once; this measures the
dynamic-graph mode the serving stack opens up:

* **Update latency vs full rebuild** — applying one edge update through
  the incremental path (affected columns only) against rebuilding the
  whole index from scratch.  ``rebuild_fraction`` is the share of stored
  vectors the update actually recomputed; incremental cost should sit
  well below one rebuild.
* **Serving through a staggered rollout** — a Zipf query stream replayed
  through ``PPVService`` over a ``ShardRouter`` (2 replicas per shard)
  while an update rolls out one replica per shard at a time.  Every
  request keeps being answered — the dip is visible in modeled
  throughput, never as an outage — where a rebuild-and-restart would
  drop traffic for the entire rebuild.

Smoke mode (``REPRO_SMOKE=1``) shrinks the dataset and stream and skips
the timing assertion, so CI exercises the full update pipeline on every
push without timing flakiness.  Smoke tables are written apart
(``results/*_smoke.txt``, see :func:`repro.bench.result_path`) so they
never overwrite the full-scale recording, and every table names the
environment that produced it.
"""

import os
import platform
import time

import numpy as np
import scipy

from repro import datasets
from repro.bench import ExperimentTable, kernel_backend_info, zipf_stream
from repro.core import EdgeUpdate, build_gpa_index
from repro.serving import PPVService, SimulatedClock, as_backend
from repro.sharding import ShardRouter, owner_map_from_partition

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
DATASET = "email" if SMOKE else "web"
PARTS = 4 if SMOKE else 8
NUM_UPDATES = 3 if SMOKE else 8
STREAM = 240 if SMOKE else 1536
NUM_SHARDS = 3
REPLICAS = 2
WINDOW_S = 0.005
ARRIVAL_SPACING = 1e-4
UPDATE_SECONDS = 0.01
ENVIRONMENT = (
    f"environment: {'smoke' if SMOKE else 'full'} scale, "
    f"nproc={os.cpu_count()}, "
    f"kernels={kernel_backend_info()['kernel_backend']}, "
    f"Python {platform.python_version()}, numpy {np.__version__}, "
    f"scipy {scipy.__version__}"
)


def _random_updates(graph, count, seed=17):
    rng = np.random.default_rng(seed)
    updates = []
    src, dst = graph.edge_arrays()
    deg = graph.out_degrees
    present = set(zip(src.tolist(), dst.tolist()))
    for i in range(count):
        if i % 2 == 0:
            while True:
                u = int(rng.integers(0, graph.num_nodes))
                v = int(rng.integers(0, graph.num_nodes))
                if u != v and (u, v) not in present:
                    present.add((u, v))
                    updates.append(EdgeUpdate.insert(u, v))
                    break
        else:
            while True:
                j = int(rng.integers(0, src.size))
                u, v = int(src[j]), int(dst[j])
                if deg[u] > 1 and (u, v) in present:
                    present.discard((u, v))
                    updates.append(EdgeUpdate.delete(u, v))
                    break
    return updates


def _build_seconds(graph, partition):
    t0 = time.perf_counter()
    build_gpa_index(graph, PARTS, partition=partition)
    return time.perf_counter() - t0


def test_incremental_update_vs_full_rebuild():
    graph = datasets.load(DATASET)
    index = build_gpa_index(graph, PARTS)
    rebuild_s = _build_seconds(graph, index.partition)
    backend = as_backend(index)

    table = ExperimentTable(
        "Live Update Latency",
        f"GPA on {DATASET}: incremental edge updates vs full rebuild "
        f"({rebuild_s * 1e3:.0f} ms)",
        ["update", "latency (ms)", "rebuild_fraction", "affected", "speedup"],
    )
    latencies, fractions = [], []
    for upd in _random_updates(graph, NUM_UPDATES):
        t0 = time.perf_counter()
        receipt = backend.apply_update(upd)
        dt = time.perf_counter() - t0
        assert receipt.changed
        latencies.append(dt)
        fractions.append(receipt.stats.rebuild_fraction)
        table.add(
            str(upd),
            round(dt * 1e3, 2),
            round(receipt.stats.rebuild_fraction, 4),
            receipt.num_affected,
            round(rebuild_s / dt, 1),
        )
    table.note(
        "rebuild_fraction = share of stored vectors recomputed; speedup = "
        "full-rebuild seconds / update seconds"
    )
    table.note(
        f"mean rebuild_fraction {np.mean(fractions):.4f}, "
        f"median update {np.median(latencies) * 1e3:.2f} ms vs "
        f"{rebuild_s * 1e3:.0f} ms rebuild"
    )
    table.note(ENVIRONMENT)
    table.emit()

    assert np.mean(fractions) < 1.0
    if not SMOKE:
        assert np.median(latencies) < rebuild_s, (
            f"incremental update ({np.median(latencies):.3f}s) not cheaper "
            f"than full rebuild ({rebuild_s:.3f}s)"
        )


def test_staggered_rollout_serving_dip():
    graph = datasets.load(DATASET)
    index = build_gpa_index(graph, PARTS)
    rebuild_s = _build_seconds(graph, index.partition)
    n = graph.num_nodes
    clock = SimulatedClock()
    router = ShardRouter(
        [[index] * REPLICAS for _ in range(NUM_SHARDS)],
        policy="owner",
        owner_map=owner_map_from_partition(index.partition, NUM_SHARDS),
        cache_bytes=32 * n * 8,
        clock=clock,
    )
    service = PPVService(
        router, window=WINDOW_S, max_batch=64, clock=clock
    )
    stream = zipf_stream(n, STREAM)
    arrivals = np.arange(stream.size) * ARRIVAL_SPACING
    index.query_many(stream[:8])  # build stacked ops once, untimed

    update = _random_updates(graph, 1)[0]
    rollout = router.begin_rollout(update, update_seconds=UPDATE_SECONDS)
    thirds = np.array_split(np.arange(stream.size), 3)

    def _phase_busy():
        return sum(
            r.busy_seconds for shard in router.shards for r in shard.replicas
        )

    table = ExperimentTable(
        "Staggered Rollout Serving",
        f"PPVService over {NUM_SHARDS}x{REPLICAS} ShardRouter on {DATASET}: "
        "Zipf stream served across a one-replica-per-shard-at-a-time rollout",
        ["phase", "requests", "answered", "busy (s)", "modeled qps", "epoch"],
    )
    answered_total = 0
    for phase, rows in zip(("before", "mid-rollout", "after"), thirds):
        if phase == "mid-rollout":
            rollout.step()  # wave 0: replica 0 of each shard flips
        elif phase == "after":
            clock.advance(UPDATE_SECONDS)
            rollout.step()  # wave 1: rollout completes
            clock.advance(UPDATE_SECONDS)
        busy0 = _phase_busy()
        out = service.serve(stream[rows], arrivals[rows])
        busy = _phase_busy() - busy0
        answered = int(out.shape[0])
        answered_total += answered
        table.add(
            phase,
            rows.size,
            answered,
            round(busy, 4),
            round(rows.size / busy, 1) if busy > 0 else float("inf"),
            router.epoch,
        )
    table.note(
        f"every request answered ({answered_total}/{stream.size}); a "
        f"rebuild-and-restart would drop traffic for ~{rebuild_s * 1e3:.0f} ms"
    )
    table.note(ENVIRONMENT)
    table.emit()

    assert rollout.done and router.epoch == 1
    assert answered_total == stream.size, "requests dropped during rollout"
