"""Real multiprocess execution: shard fan-out speedup and cost-model gap.

Not a paper figure — this measures the execution seam added for real
parallelism: the same :class:`~repro.sharding.router.ShardRouter` batch
served inline (``backend=None``, today's serial loop) versus fanned out
to worker processes (:class:`~repro.exec.backend.ProcessPoolBackend`),
where each shard's replica runs in its own process against read-only
shared-memory views of the stacked query buffers.

Two experiments on one pruned GPA index:

* **Shard fan-out** — a 4-shard router (one replica each, shared engine,
  caches off so every query computes) timed serial vs process pools of
  increasing size.  Exactness is asserted bitwise first — the seam's
  contract — then wall-clock speedup is reported per worker count.
* **Cost-model gap** — the distributed GPA runtime's *modeled* per-query
  runtime (the paper's Section 6.2.2 metric: slowest machine's modeled
  compute + transfer) against the *measured* wall of the same batches on
  the process backend, reported as a modeled/measured ratio per worker
  count.  The gap is recorded, not asserted: the model charges abstract
  entry/byte costs, the measurement includes real IPC.

The speedup assertion (≥ 1.5× at 4 workers) only runs on machines with
at least 4 CPUs — on fewer cores real processes cannot beat the serial
loop and the numbers are recorded without judgement.  Smoke mode
(``REPRO_SMOKE=1``) shrinks the dataset, uses 2 workers and asserts
exactness only, so CI exercises the whole worker path per push without
timing flakiness.  Machine-readable output lands in
``results/BENCH_multiprocess.json``.
"""

import json
import os
import time

import numpy as np

from repro.bench import (
    ExperimentTable,
    gpa_index,
    kernel_backend_info,
    result_path,
    zipf_stream,
)
from repro.distributed import DistributedGPA
from repro.exec import ProcessPoolBackend
from repro.sharding.router import ShardRouter

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
DATASET, PRUNE = ("email", 1e-3) if SMOKE else ("web", 1e-3)
NUM_SHARDS = 4
GPA_PARTS = 4
BATCH = 64 if SMOKE else 256
REPEAT = 2 if SMOKE else 4
WORKER_COUNTS = [2] if SMOKE else [2, 4]
CPU_COUNT = os.cpu_count() or 1


def _best_wall(fn, repeat=REPEAT) -> float:
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _router(index, backend=None) -> ShardRouter:
    # One replica per shard, caches off: every row computes, so the
    # timing isolates the execution seam rather than cache luck.
    return ShardRouter([[index]] * NUM_SHARDS, backend=backend)


def test_multiprocess_backend():
    index = gpa_index(DATASET, GPA_PARTS, prune=PRUNE)
    n = index.graph.num_nodes
    queries = zipf_stream(n, BATCH, seed=11)

    serial_router = _router(index)
    d_serial, _ = serial_router.query_many(queries)
    s_serial, _ = serial_router.query_many_sparse(queries)
    serial_wall = _best_wall(lambda: serial_router.query_many(queries))

    serial_runtime = DistributedGPA(index, NUM_SHARDS)
    _, serial_reports = serial_runtime.query_many(queries)
    modeled_per_query = float(
        np.mean([r.runtime_seconds for r in serial_reports])
    )

    rows = []
    for workers in WORKER_COUNTS:
        with ProcessPoolBackend(workers) as pool:
            router = _router(index, backend=pool)
            d_proc, _ = router.query_many(queries)
            s_proc, _ = router.query_many_sparse(queries)
            # The seam's contract: worker answers are bitwise-identical.
            assert np.array_equal(d_serial, d_proc), "process != serial (dense)"
            assert np.array_equal(s_serial.data, s_proc.data)
            assert np.array_equal(s_serial.indices, s_proc.indices)
            assert np.array_equal(s_serial.indptr, s_proc.indptr)
            proc_wall = _best_wall(lambda: router.query_many(queries))

            runtime = DistributedGPA(index, NUM_SHARDS, backend=pool)
            d_rt, _ = runtime.query_many(queries)
            assert np.array_equal(d_rt, serial_runtime.query_many(queries)[0])
            measured_per_query = (
                _best_wall(
                    lambda: runtime.query_many(queries, collect_stats=False)
                )
                / queries.size
            )
            rows.append(
                {
                    "workers": int(workers),
                    "serial_ms_per_query": serial_wall / queries.size * 1e3,
                    "process_ms_per_query": proc_wall / queries.size * 1e3,
                    "speedup": serial_wall / proc_wall,
                    "modeled_s_per_query": modeled_per_query,
                    "measured_s_per_query": measured_per_query,
                    "model_gap": modeled_per_query / measured_per_query,
                }
            )

    table = ExperimentTable(
        "Multiprocess Execution",
        "Shard fan-out over worker processes vs the serial loop",
        [
            "workers",
            "serial ms/q",
            "process ms/q",
            "speedup",
            "modeled s/q",
            "measured s/q",
            "model gap",
        ],
    )
    for row in rows:
        table.add(
            row["workers"],
            round(row["serial_ms_per_query"], 4),
            round(row["process_ms_per_query"], 4),
            round(row["speedup"], 2),
            f"{row['modeled_s_per_query']:.3e}",
            f"{row['measured_s_per_query']:.3e}",
            round(row["model_gap"], 3),
        )
    table.note(
        f"{NUM_SHARDS} shards x 1 replica, caches off, batch {BATCH}, "
        f"{CPU_COUNT} CPU(s); exactness asserted bitwise per worker count"
    )
    table.note(
        "model gap = paper-metric modeled runtime / measured process wall "
        "per query (recorded, not asserted — the model is abstract costs)"
    )
    table.emit()

    payload = {
        "smoke": SMOKE,
        "dataset": DATASET,
        "prune": PRUNE,
        "num_shards": NUM_SHARDS,
        "batch": BATCH,
        "repeat": REPEAT,
        "cpu_count": CPU_COUNT,
        **kernel_backend_info(),
        "rows": rows,
    }
    out = result_path("BENCH_multiprocess", ".json")
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    for row in rows:
        assert row["model_gap"] > 0.0
    if not SMOKE and CPU_COUNT >= 4:
        best = max(row["speedup"] for row in rows if row["workers"] >= 4)
        assert best >= 1.5, (
            f"process fan-out speedup {best:.2f}x below 1.5x at >=4 workers "
            f"on a {CPU_COUNT}-CPU machine"
        )


if __name__ == "__main__":
    test_multiprocess_backend()
