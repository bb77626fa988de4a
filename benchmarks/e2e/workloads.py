"""The six e2e workloads: configuration, seeded inputs, deployment set-up.

Each workload is one traffic mix through a different slice of the
serving stack (see ``README.md`` for why each exists).  Request counts
are written for a ``--seconds`` of :data:`REFERENCE_SECONDS` on the
2-core sandbox and scale linearly with ``--seconds``; the numbers of
blocks, segments and updates never scale.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any

import numpy as np

from repro import datasets
from repro.core import EdgeUpdate, build_gpa_index, build_hgpa_index
from repro.distributed import DistributedGPA
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.serving import PPVService
from repro.sharding import RetryPolicy, ShardRouter, owner_map_from_partition

__all__ = [
    "REFERENCE_SECONDS",
    "CLOSED_BLOCKS",
    "TRACED_BLOCKS",
    "OPEN_SEGMENTS",
    "WINDOW_SECONDS",
    "TOPK_K",
    "Workload",
    "WORKLOADS",
    "Sizes",
    "sizes_for",
    "Deployment",
    "PerfClock",
    "set_up",
    "request_stream",
    "edge_updates",
    "stop_started_processes",
]

REFERENCE_SECONDS = 8
"""The ``--seconds`` the per-block request counts below are written for
(``run_seconds`` in ``BENCHMARK.json``)."""

CLOSED_BLOCKS = 10
OPEN_SEGMENTS = 5
TRACED_BLOCKS = 3
WINDOW_SECONDS = 0.005
CLOSED_WINDOW_SECONDS = 1e9  # "effectively infinite": flush on max_batch only
TOPK_K = 10
TOPK_CALL_NODES = 256
PRUNE = 1e-3
GPA_PARTS = 8
SMOKE_GPA_PARTS = 4
MACHINES = 4
POOL_WORKERS = 2
CACHE_ROWS = 128
ZIPF_EXPONENT = 1.2
ZIPF_PERMUTATION_SEED = 11  # the default of repro.bench.zipf_stream


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and the deployment it runs against."""

    name: str
    why: str
    engine: str  # "gpa" | "hgpa" | "distributed_gpa"
    shards: int
    policy: str
    stream: str  # "zipf" | "uniform"
    block_requests: int  # closed-loop requests per block at REFERENCE_SECONDS
    open_rate: float = 0.0  # requests/s; 0 = no open phase (offline client)
    open_share: float = 0.3  # the open phase lasts this share of --seconds
    max_batch: int = 64
    replicas: int = 1
    cached: bool = False
    sparse: bool = False
    topk: bool = False  # batch client on ShardRouter.query_many_topk
    process_pool: bool = False
    collect_stats: bool = False
    resilient: bool = False
    interleaved_updates: int = 0  # updates applied between closed blocks
    tail_updates: int = 3  # updates applied after the read phases


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="zipf_dense_cached",
            why="Zipf stream mostly hits shard caches: serving, cache and "
            "routing do the work, the engine little",
            engine="gpa", shards=4, policy="owner", stream="zipf",
            cached=True, block_requests=7168, open_rate=8000.0,
        ),
        Workload(
            name="uniform_sparse_hgpa",
            why="every request computes on HGPA sparse: core.hgpa and "
            "sparse_ops dominate, caches idle, small batches cut in four",
            engine="hgpa", shards=4, policy="round_robin", stream="uniform",
            # 100 req/s for all of --seconds: one request per 5 ms window,
            # each flush done before the next arrival, so latency follows the
            # engine and not a queue (at 200 req/s p50_ms swung 30% between
            # runs); the longer phase gives a segment its 160 samples.
            sparse=True, block_requests=640, open_rate=100.0, open_share=1.0,
            tail_updates=2,
        ),
        Workload(
            name="batch_topk",
            why="offline 256-node top-k calls: the only workload where the "
            "top-k kernel is a large share; batch verb, no service",
            engine="gpa", shards=4, policy="owner", stream="uniform",
            topk=True, max_batch=TOPK_CALL_NODES,
            block_requests=24 * TOPK_CALL_NODES,  # no open phase: its time goes here
        ),
        Workload(
            name="process_fanout",
            why="dense 256-row batches through a 2-worker process pool: "
            "exec submit, pickling and shared memory do most of the work",
            engine="gpa", shards=4, policy="owner", stream="uniform",
            process_pool=True, max_batch=256,
            block_requests=3584, open_rate=4000.0,
        ),
        Workload(
            name="distributed_wire",
            why="DistributedGPA behind the router: per query four wire "
            "encodes, coordinator decode and metering; nothing else does",
            engine="distributed_gpa", shards=2, policy="round_robin",
            stream="uniform", collect_stats=True,
            block_requests=896, open_rate=1200.0,
        ),
        Workload(
            name="zipf_dense_updates",
            why="edge updates between cached Zipf reads on replicated, "
            "resilient shards: update cost traded for read cost shows here",
            engine="gpa", shards=4, policy="owner", stream="zipf",
            cached=True, replicas=2, resilient=True,
            block_requests=2048, open_rate=8000.0,
            interleaved_updates=5, tail_updates=0,
        ),
    )
}


@dataclass(frozen=True)
class Sizes:
    """Request counts of one run (after ``--seconds`` / ``--smoke`` scaling)."""

    dataset: str
    gpa_parts: int
    warmup_requests: int
    block_requests: int
    open_requests: int
    interleaved_updates: int
    tail_updates: int
    setup_repeats: int


def _round_to(count: float, multiple: int) -> int:
    return max(multiple, int(round(count / multiple)) * multiple)


def sizes_for(w: Workload, seconds: float, *, smoke: bool, traced: bool) -> Sizes:
    """Scale a workload's request counts to one run.

    Blocks stay multiples of ``max_batch`` so a closed-loop block ends
    exactly on a flush.  The open phase is the workload's ``open_share``
    of ``--seconds`` (30% unless stated) at its fixed rate.  Smoke runs
    use the ``email`` stand-in, a few hundred requests, 2 updates and a
    single set-up.
    """
    if smoke:
        return Sizes(
            dataset="email",
            gpa_parts=SMOKE_GPA_PARTS,
            warmup_requests=w.max_batch,
            block_requests=w.max_batch,
            open_requests=(20 if traced else 100) if w.open_rate else 0,
            interleaved_updates=2 if w.interleaved_updates else 0,
            tail_updates=0 if w.interleaved_updates else 1,
            setup_repeats=1,
        )
    scale = seconds / REFERENCE_SECONDS
    block = _round_to(w.block_requests * scale, w.max_batch)
    open_requests = _round_to(w.open_rate * w.open_share * seconds, OPEN_SEGMENTS)
    if traced:
        open_requests //= OPEN_SEGMENTS  # one segment
    return Sizes(
        dataset="web",
        gpa_parts=GPA_PARTS,
        warmup_requests=max(4 * w.max_batch, block // 2),
        block_requests=block,
        open_requests=open_requests if w.open_rate else 0,
        # A traced run needs update spans, not an update median.
        interleaved_updates=(
            min(2, w.interleaved_updates) if traced else w.interleaved_updates
        ),
        tail_updates=min(1, w.tail_updates) if traced else w.tail_updates,
        setup_repeats=1 if traced else 2,
    )


class PerfClock:
    """The wall clock behind the service/router clock interface."""

    now = staticmethod(time.perf_counter)


@dataclass
class Deployment:
    """Everything one workload run holds, built by :func:`set_up`."""

    workload: Workload
    graph: Any
    index: Any
    router: ShardRouter
    service: PPVService | None
    runtime: DistributedGPA | None = None
    machine_exec: SerialBackend | None = None
    pool: ProcessPoolBackend | None = None
    timings: dict[str, float] = field(default_factory=dict)
    worker_rss_mb: float = 0.0

    @property
    def num_nodes(self) -> int:
        return int(self.graph.num_nodes)

    def engine(self) -> Any:
        """The engine object the replicas currently serve (an update
        swaps index objects, so this is read off the deployment)."""
        return self.router.shards[0].replicas[0].backend.engine

    def caches(self) -> list[Any]:
        return [s.cache for s in self.router.shards if s.cache is not None]

    def arena_bytes(self) -> int:
        """Bytes of shared-memory segments this process created."""
        pattern = f"/dev/shm/repro-shm-{os.getpid()}-*"
        return sum(os.path.getsize(p) for p in glob.glob(pattern))

    def close(self) -> None:
        """Stop the worker pool (if any), noting the workers' peak RSS
        first — after ``close`` they can no longer be asked."""
        if self.pool is not None:
            self.worker_rss_mb = max(self.worker_rss_mb, _children_hwm_mb())
            self.pool.close()
            self.pool = None


def _children_hwm_mb() -> float:
    """Sum of the live child processes' peak resident sets (VmHWM)."""
    total_kb = 0
    for child in mp.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # the worker exited between listing and reading
    return total_kb / 1024.0


def stop_started_processes() -> None:
    """Stop, and wait for, every process this one started.

    ``ProcessPoolBackend.close`` joins its workers; what outlives it is
    multiprocessing's resource tracker, which :func:`set_up` starts ahead
    of the pool (so there is one, here, not one under each worker) and
    every shared-memory arena reports to.  Left alone it ends once it
    sees this process gone — a moment *after* the benchmark has exited,
    when a caller looking for strays still finds it.  Call after the
    last arena is unlinked, on every path out of a run.
    """
    for child in mp.active_children():  # only after a close that failed
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for its pid


def build_router(
    w: Workload,
    index: Any,
    engine: Any,
    *,
    pool: ProcessPoolBackend | None,
) -> ShardRouter:
    """The workload's router over ``engine`` (an index or a runtime)."""
    n = index.graph.num_nodes
    kwargs: dict[str, Any] = {}
    if w.policy == "owner":
        kwargs["owner_map"] = owner_map_from_partition(index.partition, w.shards)
    if w.cached:
        kwargs["cache_bytes"] = CACHE_ROWS * n * 8
    if w.resilient:
        kwargs["resilience"] = RetryPolicy()
    return ShardRouter(
        [[engine] * w.replicas for _ in range(w.shards)],
        policy=w.policy,
        clock=PerfClock(),
        backend=pool,
        **kwargs,
    )


def build_service(w: Workload, router: ShardRouter) -> PPVService | None:
    if w.topk:
        return None
    return PPVService(
        router,
        window=WINDOW_SECONDS,
        max_batch=w.max_batch,
        clock=PerfClock(),
        sparse=w.sparse,
        collect_stats=w.collect_stats,
    )


def set_up(
    w: Workload, sizes: Sizes, warm_up: Any, *, built: Deployment | None = None
) -> Deployment:
    """Graph load, index build, deploy and warm-up, each timed.

    ``built`` hands over the graph and index (and their timings) of an
    earlier deployment of the same workload: indexes are functional —
    updates produce successors — so the traced run of a process can
    deploy afresh over the index its untraced run built.

    Nothing is cached between calls (``datasets.load`` memoises, so the
    graph is built through its spec), which is what lets one run set up
    several times and report the median.  ``warm_up(deployment)`` drives
    the first, untimed requests: lazy stacked ops, worker attach, cache
    fill.
    """
    gc.collect()
    if built is not None:
        graph, index = built.graph, built.index
        graph_s, index_build_s = built.timings["graph_s"], built.timings["index_build_s"]
    else:
        t0 = time.perf_counter()
        graph = datasets.spec(sizes.dataset).build()
        t1 = time.perf_counter()
        if w.engine == "hgpa":
            index = build_hgpa_index(graph, prune=PRUNE)
        else:
            index = build_gpa_index(graph, sizes.gpa_parts, prune=PRUNE)
        graph_s, index_build_s = t1 - t0, time.perf_counter() - t1
    t2 = time.perf_counter()
    pool = None
    pool_start = 0.0
    runtime = machine_exec = None
    try:
        if w.process_pool:
            # One pool per router: replica keys use id(self), so a pool
            # reused across routers can see a duplicate registration.
            # The resource tracker starts before the workers fork, so they
            # share it: a worker forked earlier starts a tracker of its
            # own on its first attach, which nobody can wait for.
            resource_tracker.ensure_running()
            pool = ProcessPoolBackend(POOL_WORKERS)
            pool_start = time.perf_counter() - t2
        engine = index
        if w.engine == "distributed_gpa":
            machine_exec = SerialBackend()
            runtime = engine = DistributedGPA(index, MACHINES, backend=machine_exec)
        router = build_router(w, index, engine, pool=pool)
        deployment = Deployment(
            workload=w,
            graph=graph,
            index=index,
            router=router,
            service=build_service(w, router),
            runtime=runtime,
            machine_exec=machine_exec,
            pool=pool,
        )
        t3 = time.perf_counter()
        warm_up(deployment)
        t4 = time.perf_counter()
    except BaseException:
        if pool is not None:
            pool.close()
        raise
    deployment.timings = {
        "graph_s": graph_s,
        "index_build_s": index_build_s,
        "deploy_s": t3 - t2,
        "warmup_s": t4 - t3,
        "pool_start_s": pool_start,
        "setup_s": graph_s + index_build_s + (t4 - t2),
    }
    return deployment


def request_stream(w: Workload, n: int, size: int, seed: int, tag: int) -> np.ndarray:
    """``size`` node ids for one phase; ``(seed, tag)`` fixes them.

    Zipf streams follow ``repro.bench.zipf_stream`` (rank-``r``
    popularity ∝ ``r^-1.2``, ranks mapped to nodes by a seeded
    permutation), except that the permutation is the workload's, not the
    run's: which nodes are hot — and so how the hot set falls across
    shards and caches — is the same for every phase and every ``--seed``;
    the seed draws the requests.
    """
    rng = np.random.default_rng([seed, tag])
    if w.stream == "zipf":
        p = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        p /= p.sum()
        perm = np.random.default_rng(ZIPF_PERMUTATION_SEED).permutation(n)
        return perm[rng.choice(n, size=size, p=p)]
    return rng.integers(0, n, size=size)


def edge_updates(graph: Any, count: int, seed: int) -> list[EdgeUpdate]:
    """Alternating seeded inserts/deletes that always change the graph
    (the generator of ``bench_live_updates``, seeded by the run)."""
    rng = np.random.default_rng([seed, 977])
    src, dst = graph.edge_arrays()
    deg = np.array(graph.out_degrees)  # tracked, so no delete strands a node
    present = set(zip(src.tolist(), dst.tolist()))
    updates: list[EdgeUpdate] = []
    for i in range(count):
        while True:
            if i % 2 == 0:
                u = int(rng.integers(0, graph.num_nodes))
                v = int(rng.integers(0, graph.num_nodes))
                if u != v and (u, v) not in present:
                    present.add((u, v))
                    deg[u] += 1
                    updates.append(EdgeUpdate.insert(u, v))
                    break
            else:
                j = int(rng.integers(0, src.size))
                u, v = int(src[j]), int(dst[j])
                if deg[u] > 1 and (u, v) in present:
                    present.discard((u, v))
                    deg[u] -= 1
                    updates.append(EdgeUpdate.delete(u, v))
                    break
    return updates
