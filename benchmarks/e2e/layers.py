"""Per-layer attribution: where the proxies go and what the spans mean.

Layers are this repo's modules — ``serving``, ``sharding``, ``exec``,
``distributed``, ``core``, ``kernels`` — and a span's name starts with
the layer it belongs to.  Three sources, nothing else:

* **proxies** (:func:`instrument`) on public methods of the instances
  the harness built; a layer's self time is its spans minus their
  children;
* **probes** (:func:`run_probes`) for leaf functions that cannot be
  shadowed from outside: they are called directly on inputs taken from
  one real batch of the workload, median of :data:`PROBE_CALLS` calls;
* **counts** from the program's own stats objects.

A metric that does not apply to a workload reads 0.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.core.hgpa as hgpa_module
import repro.core.sparse_ops as sparse_ops_module
from repro.core import SparseVec
from repro.core.flat_index import topk_rows
from repro.core.sparse_ops import sparse_add, spgemm_scaled, topk_rows_sparse
from harness import ClosedResult, OpenResult, median
from trace import END, NAME, PARENT, PHASE, START, VALUE, Proxies, Recorder, capture_calls
from workloads import TOPK_CALL_NODES, TOPK_K, Deployment

__all__ = [
    "PER_LAYER_UNITS",
    "PROBE_CALLS",
    "Counters",
    "TracedRun",
    "instrument",
    "instrument_engines",
    "run_probes",
    "layer_metrics",
]

PROBE_CALLS = 20

PER_LAYER_UNITS: dict[str, str] = {
    "failed_share": "ratio",
    "serving.self_us_per_request": "us",
    "serving.flush_self_ms_per_batch": "ms",
    "serving.queue_wait_ms_p50": "ms",
    "serving.mean_batch": "rows",
    "serving.cache.hit_rate": "ratio",
    "serving.cache.get_us": "us",
    "serving.cache.put_us": "us",
    "serving.cache.evictions": "count",
    "serving.cache.invalidated_rows": "count",
    "serving.cache.invalidate_ms_per_update": "ms",
    "sharding.router_self_ms_per_batch": "ms",
    "sharding.shard_self_ms_per_batch": "ms",
    "sharding.subbatch_rows_mean": "rows",
    "sharding.load_imbalance": "ratio",
    "sharding.resilience_extra_attempts": "count",
    "sharding.update_fanout_self_ms": "ms",
    "exec.submit_ms_per_task": "ms",
    "exec.wait_ms_per_task": "ms",
    "exec.worker_compute_ms_per_task": "ms",
    "exec.ipc_overhead_ms_per_task": "ms",
    "exec.result_bytes_per_task": "bytes",
    "exec.pool_start_s": "s",
    "exec.arena_bytes": "bytes",
    "exec.serial_ref_qps": "1/s",
    "exec.speedup_vs_serial": "ratio",
    "distributed.machine_compute_ms_per_batch": "ms",
    "distributed.finish_ms_per_query": "ms",
    "distributed.aggregate_us_per_query": "us",
    "distributed.messages_per_query": "count",
    "distributed.meter_bytes_per_query": "bytes",
    "distributed.modeled_over_measured": "ratio",
    "core.engine_ms_per_batch": "ms",
    "core.engine_us_per_row": "us",
    "core.result_nnz_per_row": "count",
    "core.wire_encode_us_per_vec": "us",
    "core.wire_decode_us_per_vec": "us",
    "core.wire_bytes_per_vec": "bytes",
    "core.update_apply_ms": "ms",
    "core.update_rebuild_fraction": "ratio",
    "core.update_affected_sources": "count",
    "kernels.topk_dense_ms_per_256": "ms",
    "kernels.topk_sparse_ms_per_256": "ms",
    "kernels.spgemm_ms_per_batch": "ms",
    "kernels.sparse_add_ms_per_batch": "ms",
    "setup.graph_s": "s",
    "setup.index_build_s": "s",
    "setup.deploy_s": "s",
    "setup.warmup_s": "s",
    "harness.gen_late_ms_p99": "ms",
    "harness.backlog_end": "requests",
    "harness.latency_samples_per_segment": "count",
    "trace.overhead_share": "ratio",
    "trace.span_cost_us": "us",
}
"""Every per-layer metric and its unit (``BENCHMARK.json`` lists the same)."""

_QUERY_VERBS = ("query_many", "query_many_sparse")
_SHARD_VERBS = (
    "query_many_submit",
    "query_many_finish",
    "query_many_sparse_submit",
    "query_many_sparse_finish",
    "query_many_topk",
)


# ----------------------------------------------------------------------
# Proxies
# ----------------------------------------------------------------------
def _rows(args: tuple[Any, ...], _ret: Any) -> int:
    return len(args[0])


def _nbytes(block: Any) -> int:
    if hasattr(block, "nbytes"):
        return int(block.nbytes)
    return int(block.data.nbytes + block.indices.nbytes + block.indptr.nbytes)


def _worker_result(value: Any) -> tuple[float, int]:
    """``(worker compute wall, bytes of the block it sent back)``."""
    block, wall = value
    return float(wall), _nbytes(block)


def instrument_engines(dep: Deployment, px: Proxies) -> None:
    """Proxy the engine objects the replicas serve *now*.  Idempotent:
    called again after an update, it reaches the successor index objects
    and leaves already proxied ones alone."""
    for shard in dep.router.shards:
        for replica in shard.replicas:
            engine = replica.backend.engine
            layer = "distributed.runtime" if dep.runtime is not None else "core.engine"
            for verb in _QUERY_VERBS:
                px.wrap(engine, verb, f"{layer}.{verb}", measure=_rows)


def instrument(dep: Deployment, px: Proxies, captured_payloads: list[Any]) -> None:
    """Shadow every layer boundary of one deployment with a span.

    ``captured_payloads`` receives the wire payloads of the first
    coordinator aggregation (the wire-codec probe's real inputs).
    """
    service, router = dep.service, dep.router
    if service is not None:
        for verb in ("submit", "poll", "flush", "apply_update"):
            px.wrap(service, verb, f"serving.{verb}")
    for verb in (*_QUERY_VERBS, "query_many_topk"):
        px.wrap(router, verb, f"sharding.router.{verb}", batch_root=True, measure=_rows)
    px.wrap(router, "apply_update", "sharding.router.apply_update")
    for shard in router.shards:
        for verb in _SHARD_VERBS:
            px.wrap(shard, verb, f"sharding.shard.{verb}")
        px.wrap(shard, "apply_update", "sharding.shard.apply_update")
        if shard.cache is not None:
            for verb in ("get", "put", "invalidate"):
                px.wrap(shard.cache, verb, f"serving.cache.{verb}")
        for replica in shard.replicas:
            for verb in _QUERY_VERBS:
                px.wrap(replica, verb, f"sharding.replica.{verb}")
            px.wrap(replica, "apply_update", "sharding.replica.apply_update")
    instrument_engines(dep, px)
    if dep.pool is not None:
        px.wrap(
            dep.pool,
            "submit",
            "exec.submit",
            future_name="exec.result",
            future_measure=_worker_result,
        )
    if dep.runtime is not None:
        # The runtime's machines run on the SerialBackend the harness
        # handed it, which computes inline at submit time.
        px.wrap(dep.machine_exec, "submit", "distributed.machine.submit")
        coordinator = dep.runtime.coordinator

        def keep_first(args: tuple[Any, ...], _ret: Any) -> None:
            if not captured_payloads:
                captured_payloads.append(dict(args[0]))

        px.wrap(coordinator, "aggregate", "distributed.coordinator.aggregate", measure=keep_first)
        px.wrap(coordinator, "aggregate_sparse", "distributed.coordinator.aggregate")
        px.wrap(coordinator, "broadcast_query", "distributed.coordinator.broadcast_query")


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _median_seconds(fn: Any, calls: int = PROBE_CALLS) -> float:
    walls = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _replayed_seconds(module_names: list[tuple[Any, str]], fn: Any, batch: Any) -> float:
    """Sum over the calls one real batch makes to a leaf function of each
    call's median replay time."""
    calls: list[tuple[tuple[Any, ...], dict[str, Any]]] = []
    with ExitStack() as stack:
        for module, name in module_names:
            stack.enter_context(capture_calls(module, name, calls))
        batch()
    return sum(_median_seconds(lambda a=a, k=k: fn(*a, **k)) for a, k in calls)


def run_probes(dep: Deployment, nodes: np.ndarray, payloads: list[Any]) -> dict[str, float]:
    """Leaf-function timings on inputs taken from one real batch.

    ``nodes`` is a real slice of the workload's stream; ``payloads`` the
    wire payloads one real coordinator aggregation received.
    """
    out: dict[str, float] = {}
    engine = dep.engine()
    w = dep.workload
    sample = nodes[:64]
    if w.sparse:
        rows = engine.query_many_sparse(sample, collect_stats=False)[0]
        out["core.result_nnz_per_row"] = rows.nnz / len(sample)
    else:
        rows = engine.query_many(sample, collect_stats=False)[0]
        out["core.result_nnz_per_row"] = float(np.count_nonzero(rows)) / len(sample)
    if w.topk:
        block_nodes = nodes[:TOPK_CALL_NODES]
        dense = engine.query_many(block_nodes, collect_stats=False)[0]
        sparse = engine.query_many_sparse(block_nodes, collect_stats=False)[0]
        scale = 256.0 / len(block_nodes)  # a smoke block is shorter
        out["kernels.topk_dense_ms_per_256"] = (
            _median_seconds(lambda: topk_rows(dense, TOPK_K)) * 1e3 * scale
        )
        out["kernels.topk_sparse_ms_per_256"] = (
            _median_seconds(lambda: topk_rows_sparse(sparse, TOPK_K)) * 1e3 * scale
        )
    if w.engine == "hgpa":
        batch = lambda: engine.query_many_sparse(sample, collect_stats=False)  # noqa: E731
        out["kernels.spgemm_ms_per_batch"] = 1e3 * _replayed_seconds(
            [(hgpa_module, "spgemm_scaled")], spgemm_scaled, batch
        )
        out["kernels.sparse_add_ms_per_batch"] = 1e3 * _replayed_seconds(
            [(hgpa_module, "sparse_add"), (sparse_ops_module, "sparse_add")],
            sparse_add,
            batch,
        )
    if dep.runtime is not None and payloads:
        n, version = dep.num_nodes, dep.runtime.wire_version
        encode, decode, size = [], [], []
        for payload in payloads[0].values():
            dense = SparseVec.from_wire(payload).to_dense(n)
            encode.append(
                _median_seconds(
                    lambda d=dense: SparseVec.from_dense(d).to_wire(version=version)
                )
            )
            decode.append(_median_seconds(lambda p=payload: SparseVec.from_wire(p)))
            size.append(len(payload))
        out["core.wire_encode_us_per_vec"] = statistics.mean(encode) * 1e6
        out["core.wire_decode_us_per_vec"] = statistics.mean(decode) * 1e6
        out["core.wire_bytes_per_vec"] = statistics.mean(size)
        # The model's per-query runtime against the measured wall of the
        # same direct batch (reports exist only on a direct call: shards
        # always ask their replicas for collect_stats=False).
        t0 = time.perf_counter()
        _, reports = dep.runtime.query_many(sample, collect_stats=True)
        wall = (time.perf_counter() - t0) / len(sample)
        modeled = statistics.mean(r.runtime_seconds for r in reports)
        out["distributed.modeled_over_measured"] = modeled / wall
    return out


# ----------------------------------------------------------------------
# Counts and span arithmetic
# ----------------------------------------------------------------------
@dataclass
class Counters:
    """A snapshot of the program's own stats objects."""

    service_batches: int = 0
    service_batched_queries: int = 0
    shard_queries: list[int] = field(default_factory=list)
    shard_batches: list[int] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    extra_attempts: int = 0
    coordinator_messages: int = 0
    coordinator_bytes: int = 0

    @classmethod
    def read(cls, dep: Deployment) -> "Counters":
        stats = dep.router.stats()
        res = stats.resilience
        c = cls(
            shard_queries=list(stats.queries_by_shard),
            shard_batches=list(stats.batches_by_shard),
            extra_attempts=res.extra_attempts + res.worker_retries,
        )
        if dep.service is not None:
            c.service_batches = dep.service.stats.batches
            c.service_batched_queries = dep.service.stats.batched_queries
        for cache in dep.caches():
            c.cache_hits += cache.stats.hits
            c.cache_misses += cache.stats.misses
            c.cache_evictions += cache.stats.evictions
            c.cache_invalidations += cache.stats.invalidations
        if dep.runtime is not None:
            meter = dep.runtime.coordinator.meter
            c.coordinator_messages = meter.total_messages
            c.coordinator_bytes = meter.total_bytes
        return c


@dataclass
class TracedRun:
    """What the traced run of one workload measured, before arithmetic."""

    recorder: Recorder
    reference_rates: list[float]
    closed: ClosedResult
    opened: OpenResult | None
    counters: dict[str, Counters]  # at "start", "closed", "open", "end"
    receipts: list[Any]
    arena_bytes: int
    serial_ref_qps: float
    probes: dict[str, float]
    failed_share: float


class _Spans:
    """Selections and sums over one recorder's spans."""

    def __init__(self, recorder: Recorder) -> None:
        self.spans = recorder.spans
        self.selfs = recorder.self_times()
        # A run has a million spans but a few dozen (name, phase) pairs.
        self._by_kind: dict[tuple[str, str], list[int]] = {}
        for sid, s in enumerate(self.spans):
            self._by_kind.setdefault((s[NAME], s[PHASE]), []).append(sid)

    def pick(self, prefix: str, phase: str | None = None) -> list[int]:
        """Ids of the spans whose name starts with ``prefix`` (in one
        phase, or in all), in span order."""
        return sorted(
            sid
            for (name, ph), sids in self._by_kind.items()
            if name.startswith(prefix) and (phase is None or ph == phase)
            for sid in sids
        )

    def wall(self, sids: list[int]) -> float:
        return sum(self.spans[s][END] - self.spans[s][START] for s in sids)

    def self_time(self, sids: list[int]) -> float:
        return sum(self.selfs[s] for s in sids)

    def values(self, sids: list[int]) -> list[Any]:
        return [self.spans[s][VALUE] for s in sids]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_cost_us() -> float:
    """Cost of one empty proxied call, for reading µs-scale span means."""
    rec = Recorder()
    px = Proxies(rec)

    class _Noop:
        def call(self) -> None:
            return None

    target = _Noop()
    bare = _median_seconds(lambda: [target.call() for _ in range(1000)])
    px.wrap(target, "call", "noop")
    wrapped = _median_seconds(lambda: [target.call() for _ in range(1000)])
    return (wrapped - bare) * 1e3  # per call of 1000, in µs


def layer_metrics(dep: Deployment, run: TracedRun) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where it does not apply)."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    sp = _Spans(run.recorder)
    spans = sp.spans
    c0, c1, c2, c3 = (run.counters[k] for k in ("start", "closed", "open", "end"))
    requests = run.closed.requests
    batch_roots = sp.pick("sharding.router.query", "closed")
    batches = len(batch_roots)
    m["failed_share"] = run.failed_share

    # ----- serving -------------------------------------------------------
    serving = [
        s for s in sp.pick("serving.", "closed") if not spans[s][NAME].startswith("serving.cache")
    ]
    m["serving.self_us_per_request"] = _ratio(sp.self_time(serving) * 1e6, requests)
    flushing = [spans[r][PARENT] for r in batch_roots if spans[r][PARENT] >= 0]
    m["serving.flush_self_ms_per_batch"] = _ratio(sp.self_time(flushing) * 1e3, batches)
    opened = run.opened
    if opened is not None and opened.lateness:
        starts = np.asarray(
            [spans[r][START] for r in sp.pick("sharding.router.query", "open")]
        )
        resolved = np.concatenate(opened.resolved_at)
        done = ~np.isnan(resolved)
        if starts.size and done.any():
            # A ticket resolves right after its batch's router call, so
            # the last router span starting before that is its batch.
            at = np.searchsorted(starts, resolved[done], side="right") - 1
            waits = starts[np.maximum(at, 0)] - np.concatenate(opened.submitted_at)[done]
            m["serving.queue_wait_ms_p50"] = float(np.median(waits)) * 1e3
        m["serving.mean_batch"] = _ratio(
            c2.service_batched_queries - c1.service_batched_queries,
            c2.service_batches - c1.service_batches,
        )
        m["harness.gen_late_ms_p99"] = opened.gen_late_ms_p99
        m["harness.backlog_end"] = float(opened.backlog_end)
        m["harness.latency_samples_per_segment"] = float(opened.samples_per_segment)
    lookups = (c3.cache_hits - c0.cache_hits) + (c3.cache_misses - c0.cache_misses)
    m["serving.cache.hit_rate"] = _ratio(c3.cache_hits - c0.cache_hits, lookups)
    gets, puts = sp.pick("serving.cache.get"), sp.pick("serving.cache.put")
    m["serving.cache.get_us"] = _ratio(sp.wall(gets) * 1e6, len(gets))
    m["serving.cache.put_us"] = _ratio(sp.wall(puts) * 1e6, len(puts))
    m["serving.cache.evictions"] = float(c3.cache_evictions - c0.cache_evictions)
    m["serving.cache.invalidated_rows"] = float(
        c3.cache_invalidations - c0.cache_invalidations
    )

    # ----- sharding ------------------------------------------------------
    m["sharding.router_self_ms_per_batch"] = _ratio(sp.self_time(batch_roots) * 1e3, batches)
    shard_side = sp.pick("sharding.shard.query", "closed") + sp.pick(
        "sharding.replica.query", "closed"
    )
    m["sharding.shard_self_ms_per_batch"] = _ratio(sp.self_time(shard_side) * 1e3, batches)
    rows_by_shard = [b - a for a, b in zip(c0.shard_queries, c1.shard_queries)]
    sub_batches = sum(b - a for a, b in zip(c0.shard_batches, c1.shard_batches))
    m["sharding.subbatch_rows_mean"] = _ratio(sum(rows_by_shard), sub_batches)
    mean_rows = sum(rows_by_shard) / len(rows_by_shard)
    m["sharding.load_imbalance"] = _ratio(max(rows_by_shard), mean_rows)
    m["sharding.resilience_extra_attempts"] = float(c3.extra_attempts - c0.extra_attempts)

    # ----- updates -------------------------------------------------------
    updates = len(sp.pick("sharding.router.apply_update"))
    fanout = sp.pick("sharding.router.apply_update") + sp.pick("sharding.shard.apply_update")
    m["sharding.update_fanout_self_ms"] = _ratio(sp.self_time(fanout) * 1e3, updates)
    m["serving.cache.invalidate_ms_per_update"] = _ratio(
        sp.wall(sp.pick("serving.cache.invalidate")) * 1e3, updates
    )
    m["core.update_apply_ms"] = _ratio(
        sp.wall(sp.pick("sharding.replica.apply_update")) * 1e3, updates
    )
    if run.receipts:
        m["core.update_rebuild_fraction"] = statistics.mean(
            r.stats.rebuild_fraction for r in run.receipts
        )
        m["core.update_affected_sources"] = statistics.mean(
            r.num_affected for r in run.receipts
        )

    # ----- exec ----------------------------------------------------------
    results = sp.pick("exec.result", "closed")
    if results:
        submits = sp.pick("exec.submit", "closed")
        tasks = len(results)
        m["exec.submit_ms_per_task"] = sp.wall(submits) * 1e3 / len(submits)
        m["exec.wait_ms_per_task"] = sp.wall(results) * 1e3 / tasks
        worker_wall = result_bytes = round_trip = 0.0
        for sid in results:
            submit_sid, (wall, nbytes) = spans[sid][VALUE]
            worker_wall += wall
            result_bytes += nbytes
            round_trip += spans[sid][END] - spans[submit_sid][START]
        m["exec.worker_compute_ms_per_task"] = worker_wall * 1e3 / tasks
        m["exec.ipc_overhead_ms_per_task"] = (round_trip - worker_wall) * 1e3 / tasks
        m["exec.result_bytes_per_task"] = result_bytes / tasks
        m["exec.pool_start_s"] = dep.timings["pool_start_s"]
        m["exec.arena_bytes"] = float(run.arena_bytes)
        m["exec.serial_ref_qps"] = run.serial_ref_qps
        m["exec.speedup_vs_serial"] = _ratio(
            median(run.closed.block_rates), run.serial_ref_qps
        )

    # ----- distributed and core -----------------------------------------
    engines = sp.pick("core.engine.", "closed") + sp.pick("distributed.runtime.", "closed")
    engine_wall = sp.wall(engines)
    engine_rows = sum(v or 0 for v in sp.values(engines))
    if results:  # the engines ran in the workers
        engine_wall = worker_wall
        engine_rows = sum(spans[s][VALUE] or 0 for s in batch_roots)
    if dep.runtime is not None:
        machine = sp.wall(sp.pick("distributed.machine.submit", "closed"))
        aggregates = sp.pick("distributed.coordinator.aggregate", "closed")
        m["distributed.machine_compute_ms_per_batch"] = _ratio(machine * 1e3, batches)
        m["distributed.finish_ms_per_query"] = _ratio(
            (engine_wall - machine) * 1e3, engine_rows
        )
        m["distributed.aggregate_us_per_query"] = _ratio(
            sp.wall(aggregates) * 1e6, len(aggregates)
        )
        m["distributed.messages_per_query"] = _ratio(
            c1.coordinator_messages - c0.coordinator_messages, engine_rows
        )
        m["distributed.meter_bytes_per_query"] = _ratio(
            c1.coordinator_bytes - c0.coordinator_bytes, engine_rows
        )
    m["core.engine_ms_per_batch"] = _ratio(engine_wall * 1e3, batches)
    m["core.engine_us_per_row"] = _ratio(engine_wall * 1e6, engine_rows)

    # ----- set-up, probes, the trace itself -----------------------------
    for key in ("graph_s", "index_build_s", "deploy_s", "warmup_s"):
        m[f"setup.{key}"] = dep.timings[key]
    m.update(run.probes)
    m["trace.overhead_share"] = 1.0 - _ratio(
        median(run.closed.block_rates), median(run.reference_rates)
    )
    m["trace.span_cost_us"] = _span_cost_us()
    return m
