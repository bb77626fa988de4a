"""Load generation and answer checking for the e2e benchmark.

One process, one thread drives every phase:

* **closed loop** — the stream is pushed with ``submit`` under an
  effectively infinite window, so the service flushes on ``max_batch``
  only (``max_batch`` waiting clients); each block is timed as a whole
  and a client reads every ticket of a batch before the next one starts;
* **open loop** — requests are due at ``i / rate``, the generator spins
  on ``service.poll()`` between arrivals, and each request is timed from
  its *due* time to ``ticket.resolved_at``; the phase is five segments,
  each its own drained schedule;
* **updates** — one ``apply_update`` at a time, each timed.

Every phase samples served rows and compares them bitwise with the
unsharded engine's own answer, and a few of them with power iteration.
Exceptions, ``shed``/``degraded`` tickets and mismatching rows all count
as failed requests.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import power_iteration_ppv
from repro.core.sparse_ops import row_sparsevec
from workloads import (
    CLOSED_WINDOW_SECONDS,
    TOPK_K,
    WINDOW_SECONDS,
    Deployment,
)

__all__ = [
    "Tally",
    "ClosedResult",
    "OpenResult",
    "warm_up",
    "closed_phase",
    "open_segment",
    "update_phase",
    "check_served",
    "CHECK_ROWS",
    "EXACT_ROWS",
    "wire_bytes",
    "peak_rss_mb",
    "median",
]

CHECK_ROWS = 64
"""Served rows sampled per phase (at least) for the bitwise check."""

EXACT_ROWS = 8
"""Of each checked sample, rows also compared with power iteration."""

EXACT_ATOL_FACTOR = 5.0
"""Served rows must sit within ``5 * (tol + prune)`` of power iteration:
the index's own truncation, with room, and two orders of magnitude below
what a wrong row would show."""


@dataclass
class Tally:
    """Requests attempted and failed across every phase of one run."""

    attempted: int = 0
    failed: int = 0
    checked_rows: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def median(values: list[float]) -> float:
    """The median, or 0 when a failed phase left nothing to take it of."""
    return statistics.median(values) if values else 0.0


def wire_bytes(dep: Deployment) -> int:
    """Metered bytes so far: router↔shard links plus, where the engine
    is a distributed runtime, its coordinator↔machine links."""
    total = dep.router.meter.total_bytes
    if dep.runtime is not None:
        total += dep.runtime.coordinator.meter.total_bytes
    return int(total)


def peak_rss_mb(dep: Deployment) -> float:
    """Peak resident set of this process plus its worker children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + dep.worker_rss_mb


# ----------------------------------------------------------------------
# Answer checking
# ----------------------------------------------------------------------
def _reference(dep: Deployment, nodes: np.ndarray) -> Any:
    engine = dep.engine()
    w = dep.workload
    if w.topk:
        ids, scores, _ = engine.query_many_topk(nodes, TOPK_K)
        return ids, scores
    if w.sparse:
        return engine.query_many_sparse(nodes, collect_stats=False)[0]
    return engine.query_many(nodes, collect_stats=False)[0]


def _same(dep: Deployment, served: Any, ref: Any, j: int) -> bool:
    w = dep.workload
    if w.topk:
        return np.array_equal(served[0], ref[0][j]) and np.array_equal(
            served[1], ref[1][j]
        )
    if w.sparse:
        row = row_sparsevec(ref, j)
        return np.array_equal(served.idx, row.idx) and np.array_equal(
            served.val, row.val
        )
    return np.array_equal(served, ref[j])


def _exact_error(dep: Deployment, node: int, served: Any, graph: Any) -> float:
    exact = power_iteration_ppv(graph, node, tol=1e-10)
    w = dep.workload
    if w.topk:
        ids, scores = served
        keep = ids >= 0
        return float(np.abs(scores[keep] - exact[ids[keep]]).max(initial=0.0))
    if w.sparse:
        served = served.to_dense(graph.num_nodes)
    return float(np.abs(served - exact).max())


def check_served(dep: Deployment, pairs: list[tuple[int, Any]], tally: Tally) -> None:
    """Compare sampled ``(node, served answer)`` pairs with the engine.

    Bitwise against the unsharded engine's own batch call (dense rows,
    ``(idx, val)`` of sparse rows, ids and scores of top-k rows), and the
    first :data:`EXACT_ROWS` of them against power iteration on the
    engine's current graph at the index tolerance.
    """
    if not pairs:
        return
    nodes = np.unique(np.asarray([u for u, _ in pairs], dtype=np.int64))
    ref = _reference(dep, nodes)
    tally.checked_rows += len(pairs)
    bad = 0
    for u, served in pairs:
        j = int(np.searchsorted(nodes, u))
        if not _same(dep, served, ref, j):
            bad += 1
    if bad:
        tally.fail(bad, f"{bad} served row(s) differ bitwise from the engine")
    engine = dep.engine()
    index = getattr(engine, "index", engine)  # a runtime carries its index
    atol = EXACT_ATOL_FACTOR * (index.tol + (index.prune or 0.0))
    for u, served in pairs[:EXACT_ROWS]:
        err = _exact_error(dep, u, served, index.graph)
        if not err <= atol:
            tally.fail(1, f"node {u}: |served - power iteration| = {err:.3g} > {atol:.3g}")


class _Sampler:
    """Seeded positions of a phase whose answers are kept for checking:
    at least ``count`` in all, the same number from each of ``strata``
    equal slices (a closed phase checks every block on its own)."""

    def __init__(self, total: int, count: int, seed: int, strata: int = 1) -> None:
        rng = np.random.default_rng(seed)
        per = total // strata
        each = min(per, -(-count // strata))
        self.positions: set[int] = set()
        for s in range(strata):
            picks = rng.choice(per, size=each, replace=False) + s * per
            self.positions.update(picks.tolist())
        self.pairs: list[tuple[int, Any]] = []

    def take(self) -> list[tuple[int, Any]]:
        pairs, self.pairs = self.pairs, []
        return pairs


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@dataclass
class ClosedResult:
    requests: int = 0
    block_walls: list[float] = field(default_factory=list)
    block_rates: list[float] = field(default_factory=list)
    call_seconds: list[list[float]] = field(default_factory=list)  # top-k only
    wire_bytes: int = 0
    update_walls: list[float] = field(default_factory=list)
    receipts: list[Any] = field(default_factory=list)

    @property
    def read_rate(self) -> float:
        return self.requests / sum(self.block_walls)


def _run_service_block(
    dep: Deployment, nodes: list[int], base: int, sampler: _Sampler, tally: Tally
) -> float:
    """Submit one block; every full batch flushes inside its last submit
    and its tickets are read (status, sampled rows) before the next."""
    service = dep.service
    submit = service.submit
    mb = dep.workload.max_batch
    positions = sampler.positions
    bad = 0
    t0 = time.perf_counter()
    for lo in range(0, len(nodes), mb):
        tickets = [submit(u) for u in nodes[lo : lo + mb]]
        if service.pending:  # only a block's tail can be short of a batch
            service.flush()
        for k, ticket in enumerate(tickets):
            if not (ticket.done and ticket.status == "ok"):
                bad += 1
            elif base + lo + k in positions:
                sampler.pairs.append((ticket.node, ticket.result))
    wall = time.perf_counter() - t0
    if bad:
        tally.fail(bad, f"{bad} ticket(s) unresolved, shed or degraded")
    return wall


def _run_topk_block(
    dep: Deployment,
    nodes: np.ndarray,
    base: int,
    sampler: _Sampler,
    tally: Tally,
    calls: list[float],
) -> float:
    router = dep.router
    size = dep.workload.max_batch
    positions = sampler.positions
    bad = 0
    t0 = time.perf_counter()
    for lo in range(0, len(nodes), size):
        c0 = time.perf_counter()
        ids, scores, infos = router.query_many_topk(nodes[lo : lo + size], TOPK_K)
        calls.append(time.perf_counter() - c0)
        for k, info in enumerate(infos):
            if info.status != "ok":
                bad += 1
            elif base + lo + k in positions:
                sampler.pairs.append((int(nodes[lo + k]), (ids[k], scores[k])))
    wall = time.perf_counter() - t0
    if bad:
        tally.fail(bad, f"{bad} top-k row(s) shed or degraded")
    return wall


def run_block(
    dep: Deployment,
    nodes: np.ndarray,
    base: int,
    sampler: _Sampler,
    tally: Tally,
    calls: list[float],
) -> float:
    """One closed-loop block; returns its wall.  An exception fails the
    whole block (its requests are counted as attempted and failed)."""
    tally.attempted += len(nodes)
    try:
        if dep.workload.topk:
            return _run_topk_block(dep, nodes, base, sampler, tally, calls)
        return _run_service_block(dep, nodes.tolist(), base, sampler, tally)
    except Exception:
        tally.fail(len(nodes), traceback.format_exc(limit=4))
        return math.nan


def warm_up(dep: Deployment, nodes: np.ndarray, tally: Tally, seed: int) -> list[Any]:
    """Untimed first requests; returns the sampled pairs to check once
    set-up timing has stopped."""
    if dep.service is not None:
        dep.service.window = CLOSED_WINDOW_SECONDS
    sampler = _Sampler(len(nodes), CHECK_ROWS, seed)
    run_block(dep, nodes, 0, sampler, tally, [])
    return sampler.take()


def closed_phase(
    dep: Deployment,
    stream: np.ndarray,
    blocks: int,
    tally: Tally,
    *,
    seed: int,
    updates: list[Any] = (),
    update_every: int = 0,
    update_hook: Callable[[str], None] | None = None,
    after_block: Callable[[int], None] | None = None,
) -> ClosedResult:
    """``blocks`` equal closed-loop blocks; every ``update_every`` blocks
    one of ``updates`` is applied (timed apart from the reads).

    Each block's sampled answers are checked before the next update can
    change the graph under them.  ``after_block(b)`` runs between a
    block and the update that may follow it: the untraced run puts its
    open-loop segments there, so both phases sample a window about twice
    as long as either alone and a few seconds of a noisy neighbour can
    sway a minority of the blocks and segments, not most of them.
    """
    per = len(stream) // blocks
    sampler = _Sampler(
        per * blocks, max(CHECK_ROWS, blocks * EXACT_ROWS), seed, strata=blocks
    )
    result = ClosedResult()
    pending_updates = list(updates)
    for b in range(blocks):
        if dep.service is not None:
            dep.service.window = CLOSED_WINDOW_SECONDS
        nodes = stream[b * per : (b + 1) * per]
        calls: list[float] = []
        before = wire_bytes(dep)
        wall = run_block(dep, nodes, b * per, sampler, tally, calls)
        result.wire_bytes += wire_bytes(dep) - before
        if not math.isnan(wall):
            result.requests += per
            result.block_walls.append(wall)
            result.block_rates.append(per / wall)
            if calls:
                result.call_seconds.append(calls)
        check_served(dep, sampler.take(), tally)
        if after_block is not None:
            after_block(b)
        if update_every and (b + 1) % update_every == 0 and pending_updates:
            before = wire_bytes(dep)
            walls, receipts = update_phase(
                dep, [pending_updates.pop(0)], tally, update_hook
            )
            result.wire_bytes += wire_bytes(dep) - before
            result.update_walls += walls
            result.receipts += receipts
    return result


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class OpenResult:
    """The segments of one open-loop phase, in the order they ran."""

    rate: float
    submitted_at: list[np.ndarray] = field(default_factory=list)
    resolved_at: list[np.ndarray] = field(default_factory=list)
    lateness: list[np.ndarray] = field(default_factory=list)
    segment_p50_ms: list[float] = field(default_factory=list)
    segment_p99_ms: list[float] = field(default_factory=list)
    segment_slip: list[float] = field(default_factory=list)
    samples_per_segment: int = 0

    @property
    def gen_late_ms_p99(self) -> float:
        return float(np.percentile(np.concatenate(self.lateness), 99)) * 1e3

    @property
    def backlog_end(self) -> int:
        """Requests' worth of schedule a segment's last quarter slipped
        past its first quarter (median over segments), beyond one window:
        0 unless lateness *grows*, which is what a backlog is."""
        slip = statistics.median(self.segment_slip)
        return int(round(self.rate * max(0.0, slip - WINDOW_SECONDS)))

    @property
    def saturated(self) -> bool:
        """The schedule slipped further and further behind: latencies
        from this phase describe a growing backlog, not the service."""
        return self.backlog_end > 0


def open_segment(
    dep: Deployment,
    stream: np.ndarray,
    result: OpenResult,
    tally: Tally,
    *,
    seed: int,
    check_rows: int,
) -> None:
    """One fixed-schedule segment with a 5 ms batch window, appended to
    ``result``.

    Request *i* is due at ``i / rate``; latency runs from that due time,
    so a stall is charged to every request it delays.  One thread both
    generates and serves, so the generator is late by up to one flush;
    that lateness is part of the latency it is charged to and is
    reported (``gen_late_ms_p99``).  The segment ends drained.
    """
    service = dep.service
    service.window = WINDOW_SECONDS
    stats = service.stats
    submit, poll, clock = service.submit, service.poll, time.perf_counter
    rate = result.rate
    n = len(stream)
    nodes = stream.tolist()
    due = np.arange(n) / rate
    latencies = np.full(n, np.nan)
    submitted = np.empty(n)
    sampler = _Sampler(n, check_rows, seed)
    positions = sampler.positions
    inflight: list[tuple[int, Any]] = []
    bad = 0
    tally.attempted += n

    def settle(entries: list[tuple[int, Any]]) -> list[tuple[int, Any]]:
        """Read every resolved ticket; returns the ones still queued."""
        nonlocal bad
        waiting = []
        for j, ticket in entries:
            if not ticket.done:
                waiting.append((j, ticket))
            elif ticket.status != "ok":
                bad += 1
            else:
                latencies[j] = ticket.resolved_at - t0 - due[j]
                if j in positions:
                    sampler.pairs.append((ticket.node, ticket.result))
        return waiting

    try:
        seen = stats.batches
        t0 = clock()
        for i, u in enumerate(nodes):
            target = t0 + due[i]
            now = clock()
            while now < target:
                poll()
                now = clock()
            submitted[i] = now - t0
            inflight.append((i, submit(u)))
            if stats.batches != seen:  # a flush resolved tickets
                seen = stats.batches
                inflight = settle(inflight)
        while service.pending:
            poll()
        bad += len(settle(inflight))
    except Exception:
        tally.fail(int(np.isnan(latencies).sum()), traceback.format_exc(limit=4))
        return
    if bad:
        tally.fail(bad, f"{bad} open-loop ticket(s) unresolved, shed or degraded")
    lateness = submitted - due
    quarter = max(1, n // 4)
    result.segment_slip.append(
        float(np.median(lateness[-quarter:]) - np.median(lateness[:quarter]))
    )
    result.lateness.append(lateness)
    result.submitted_at.append(submitted + t0)
    result.resolved_at.append(latencies + due + t0)
    result.samples_per_segment = n
    done = latencies[~np.isnan(latencies)]
    if done.size:
        result.segment_p50_ms.append(float(np.percentile(done, 50)) * 1e3)
        result.segment_p99_ms.append(float(np.percentile(done, 99)) * 1e3)
    check_served(dep, sampler.take(), tally)


# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------
def update_phase(
    dep: Deployment,
    updates: list[Any],
    tally: Tally,
    hook: Callable[[str], None] | None = None,
) -> tuple[list[float], list[Any]]:
    """Apply updates one at a time through the deployment's front door
    (``PPVService.apply_update``; the router's for the batch client).
    ``hook("before")`` / ``hook("after")`` bracket each one (a traced run
    switches phase and re-proxies the swapped engine objects there)."""
    front = dep.service if dep.service is not None else dep.router
    walls: list[float] = []
    receipts: list[Any] = []
    for update in updates:
        tally.attempted += 1
        if hook is not None:
            hook("before")
        try:
            t0 = time.perf_counter()
            receipt = front.apply_update(update)
            walls.append(time.perf_counter() - t0)
        except Exception:
            tally.fail(1, traceback.format_exc(limit=4))
            continue
        finally:
            if hook is not None:
                hook("after")
        if not receipt.changed:
            tally.fail(1, f"update {update} changed nothing")
        receipts.append(receipt)
    return walls, receipts
