"""A shard: one partition's replica group plus its result cache.

A shard owns a group of :class:`~repro.sharding.replica.Replica` backends
(each able to answer any query of the deployment — in a real cluster each
would hold a copy of the partition's precomputed owned-hub vectors), an
optional per-shard :class:`~repro.serving.cache.PPVCache`, and the wire
accounting of its link to the router.  Replica selection is deterministic:
the healthy replica with the fewest served queries wins, ties going to
the lowest replica id, so a marked-down replica's traffic reroutes to its
siblings and drifts back after recovery — no randomness, fully testable
with a :class:`~repro.serving.service.SimulatedClock`.  Every shard
serves under a :class:`~repro.sharding.resilience.RetryPolicy` (the
default ``RetryPolicy()`` unless the router passes one) and keeps one
:class:`~repro.sharding.resilience.CircuitBreaker` per replica.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.flat_index import topk_in_batches, validate_batch
from repro.core.sparse_ops import row_sparsevec
from repro.core.sparsevec import WIRE_ENTRY_BYTES, WIRE_HEADER_BYTES, SparseVec
from repro.core.stacked import rows_matrix
from repro.core.updates import UPDATE_WIRE_BYTES, EdgeUpdate, UpdateReceipt
from repro.distributed.network import NetworkMeter
from repro.errors import (
    DeadlineExceeded,
    ReplicaUnavailable,
    ShardingError,
    TransientFault,
    WorkerDied,
)
from repro.serving.cache import PPVCache
from repro.serving.service import SystemClock
from repro.sharding.replica import Replica
from repro.sharding.resilience import (
    CircuitBreaker,
    ResilienceStats,
    RetryPolicy,
    charge_wait,
)

if TYPE_CHECKING:
    from repro.exec.backend import ExecutionBackend

__all__ = ["RouteInfo", "Shard", "NODE_ID_WIRE_BYTES", "TOPK_ENTRY_WIRE_BYTES"]

NODE_ID_WIRE_BYTES = 8
"""Bytes per node id on the router→shard request leg."""

TOPK_ENTRY_WIRE_BYTES = 16
"""Bytes per (id, score) pair on a top-k response row."""


@dataclass(frozen=True)
class RouteInfo:
    """Per-query routing record returned as ``query_many`` metadata.

    ``replica`` is ``-1`` for rows answered from the shard's cache
    (no replica did any work).  ``epoch`` is the graph version of the
    answer — the serving replica's epoch, or the shard's completed epoch
    for cache hits; mid-rollout it tells exactly which version each row
    reflects.

    ``status`` is the degradation contract: ``"ok"`` rows are exact,
    fresh answers (bitwise-equal to a fault-free run no matter what
    failover produced them); ``"degraded"`` rows were served from the
    shard cache while the partition's replicas were unreachable (exact
    values, but freshness could not be confirmed); ``"shed"`` rows
    carry *zeros* — the shard had no replica and no cached row, and the
    router explicitly refused to invent an answer.  ``latency_seconds``
    is the modeled extra latency of the serving attempt (injected
    straggler delay under fault injection; 0.0 otherwise).
    """

    shard: int
    replica: int
    cached: bool
    epoch: int = 0
    status: str = "ok"
    latency_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether this row is a fresh exact answer."""
        return self.status == "ok"


class _PendingBatch:
    """One routed batch between its submit and finish halves.

    The router submits one of these per shard before finishing any of
    them, so with a process-pool execution backend every shard's worker
    computes concurrently — the real fan-out the serial loop simulates.
    """

    __slots__ = (
        "nodes",
        "sparse",
        "out",
        "row_vecs",
        "infos",
        "miss_rows",
        "unique",
        "inverse",
        "replica",
        "future",
        "failed",
    )


class Shard:
    """One partition's replica group behind the router, serving under
    one :class:`~repro.sharding.resilience.RetryPolicy`."""

    def __init__(
        self,
        shard_id: int,
        replicas: list[Any],
        *,
        cache: PPVCache | None = None,
        meter: NetworkMeter | None = None,
        clock: Any = None,
        backend: ExecutionBackend | None = None,
        resilience: RetryPolicy = RetryPolicy(),
        res_stats: ResilienceStats | None = None,
    ) -> None:
        if not replicas:
            raise ShardingError(f"shard {shard_id} needs at least one replica")
        self.shard_id = int(shard_id)
        self.replicas = [
            r if isinstance(r, Replica) else Replica(r, i)
            for i, r in enumerate(replicas)
        ]
        sizes = {r.num_nodes for r in self.replicas}
        if len(sizes) != 1:
            raise ShardingError(
                f"shard {shard_id} replicas disagree on num_nodes: {sorted(sizes)}"
            )
        self.num_nodes = sizes.pop()
        self.cache = cache
        self.meter = meter if meter is not None else NetworkMeter()
        # Real time by default so a standalone shard's timed outages
        # still elapse; the router injects its own (possibly simulated)
        # clock so failover scenarios replay deterministically.
        self.clock = clock if clock is not None else SystemClock()
        # Execution seam: None serves replicas inline; an
        # ExecutionBackend offloads replica compute (a worker that dies
        # twice at submit marks its replica down, see _submit_compute).
        self.exec_backend = backend
        self.queries = 0  # rows served, cached or computed
        self.batches = 0
        self._held: set[int] | None = None
        # Resilience policy: bounded retries with backoff, per-attempt
        # deadlines, hedging, and one circuit breaker per replica (indexed
        # by replica id).  The stats block is shared across a router's
        # shards so retry/hedge overhead is reported fleet-wide.
        self.resilience = resilience
        self.res_stats = res_stats if res_stats is not None else ResilienceStats()
        self.breakers = [
            CircuitBreaker(
                resilience.breaker_failures, resilience.breaker_reset_seconds
            )
            for _ in self.replicas
        ]

    # ----- updates ------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The shard's *completed* graph version: the minimum across its
        replicas (mid-rollout some replicas run ahead)."""
        return min(r.epoch for r in self.replicas)

    def apply_update(
        self,
        update: EdgeUpdate,
        shared: dict[Any, Any] | None = None,
        *,
        replica: int | None = None,
    ) -> UpdateReceipt:
        """Fan one edge update to every replica (or just ``replica`` for a
        staggered-rollout wave), metering the update messages.

        When the whole group updated at once, the affected rows are
        dropped from the shard cache immediately; a staggered rollout
        manages cache validity itself via :meth:`begin_hold` /
        :meth:`release_hold`.
        """
        targets = (
            self.replicas if replica is None else [self.replicas[replica]]
        )
        receipt: UpdateReceipt | None = None
        for rep in targets:
            receipt = rep.apply_update(update, shared)
            self._record_wire(
                "router", f"shard-{self.shard_id}", UPDATE_WIRE_BYTES
            )
        if replica is None and receipt.changed and self.cache is not None:
            self.cache.invalidate(receipt.affected_sources)
        return receipt

    def begin_hold(self, nodes: np.ndarray) -> None:
        """Enter mid-rollout mode for the given affected nodes: their
        cached rows are dropped now and they bypass the cache (no lookups,
        no inserts) until :meth:`release_hold` — replicas at different
        epochs must not share rows through it.  Unaffected rows are
        identical at both epochs and keep serving from cache."""
        self._held = {int(x) for x in np.atleast_1d(np.asarray(nodes)).tolist()}
        if self.cache is not None:
            self.cache.invalidate(nodes)

    def release_hold(self) -> None:
        self._held = None

    # ----- failover -----------------------------------------------------
    def _now(self) -> float:
        return self.clock.now()

    def mark_down(self, replica: int, *, for_seconds: float | None = None) -> None:
        """Take one replica out of rotation (until ``mark_up``, or for
        ``for_seconds`` of clock time when given)."""
        until = None if for_seconds is None else self._now() + float(for_seconds)
        self.replicas[replica].mark_down(until=until)

    def mark_up(self, replica: int) -> None:
        self.replicas[replica].mark_up()

    def pick_replica(self, exclude: Collection[int] = ()) -> Replica:
        """Deterministic choice: least served queries among healthy
        replicas, ties to the lowest replica id.

        Replicas in ``exclude`` (already tried for this batch) are
        passed over, as are replicas whose circuit breaker is open — but
        an open breaker never makes the shard unavailable: when every
        healthy candidate's breaker is open the breakers are bypassed
        (counted in ``breaker_skips``) rather than failing the batch.
        """
        now = self._now()
        healthy = [
            r
            for r in self.replicas
            if r.replica_id not in exclude and r.is_up(now)
        ]
        candidates = [r for r in healthy if self.breakers[r.replica_id].allow(now)]
        if len(candidates) < len(healthy):
            self.res_stats.breaker_skips += len(healthy) - len(candidates)
        if not candidates:
            candidates = healthy  # availability beats the breakers
        best: Replica | None = None
        for replica in candidates:
            if best is None or replica.served_queries < best.served_queries:
                best = replica
        if best is None:
            raise ReplicaUnavailable(
                f"shard {self.shard_id}: every replica is marked down"
            )
        return best

    # ----- serving ------------------------------------------------------
    def _record_wire(self, sender: str, receiver: str, num_bytes: int) -> None:
        """Meter one message, retransmitting on injected link faults.

        Each lost/corrupt payload is retransmitted after a backoff
        (every send is charged: real retransmits pay the wire again);
        exhaustion raises :class:`~repro.errors.ReplicaUnavailable`
        chained to the last wire fault.
        """
        policy = self.resilience
        last_error: TransientFault | None = None
        for attempt in range(policy.max_attempts):
            try:
                self.meter.record(sender, receiver, num_bytes)
                return
            except TransientFault as exc:
                last_error = exc
                self.res_stats.retries += 1
                charge_wait(
                    self.clock,
                    policy.backoff(attempt, self.shard_id),
                    self.res_stats,
                )
                continue
        raise ReplicaUnavailable(
            f"shard {self.shard_id}: link {sender}->{receiver} kept "
            f"failing after {policy.max_attempts} send(s)"
        ) from last_error

    def _delivered(self, sender: str, receiver: str, num_bytes: int) -> bool:
        """Meter one batch payload; ``False`` when it was lost for good
        and the policy degrades (the caller sheds the batch), raising
        :class:`~repro.errors.ReplicaUnavailable` when it does not."""
        try:
            self._record_wire(sender, receiver, num_bytes)
        except ReplicaUnavailable:
            if not self.resilience.degrade:
                raise
            return False
        return True

    def _submit_to(self, replica: Replica, unique: np.ndarray, *, sparse: bool) -> Any:
        """Submit the batch to one replica's worker, retrying once on a
        transient :class:`~repro.errors.WorkerDied`: the execution key
        re-registers afresh (on a process pool that lands round-robin on
        a *different* worker), so one flaky worker doesn't force a
        mark-down.  A second death propagates for escalation."""
        try:
            return replica.exec_submit(self.exec_backend, unique, sparse=sparse)
        except WorkerDied:
            self.res_stats.worker_retries += 1
            replica.reset_exec()
            return replica.exec_submit(self.exec_backend, unique, sparse=sparse)

    def _submit_compute(
        self, unique: np.ndarray, *, sparse: bool, exclude: Collection[int] = ()
    ) -> tuple[Replica, Any]:
        """Pick a replica and hand it the deduplicated batch.

        Returns ``(replica, future)`` where ``future`` is ``None`` when
        the batch will be served inline at finish time (no execution
        backend, or an engine without a worker-side layout).  A worker
        that died twice before accepting the batch (see
        :meth:`_submit_to`) marks its replica down and the next healthy
        sibling is picked; :meth:`pick_replica` raises
        :class:`~repro.errors.ReplicaUnavailable` once none remain.
        """
        while True:
            replica = self.pick_replica(exclude=exclude)
            try:
                future = self._submit_to(replica, unique, sparse=sparse)
            except WorkerDied:
                self.mark_down(replica.replica_id)
                continue
            return replica, future

    @staticmethod
    def _serve_inline(replica: Replica, unique: np.ndarray, *, sparse: bool) -> Any:
        """Serve the batch on the replica itself (no worker future)."""
        serve = replica.query_many_sparse if sparse else replica.query_many
        return serve(unique)[0]

    def _resolve(
        self, replica: Replica, future: Any, unique: np.ndarray, *, sparse: bool
    ) -> Any:
        """Resolve one attempt's answer (inline serve or worker future),
        retrying a resolve-time worker death once in place."""
        if future is None:
            return self._serve_inline(replica, unique, sparse=sparse)
        try:
            result, wall = future.result()
        except WorkerDied:
            self.res_stats.worker_retries += 1
            replica.reset_exec()
            future = self._submit_to(replica, unique, sparse=sparse)
            if future is None:  # engine lost its worker-side layout
                return self._resolve(replica, None, unique, sparse=sparse)
            result, wall = future.result()
        replica.note_served(int(unique.size), wall)
        return result

    def _fail_and_rotate(
        self,
        replica: Replica,
        unique: np.ndarray,
        *,
        sparse: bool,
        attempt: int,
        tried: set[int],
    ) -> tuple[Replica, Any]:
        """Account one failed attempt, back off, resubmit elsewhere.

        The failed replica feeds its breaker and joins ``tried`` so the
        next pick prefers an untried sibling — it is *not* marked down:
        transient faults pass, and a replica that keeps failing is
        isolated by its breaker opening, which unlike a mark-down heals
        on its own after the cool-off.  When every candidate was tried
        the exclusion resets — a second lap beats giving up early.
        """
        if self.breakers[replica.replica_id].record_failure(self._now()):
            self.res_stats.breaker_opens += 1
        tried.add(replica.replica_id)
        charge_wait(
            self.clock,
            self.resilience.backoff(attempt, self.shard_id),
            self.res_stats,
        )
        try:
            return self._submit_compute(unique, sparse=sparse, exclude=tried)
        except ReplicaUnavailable:
            tried.clear()
            return self._submit_compute(unique, sparse=sparse)

    def _try_hedge(
        self,
        unique: np.ndarray,
        *,
        sparse: bool,
        primary: Replica,
        primary_delay: float,
    ) -> tuple[Replica, Any, float] | None:
        """Race a sibling against a slow primary (tail-latency hedging).

        The hedge launches ``hedge_after_seconds`` into the primary's
        wait, so its effective latency carries that head start.  Returns
        the winning ``(replica, future, effective_delay)``, or ``None``
        when no sibling can serve or the primary still wins — both
        attempts are charged either way; the stats show the overhead.
        """
        policy = self.resilience
        assert policy.hedge_after_seconds is not None
        stats = self.res_stats
        try:
            sibling = self.pick_replica(exclude={primary.replica_id})
        except ReplicaUnavailable:
            return None
        stats.hedges += 1
        stats.attempts += 1
        try:
            sibling_delay = sibling.probe_faults(self._now())
            effective = policy.hedge_after_seconds + sibling_delay
            if effective >= primary_delay:
                return None  # the primary still wins; the hedge was waste
            future = self._submit_to(sibling, unique, sparse=sparse)
        except TransientFault:
            return None  # the hedge failed; the primary attempt stands
        stats.hedge_wins += 1
        return sibling, future, effective

    def _finish_compute(
        self, replica: Replica, future: Any, unique: np.ndarray, *, sparse: bool
    ) -> tuple[Any, Replica, float]:
        """Resolve one submitted batch; returns ``(result, serving
        replica, modeled extra latency)``.  Bounded-retry resolve: probe
        → hedge → deadline → serve.

        Each attempt first probes the injected fault hook (point faults
        raise, stragglers report latency), hedges to a sibling when the
        primary is slower than ``hedge_after_seconds``, abandons the
        attempt past ``timeout_seconds``, then serves.  Transient
        failures rotate to a sibling after a jittered backoff charged to
        the clock.  On exhaustion: if *every* failure was a missed
        deadline the answer is served late by one more submit, probe and
        resolve (replicas are slow, not gone — an exact answer late
        beats shedding it, counted in ``deadline_overruns``); otherwise
        :class:`~repro.errors.ReplicaUnavailable` is raised chained to
        the last failure.
        """
        policy = self.resilience
        stats = self.res_stats
        last_error: Exception | None = None
        only_slow = True
        tried: set[int] = set()
        for attempt in range(policy.max_attempts):
            stats.attempts += 1
            if attempt:
                stats.retries += 1
            try:
                delay = replica.probe_faults(self._now())
                if (
                    policy.hedge_after_seconds is not None
                    and delay > policy.hedge_after_seconds
                ):
                    hedge = self._try_hedge(
                        unique,
                        sparse=sparse,
                        primary=replica,
                        primary_delay=delay,
                    )
                    if hedge is not None:
                        replica, future, delay = hedge
                if (
                    policy.timeout_seconds is not None
                    and delay > policy.timeout_seconds
                ):
                    stats.deadline_exceeded += 1
                    raise DeadlineExceeded(
                        f"shard {self.shard_id}: modeled attempt latency "
                        f"{delay:.4f}s exceeds the per-attempt deadline "
                        f"of {policy.timeout_seconds:.4f}s"
                    )
                result = self._resolve(replica, future, unique, sparse=sparse)
            except (TransientFault, DeadlineExceeded) as exc:
                last_error = exc
                if not isinstance(exc, DeadlineExceeded):
                    only_slow = False
                replica, future = self._fail_and_rotate(
                    replica, unique, sparse=sparse, attempt=attempt,
                    tried=tried,
                )
                continue
            self.breakers[replica.replica_id].record_success()
            return result, replica, delay
        if only_slow:
            # Every failure was a deadline: the fleet is slow, not gone.
            stats.deadline_overruns += 1
            replica, future = self._submit_compute(unique, sparse=sparse)
            delay = replica.probe_faults(self._now())
            result = self._resolve(replica, future, unique, sparse=sparse)
            return result, replica, delay
        raise ReplicaUnavailable(
            f"shard {self.shard_id}: gave up after {policy.max_attempts} "
            f"attempt(s)"
        ) from last_error

    def _plan(
        self, nodes: np.ndarray, *, sparse: bool, lost: bool = False
    ) -> _PendingBatch:
        """Submit half of one batch: cache scan, then replica hand-off.

        Cache hits are resolved immediately (dense path densifies sparse
        entries on read, sparse path sparsifies dense entries — same
        values either way); the deduplicated misses are submitted via
        :meth:`_submit_compute`.  Nodes under a mid-rollout hold bypass
        the cache in both directions.  ``lost``: the request payload
        never reached the shard — no cache scan, no compute, every row
        sheds at finish time.
        """
        plan = _PendingBatch()
        plan.nodes = nodes
        plan.sparse = sparse
        plan.out = None if sparse else np.empty((nodes.size, self.num_nodes))
        plan.row_vecs = [None] * nodes.size if sparse else None
        plan.infos = [None] * nodes.size
        miss_rows: list[int] = []
        plan.miss_rows = miss_rows
        plan.failed = lost
        plan.unique = plan.inverse = None
        plan.replica = plan.future = None
        if lost:
            return plan
        held = self._held if self._held is not None else ()
        if self.cache is not None:
            for i, u in enumerate(nodes.tolist()):
                hit = None if u in held else self.cache.get(u)
                if hit is None:
                    miss_rows.append(i)
                elif sparse:
                    plan.row_vecs[i] = (
                        hit
                        if isinstance(hit, SparseVec)
                        else SparseVec.from_dense(hit)
                    )
                    plan.infos[i] = RouteInfo(self.shard_id, -1, True, self.epoch)
                else:
                    if isinstance(hit, SparseVec):
                        plan.out[i] = hit.to_dense(self.num_nodes)
                    else:
                        plan.out[i] = hit
                    plan.infos[i] = RouteInfo(self.shard_id, -1, True, self.epoch)
        else:
            miss_rows.extend(range(nodes.size))
        if miss_rows:
            rows = np.asarray(miss_rows, dtype=np.int64)
            plan.unique, plan.inverse = np.unique(
                nodes[rows], return_inverse=True
            )
            try:
                plan.replica, plan.future = self._submit_compute(
                    plan.unique, sparse=sparse
                )
            except ReplicaUnavailable:
                if not self.resilience.degrade:
                    raise
                plan.failed = True  # finish serves degraded/shed rows
        return plan

    def _finish(self, plan: _PendingBatch) -> tuple[Any, ...]:
        """Finish half of one batch: resolve, scatter, fill the cache.

        Rows are epoch-tagged: cache hits carry the shard's completed
        epoch, computed rows the serving replica's.  The sparse return
        is one CSR matrix whose ``toarray()`` equals the dense path's
        result exactly.
        """
        if plan.failed:
            return self._finish_degraded(plan)
        if plan.miss_rows:
            try:
                result, replica, delay = self._finish_compute(
                    plan.replica, plan.future, plan.unique, sparse=plan.sparse
                )
            except ReplicaUnavailable:
                if not self.resilience.degrade:
                    raise
                return self._finish_degraded(plan)
            held = self._held if self._held is not None else ()
            info = RouteInfo(
                self.shard_id,
                replica.replica_id,
                False,
                replica.epoch,
                latency_seconds=delay,
            )
            if plan.sparse:
                unique_vecs = [
                    row_sparsevec(result, j) for j in range(plan.unique.size)
                ]
                for pos, i in enumerate(plan.miss_rows):
                    plan.row_vecs[i] = unique_vecs[plan.inverse[pos]]
                    plan.infos[i] = info
                if self.cache is not None:
                    for j, u in enumerate(plan.unique.tolist()):
                        if u in held:
                            continue
                        self.cache.put(u, unique_vecs[j])
            else:
                if len(plan.miss_rows) == plan.nodes.size:
                    # One gather; mode="clip" (no index is out of range)
                    # keeps take from buffering ``out`` in a second copy.
                    np.take(result, plan.inverse, 0, plan.out, mode="clip")
                else:
                    plan.out[plan.miss_rows] = result[plan.inverse]
                for i in plan.miss_rows:
                    plan.infos[i] = info
                if self.cache is not None:
                    for j, u in enumerate(plan.unique.tolist()):
                        if u in held:
                            continue
                        row = result[j].copy()
                        row.flags.writeable = False
                        self.cache.put(u, row)
        self.queries += int(plan.nodes.size)
        if plan.sparse:
            return rows_matrix(plan.row_vecs, self.num_nodes), plan.infos
        return plan.out, plan.infos

    def _finish_degraded(self, plan: _PendingBatch) -> tuple[Any, ...]:
        """Graceful degradation: failover exhausted with ``degrade`` on.

        Rows the cache already answered are kept and explicitly marked
        ``"degraded"`` — the values are exact (the cache only holds
        exact rows) but the dead partition could not confirm their
        freshness.  Rows with no cached answer are *shed*: zeros with
        ``status="shed"``, never an invented score.  The caller decides
        what a shed row means (the service surfaces it as an error-
        carrying ticket).
        """
        stats = self.res_stats
        for i in range(int(plan.nodes.size)):
            info = plan.infos[i]
            if info is not None:
                plan.infos[i] = RouteInfo(
                    info.shard,
                    info.replica,
                    info.cached,
                    info.epoch,
                    status="degraded",
                )
                stats.degraded_rows += 1
            else:
                plan.infos[i] = RouteInfo(
                    self.shard_id, -1, False, self.epoch, status="shed"
                )
                if plan.sparse:
                    plan.row_vecs[i] = SparseVec.empty()
                else:
                    plan.out[i] = 0.0
                stats.shed_rows += 1
        self.queries += int(plan.nodes.size)
        if plan.sparse:
            return rows_matrix(plan.row_vecs, self.num_nodes), plan.infos
        return plan.out, plan.infos

    def _shed_response(
        self, plan: _PendingBatch, infos: list[RouteInfo]
    ) -> tuple[Any, list[RouteInfo]]:
        """The response payload was lost for good: the router never saw
        these rows, so the whole batch sheds — computed work included."""
        n = int(plan.nodes.size)
        if plan.sparse:
            return rows_matrix([None] * n, self.num_nodes), self._shed(infos)
        return np.zeros((n, self.num_nodes)), self._shed(infos)

    def _shed(self, infos: Sequence[RouteInfo | None]) -> list[RouteInfo]:
        """Mark every row of a batch whose payload was lost for good
        ``status="shed"``, counting only the rows the serving path did
        not shed already (``None``: the row never reached it)."""
        self.res_stats.shed_rows += sum(
            info is None or info.status != "shed" for info in infos
        )
        shed = RouteInfo(self.shard_id, -1, False, self.epoch, status="shed")
        return [shed] * len(infos)

    def _submit(
        self, nodes: Sequence[int] | np.ndarray, *, sparse: bool
    ) -> _PendingBatch:
        """Start one routed batch: meter the request leg, scan the cache
        and submit the misses."""
        nodes = validate_batch(nodes, self.num_nodes)
        delivered = self._delivered(
            "router", f"shard-{self.shard_id}", NODE_ID_WIRE_BYTES * nodes.size
        )
        return self._plan(nodes, sparse=sparse, lost=not delivered)

    def _finish_metered(self, plan: _PendingBatch) -> tuple[Any, list[RouteInfo]]:
        """Finish a submitted batch and meter the response leg: dense
        ``8n``-byte rows, or each sparse row at its wire size
        (``16 + 12·nnz`` bytes)."""
        out, infos = self._finish(plan)
        self.batches += 1
        if plan.sparse:
            num_bytes = (
                WIRE_HEADER_BYTES * plan.nodes.size + WIRE_ENTRY_BYTES * out.nnz
            )
        else:
            num_bytes = out.nbytes
        if not self._delivered(f"shard-{self.shard_id}", "router", num_bytes):
            out, infos = self._shed_response(plan, infos)
        return out, infos

    def query_many_submit(
        self, nodes: Sequence[int] | np.ndarray
    ) -> _PendingBatch:
        """Start one routed dense batch; resolve with
        :meth:`query_many_finish`.  The router submits to every shard
        before finishing any, so shard workers overlap."""
        return self._submit(nodes, sparse=False)

    def query_many_finish(
        self, plan: _PendingBatch
    ) -> tuple[np.ndarray, list[RouteInfo]]:
        """Finish a batch from :meth:`query_many_submit`, metering the
        dense ``8n``-byte response rows."""
        return self._finish_metered(plan)

    def query_many_sparse_submit(
        self, nodes: Sequence[int] | np.ndarray
    ) -> _PendingBatch:
        """Sparse twin of :meth:`query_many_submit`."""
        return self._submit(nodes, sparse=True)

    def query_many_sparse_finish(self, plan: _PendingBatch) -> tuple[Any, ...]:
        """Finish a batch from :meth:`query_many_sparse_submit`, metering
        each response row at its sparse wire size — on pruned indexes a
        fraction of the dense ``8n``-byte rows, which is the bandwidth
        win of the sparse pipeline."""
        return self._finish_metered(plan)

    def query_many(
        self, nodes: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, list[RouteInfo]]:
        """Serve one routed batch of dense PPV rows, metering the wire.

        Request: ``8`` bytes per node id; response: one dense ``8n``-byte
        row per query — what a real router↔shard link would carry.
        """
        return self.query_many_finish(self.query_many_submit(nodes))

    def query_many_sparse(self, nodes: Sequence[int] | np.ndarray) -> tuple[Any, ...]:
        """Serve one routed batch as sparse CSR rows, metering the wire.

        Request: ``8`` bytes per node id; response: one *sparse* row per
        query at its wire size (``16 + 12·nnz`` bytes).
        """
        return self.query_many_sparse_finish(self.query_many_sparse_submit(nodes))

    def query_many_topk(
        self,
        nodes: Sequence[int] | np.ndarray,
        k: int,
        *,
        threshold: float | None = None,
        sparse: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, list[RouteInfo]]:
        """Shard-side top-k: rows reduced before they hit the wire.

        Only the ``(rows, k)`` ids/scores ship back to the router (16
        bytes per entry), never the rows — the whole point of pushing
        the k-cut (and the ``threshold`` score cut) to the shard.  With
        ``sparse=True`` the rows are served sparse and reduced by the
        exact sparse top-k, so not even a ``(batch, n)`` dense chunk
        exists shard-side; ids and scores are identical either way.
        """
        nodes = validate_batch(nodes, self.num_nodes)
        if not self._delivered(
            "router", f"shard-{self.shard_id}", NODE_ID_WIRE_BYTES * nodes.size
        ):
            # The rows never reach the serving path that counts them.
            self.batches += 1
            self.queries += int(nodes.size)
            return self._shed_topk(nodes, k, [None] * int(nodes.size))
        # Rows via cache + chosen replica, unmetered: only the k-cut ships.
        ids, scores, infos = topk_in_batches(
            lambda chunk: self._finish(self._plan(chunk, sparse=sparse)),
            nodes, k, self.num_nodes, threshold=threshold,
        )
        self.batches += 1
        if not self._delivered(
            f"shard-{self.shard_id}", "router", TOPK_ENTRY_WIRE_BYTES * ids.size
        ):
            return self._shed_topk(nodes, k, infos)
        return ids, scores, infos

    def _shed_topk(
        self, nodes: np.ndarray, k: int, infos: Sequence[RouteInfo | None]
    ) -> tuple[np.ndarray, np.ndarray, list[RouteInfo]]:
        """Shed one top-k batch whose request or response was lost for
        good: zero ids/scores, every row explicitly ``status="shed"``."""
        k_eff = min(int(k), self.num_nodes)
        return (
            np.zeros((nodes.size, k_eff), dtype=np.int64),
            np.zeros((nodes.size, k_eff)),
            self._shed(infos),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Shard {self.shard_id}: {len(self.replicas)} replica(s), "
            f"{self.queries} queries>"
        )
