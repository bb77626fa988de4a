"""The shard router: a ``QueryBackend`` that fans batches across shards.

This is the paper's one-round fan-out/merge protocol lifted to the
serving tier: where the distributed runtimes broadcast one node id and
sum one sparse vector per machine (Sections 3.1/4.4, Theorem 4), the
:class:`ShardRouter` splits a ``query_many`` batch across per-partition
shards — each a replica group able to answer its share outright — and
scatters the per-shard answers back into batch order.  Because the
router *is* a :class:`~repro.serving.adapters.QueryBackend`, it drops
behind :class:`~repro.serving.service.PPVService` unchanged: micro-batch
window in front, partition fan-out behind, per-shard caches in between.

Construction composes the repo's layers::

    part   = flat_partition(graph, 8)                  # partition/
    index  = build_gpa_index(graph, 8, partition=part)  # core/
    owner  = owner_map_from_partition(part, num_shards=4)
    router = ShardRouter([[index, index]] * 4, policy="owner",
                         owner_map=owner, cache_bytes=32 << 20)
    service = PPVService(router, window=0.005)          # serving/

A distributed runtime plugs in the same way — its ``owner_map()`` is the
affinity map and the runtime itself (or one deployment per shard) the
replica engine.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.core.flat_index import validate_batch
from repro.core.updates import EdgeUpdate, UpdateReceipt
from repro.distributed.network import NetworkMeter
from repro.errors import QueryError, ShardingError
from repro.serving.adapters import QueryBackend
from repro.serving.cache import CacheStats, PPVCache
from repro.serving.service import SystemClock
from repro.sharding.resilience import ResilienceStats, RetryPolicy
from repro.sharding.rollout import StaggeredRollout
from repro.sharding.routing import RoutingPolicy, resolve_policy
from repro.sharding.shard import RouteInfo, Shard

if TYPE_CHECKING:
    from repro.exec.backend import ExecutionBackend
    from repro.faults.injector import FaultInjector

__all__ = ["ShardStats", "ShardRouter"]


@dataclass
class ShardStats:
    """Traffic report of one :class:`ShardRouter`, per shard.

    ``bytes_by_shard`` counts both legs of each router↔shard link;
    ``busy_seconds_by_shard`` sums replica compute per shard, so
    ``makespan_seconds`` (the slowest shard) is the simulated parallel
    wall time of the whole run — shards ship nothing to each other, so
    like the paper's runtime metric the fleet is as fast as its slowest
    member.
    """

    policy: str
    queries_by_shard: list[int]
    batches_by_shard: list[int]
    bytes_by_shard: list[int]
    busy_seconds_by_shard: list[float]
    cache: CacheStats | None
    resilience: ResilienceStats | None = None
    """Fault-handling counters (retries, hedges, degraded/shed rows) —
    always present on routers built by :class:`ShardRouter`, ``None``
    only for hand-built stats."""

    @property
    def num_shards(self) -> int:
        return len(self.queries_by_shard)

    @property
    def total_queries(self) -> int:
        return sum(self.queries_by_shard)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_shard)

    @property
    def load_imbalance(self) -> float:
        """max/mean of per-shard queries (1.0 = perfectly balanced)."""
        mean = self.total_queries / max(1, self.num_shards)
        return (max(self.queries_by_shard) / mean) if mean > 0 else 1.0

    @property
    def makespan_seconds(self) -> float:
        return max(self.busy_seconds_by_shard, default=0.0)

    @property
    def busy_total_seconds(self) -> float:
        return sum(self.busy_seconds_by_shard)


class ShardRouter(QueryBackend):
    """Fan ``query_many`` batches out to per-partition replica shards.

    ``shard_engines`` is one replica group per shard — a list of servable
    engines (or ready :class:`~repro.serving.adapters.QueryBackend` /
    :class:`~repro.sharding.replica.Replica` objects) per entry; a bare
    engine is a single-replica shard.  ``policy`` is ``"owner"`` (needs
    ``owner_map``), ``"round_robin"``, ``"least_loaded"`` or any
    :class:`~repro.sharding.routing.RoutingPolicy` instance.

    ``cache_bytes`` gives every shard its own LRU
    :class:`~repro.serving.cache.PPVCache` — the stack's one result
    cache; per-shard traffic is metered through one shared
    :class:`~repro.distributed.network.NetworkMeter`.
    Answers are exact — byte-identical routing policies aside, every
    query is answered by a full replica of its shard, so the router
    matches an unsharded backend to 1e-12.
    """

    def __init__(
        self,
        shard_engines: list[Any],
        *,
        policy: RoutingPolicy | str = "round_robin",
        owner_map: np.ndarray | None = None,
        cache_bytes: int | None = None,
        clock: Any = None,
        backend: ExecutionBackend | None = None,
        resilience: RetryPolicy | None = None,
    ) -> None:
        if not shard_engines:
            raise ShardingError("need at least one shard")
        self.clock = clock if clock is not None else SystemClock()
        self.meter = NetworkMeter()
        # Resilience policy shared by every shard (None = legacy
        # failover only); one stats block reports the whole fleet's
        # retry/hedge/degradation overhead.  A FaultInjector attaches
        # itself here so batch entry points pump its schedule.
        self.resilience = resilience
        self.res_stats = ResilienceStats()
        self.fault_injector: FaultInjector | None = None
        # Execution seam, shared by every shard: with a process-pool
        # backend the router's two-phase fan-out (submit to all shards,
        # then finish in order) runs shard replicas concurrently in
        # worker processes; the default None serves inline as before.
        self.exec_backend = backend
        self.shards: list[Shard] = []
        for sid, group in enumerate(shard_engines):
            if not isinstance(group, (list, tuple)):
                group = [group]
            cache = PPVCache(cache_bytes) if cache_bytes is not None else None
            self.shards.append(
                Shard(
                    sid,
                    list(group),
                    cache=cache,
                    meter=self.meter,
                    clock=self.clock,
                    backend=backend,
                    resilience=resilience,
                    res_stats=self.res_stats,
                )
            )
        sizes = {shard.num_nodes for shard in self.shards}
        if len(sizes) != 1:
            raise ShardingError(
                f"shards disagree on num_nodes: {sorted(sizes)}"
            )
        super().__init__(engine=None, num_nodes=sizes.pop())
        self.policy = resolve_policy(policy, owner_map)
        self.batches = 0
        self.epoch = 0
        self._rollout: StaggeredRollout | None = None

    def close(self) -> None:
        """Drop every replica's worker-side registration.

        The execution backend is the caller's and stays open, so one
        pool can serve successive routers; a router dropped without
        ``close`` releases its registrations when it is collected.
        """
        for shard in self.shards:
            for replica in shard.replicas:
                replica.reset_exec()

    # ----- live updates -------------------------------------------------
    def apply_update(self, update: EdgeUpdate) -> UpdateReceipt:
        """Fan one edge update to every replica of every shard at once.

        Shared engine objects are updated a single time (replicas rebind
        to the successor index), per-shard caches drop exactly the
        affected rows, update messages are metered on each router↔shard
        link, and the router epoch bumps when anything changed.  Use
        :meth:`begin_rollout` instead to keep every shard serving while
        replicas flip one wave at a time.
        """
        if self._rollout is not None and not self._rollout.done:
            raise ShardingError(
                "a staggered rollout is in progress — finish it before "
                "applying further updates"
            )
        shared: dict[Any, Any] = {}
        receipt: UpdateReceipt | None = None
        for shard in self.shards:
            receipt = shard.apply_update(update, shared)
        if receipt.changed:
            self.epoch += 1
        return receipt.at_epoch(self.epoch)

    def begin_rollout(
        self, update: EdgeUpdate, *, update_seconds: float = 0.0
    ) -> StaggeredRollout:
        """Start a staggered rollout of ``update``: each
        :meth:`~repro.sharding.rollout.StaggeredRollout.step` flips one
        replica per shard and routes traffic away from it for
        ``update_seconds`` of clock time, so the group keeps serving
        (shards need ≥ 2 replicas for that).  Queries interleaved between
        waves are answered at the epoch of whichever replica serves them
        — see :class:`~repro.sharding.shard.RouteInfo`."""
        if self._rollout is not None and not self._rollout.done:
            raise ShardingError("a staggered rollout is already in progress")
        self._rollout = StaggeredRollout(self, update, update_seconds)
        return self._rollout

    # ----- failover convenience ----------------------------------------
    def mark_down(
        self, shard: int, replica: int, *, for_seconds: float | None = None
    ) -> None:
        """Take one replica of one shard out of rotation."""
        self.shards[shard].mark_down(replica, for_seconds=for_seconds)

    def mark_up(self, shard: int, replica: int) -> None:
        self.shards[shard].mark_up(replica)

    # ----- QueryBackend interface --------------------------------------
    supports_sparse = True  # native sparse fan-out below

    def _pump_faults(self) -> None:
        """Fire any scheduled faults the clock has passed (no-op without
        an attached :class:`~repro.faults.injector.FaultInjector`)."""
        if self.fault_injector is not None:
            self.fault_injector.pump()

    def _fan_out(
        self,
        nodes: np.ndarray,
        submit: Callable[[Shard, np.ndarray], Any],
        finish: Callable[[Shard, Any], tuple[Any, ...]],
        merge: Callable[..., None],
    ) -> list[RouteInfo]:
        """Route a validated batch, call its shards, merge their answers.

        Two phases: ``submit`` every shard's share before ``finish``-ing
        any, so a process-pool backend computes the shards in parallel;
        shards finish in ascending id order, so the merge is
        deterministic.  ``finish`` returns the shard's result followed
        by its :class:`RouteInfo` list; ``merge(rows, *result)`` places
        the result (``rows``: the share's positions in the batch) and the
        infos are scattered back into batch order.  An empty batch
        touches nothing.
        """
        infos: list[Any] = [None] * nodes.size  # every slot filled below
        if nodes.size == 0:
            return infos
        self._pump_faults()
        assigned = self.policy.assign(nodes, self)
        self.batches += 1
        plans = []
        for sid in np.unique(assigned).tolist():
            rows = np.nonzero(assigned == sid)[0]
            shard = self.shards[sid]
            plans.append((shard, rows, submit(shard, nodes[rows])))
        for shard, rows, plan in plans:
            *result, shard_infos = finish(shard, plan)
            merge(rows, *result)
            for r, info in zip(rows.tolist(), shard_infos):
                infos[r] = info
        return infos

    def query_many(
        self,
        nodes: Sequence[int] | np.ndarray,
        *,
        collect_stats: bool = True,
    ) -> tuple[np.ndarray, list[RouteInfo]]:
        """Route, fan out, merge: dense ``(len(nodes), n)`` rows in batch
        order plus one :class:`~repro.sharding.shard.RouteInfo` each.

        ``collect_stats`` exists for interface uniformity with the other
        backends: shards already skip engine-level stats on their
        replicas (the metadata is discarded there), and the
        :class:`RouteInfo` list — the router's own cheap metadata, which
        carries the per-row epoch — is always returned.
        """
        del collect_stats  # see docstring
        nodes = validate_batch(nodes, self.num_nodes)
        out = np.empty((nodes.size, self.num_nodes))

        def place(rows: np.ndarray, dense: np.ndarray) -> None:
            out[rows] = dense

        infos = self._fan_out(
            nodes,
            lambda shard, part: shard.query_many_submit(part),
            lambda shard, plan: shard.query_many_finish(plan),
            place,
        )
        return out, infos

    def query_many_sparse(
        self,
        nodes: Sequence[int] | np.ndarray,
        *,
        collect_stats: bool = True,
    ) -> tuple[Any, ...]:
        """Route, fan out, merge — sparse: CSR ``(len(nodes), n)`` rows
        in batch order plus one :class:`RouteInfo` each.

        Each shard serves its share as sparse rows over the metered link
        (``16 + 12·nnz`` bytes per row instead of dense ``8n``), shard
        caches hold :class:`~repro.core.sparsevec.SparseVec` entries at
        their true-nnz cost, and the merged matrix's ``toarray()`` equals
        :meth:`query_many` exactly.
        """
        del collect_stats  # see query_many
        nodes = validate_batch(nodes, self.num_nodes)
        parts: list[Any] = []
        positions: list[np.ndarray] = []

        def collect(rows: np.ndarray, mat: Any) -> None:
            parts.append(mat)
            positions.append(rows)

        infos = self._fan_out(
            nodes,
            lambda shard, part: shard.query_many_sparse_submit(part),
            lambda shard, plan: shard.query_many_sparse_finish(plan),
            collect,
        )
        if not parts:
            return sp.csr_matrix((0, self.num_nodes)), infos
        stacked = parts[0] if len(parts) == 1 else sp.vstack(parts, format="csr")
        inv = np.empty(nodes.size, dtype=np.int64)
        inv[np.concatenate(positions)] = np.arange(nodes.size)
        return stacked[inv], infos

    def query_many_topk(
        self,
        nodes: Sequence[int] | np.ndarray,
        k: int,
        *,
        threshold: float | None = None,
        sparse: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, list[RouteInfo]]:
        """Routed top-k: the k-cut (and ``threshold`` score cut) runs
        shard-side, so only ``(rows, k)`` ids/scores cross each link.
        ``sparse=True`` makes every shard serve and reduce its rows
        sparsely (identical ids/scores, no dense chunk shard-side)."""
        if k <= 0:
            raise QueryError("k must be positive")
        nodes = validate_batch(nodes, self.num_nodes)
        k_eff = min(k, self.num_nodes)
        ids = np.empty((nodes.size, k_eff), dtype=np.int64)
        scores = np.empty((nodes.size, k_eff))

        def place(rows: np.ndarray, s_ids: np.ndarray, s_scores: np.ndarray) -> None:
            ids[rows] = s_ids
            scores[rows] = s_scores

        infos = self._fan_out(
            nodes,
            lambda shard, part: part,  # one blocking call per shard
            lambda shard, part: shard.query_many_topk(
                part, k, threshold=threshold, sparse=sparse
            ),
            place,
        )
        return ids, scores, infos

    # ----- reporting ----------------------------------------------------
    def stats(self) -> ShardStats:
        """Per-shard traffic, compute makespan and aggregated cache stats."""
        bytes_by_shard = []
        for shard in self.shards:
            name = f"shard-{shard.shard_id}"
            bytes_by_shard.append(
                self.meter.by_link.get(("router", name), 0)
                + self.meter.by_link.get((name, "router"), 0)
            )
        cache = None
        if any(shard.cache is not None for shard in self.shards):
            cache = CacheStats()
            for shard in self.shards:
                if shard.cache is not None:
                    cache.hits += shard.cache.stats.hits
                    cache.misses += shard.cache.stats.misses
                    cache.evictions += shard.cache.stats.evictions
                    cache.inserts += shard.cache.stats.inserts
        return ShardStats(
            policy=self.policy.name,
            queries_by_shard=[shard.queries for shard in self.shards],
            batches_by_shard=[shard.batches for shard in self.shards],
            bytes_by_shard=bytes_by_shard,
            busy_seconds_by_shard=[
                sum(r.busy_seconds for r in shard.replicas)
                for shard in self.shards
            ],
            cache=cache,
            resilience=self.res_stats,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardRouter: {len(self.shards)} shard(s), "
            f"policy {self.policy.name!r}>"
        )
