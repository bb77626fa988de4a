"""Sharded query routing: fan ``PPVService`` batches out to replicas.

The paper's query protocol is one fan-out/merge round; this package is
that round at the serving tier.  A :class:`ShardRouter` — itself a
:class:`~repro.serving.adapters.QueryBackend`, so it drops behind
:class:`~repro.serving.service.PPVService` unchanged — owns a set of
:class:`Shard` replica groups, routes each query of a batch by a
pluggable :class:`~repro.sharding.routing.RoutingPolicy` (partition-owner
affinity, round-robin, least-loaded), merges per-shard answers back into
batch order, and meters every router↔shard byte.  Per-shard
:class:`~repro.serving.cache.PPVCache` instances (the stack's only
result cache: a service over a bare engine that wants one puts the
engine in a one-shard router), deterministic replica failover (mark
down / reroute / timed recovery under a
:class:`~repro.serving.service.SimulatedClock`) and a :class:`ShardStats`
report round out the subsystem.

Routers built with ``resilience=RetryPolicy(...)`` additionally get
bounded retries with deterministic-jitter backoff, per-attempt
deadlines, tail-latency hedging, per-replica circuit breakers and —
with ``degrade=True`` — graceful degradation (explicitly marked
``"degraded"``/``"shed"`` rows instead of errors when a whole partition
is unreachable).  This is the stack's one serve-stale path: the service
in front only passes the markers on, and sheds a flush its backend
fails outright.  See :mod:`repro.sharding.resilience` and the chaos
harness in :mod:`repro.faults`.
"""

from repro.sharding.replica import Replica
from repro.sharding.resilience import (
    CircuitBreaker,
    ResilienceStats,
    RetryPolicy,
    charge_wait,
)
from repro.sharding.rollout import StaggeredRollout
from repro.sharding.router import ShardRouter, ShardStats
from repro.sharding.routing import (
    LeastLoadedPolicy,
    OwnerAffinityPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    owner_map_from_partition,
)
from repro.sharding.shard import RouteInfo, Shard

__all__ = [
    "Replica",
    "Shard",
    "RouteInfo",
    "ShardRouter",
    "ShardStats",
    "StaggeredRollout",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilienceStats",
    "charge_wait",
    "RoutingPolicy",
    "OwnerAffinityPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "owner_map_from_partition",
]
