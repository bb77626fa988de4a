"""Sharded query routing: router-vs-flat exactness, policies, failover.

The subsystem contract mirrors serving's: whatever path a batch takes —
owner-affinity, round-robin, least-loaded, through per-shard caches,
across a replica failure — the merged answer must match the unsharded
backend to 1e-12.
"""

import numpy as np
import pytest

from repro.distributed import DistributedGPA, NetworkMeter
from repro.errors import QueryError, ServingError, ShardingError
from repro.serving import PPVCache, PPVService, SimulatedClock, as_backend
from repro.sharding import (
    LeastLoadedPolicy,
    OwnerAffinityPolicy,
    Replica,
    RoundRobinPolicy,
    Shard,
    ShardRouter,
    owner_map_from_partition,
)

ATOL = 1e-12
POLICIES = ("owner", "round_robin", "least_loaded")


@pytest.fixture(scope="module")
def owner_map(request):
    index = request.getfixturevalue("gpa_small")
    return owner_map_from_partition(index.partition, 4)


@pytest.fixture()
def router4(request, owner_map):
    """Fresh 4-shard, 2-replica router per test (stats/failover isolate)."""
    index = request.getfixturevalue("gpa_small")

    def build(policy="owner", **kwargs):
        kwargs.setdefault("owner_map", owner_map)
        kwargs.setdefault("clock", SimulatedClock())
        return ShardRouter([[index, index]] * 4, policy=policy, **kwargs)

    return build


def _stream(n, size=40, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=size, dtype=np.int64)


# ----------------------------------------------------------------------
class TestRouterExactness:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_dense_matches_flat_backend(self, gpa_small, router4, policy):
        router = router4(policy)
        nodes = _stream(gpa_small.graph.num_nodes)
        out, infos = router.query_many(nodes)
        ref, _ = gpa_small.query_many(nodes)
        np.testing.assert_allclose(out, ref, atol=ATOL, rtol=0)
        assert len(infos) == nodes.size
        assert all(info is not None for info in infos)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_topk_matches_flat_backend(self, gpa_small, router4, policy):
        router = router4(policy, cache_bytes=1 << 22)
        nodes = _stream(gpa_small.graph.num_nodes, size=25, seed=2)
        ids, scores, _ = router.query_many_topk(nodes, 12)
        rids, rscores, _ = gpa_small.query_many_topk(nodes, 12)
        np.testing.assert_array_equal(ids, rids)
        np.testing.assert_allclose(scores, rscores, atol=ATOL, rtol=0)

    def test_thresholded_topk_matches(self, gpa_small, router4):
        router = router4("owner")
        nodes = np.asarray([0, 7, 57, 150])
        ids, scores, _ = router.query_many_topk(nodes, 15, threshold=0.02)
        rids, rscores, _ = gpa_small.query_many_topk(nodes, 15, threshold=0.02)
        np.testing.assert_array_equal(ids, rids)
        np.testing.assert_allclose(scores, rscores, atol=ATOL, rtol=0)
        # The cut really drops entries: the pad marker appears somewhere.
        assert (ids == -1).any()

    def test_cached_rerun_still_exact(self, gpa_small, router4):
        router = router4("owner", cache_bytes=1 << 22)
        nodes = _stream(gpa_small.graph.num_nodes, size=30, seed=3)
        first, _ = router.query_many(nodes)
        second, infos = router.query_many(nodes)
        np.testing.assert_allclose(first, second, atol=0, rtol=0)
        assert all(info.cached for info in infos)
        np.testing.assert_allclose(
            second, gpa_small.query_many(nodes)[0], atol=ATOL, rtol=0
        )

    def test_empty_batch(self, router4):
        router = router4("round_robin")
        out, infos = router.query_many(np.empty(0, dtype=np.int64))
        assert out.shape == (0, router.num_nodes) and infos == []
        ids, scores, infos = router.query_many_topk(
            np.empty(0, dtype=np.int64), 5
        )
        assert ids.shape == (0, 5) and infos == []

    def test_bad_k_rejected(self, router4):
        with pytest.raises(QueryError):
            router4("owner").query_many_topk([0], 0)

    def test_service_over_router(self, gpa_small, router4):
        """The router is a QueryBackend: PPVService drops on top unchanged."""
        router = router4("owner", cache_bytes=1 << 22)
        assert as_backend(router) is router
        service = PPVService(
            router, window=0.005, max_batch=8, clock=SimulatedClock()
        )
        stream = np.asarray([3, 40, 77, 3, 110, 40, 9, 199])
        out = service.serve(stream)
        for i, u in enumerate(stream.tolist()):
            np.testing.assert_allclose(
                out[i], gpa_small.query(u), atol=ATOL, rtol=0
            )


# ----------------------------------------------------------------------
class TestRoutingPolicies:
    def test_owner_affinity_sticky_and_partition_aligned(
        self, gpa_small, router4, owner_map
    ):
        router = router4("owner")
        nodes = _stream(gpa_small.graph.num_nodes, size=60, seed=4)
        _, infos = router.query_many(nodes)
        seen = {}
        for u, info in zip(nodes.tolist(), infos):
            # Same node always lands on the same shard...
            assert seen.setdefault(u, info.shard) == info.shard
            # ...and owned (non-hub) nodes land on their partition's shard.
            if owner_map[u] >= 0:
                assert info.shard == owner_map[u] % len(router.shards)

    def test_round_robin_spreads_evenly(self, router4):
        router = router4("round_robin")
        router.query_many(np.zeros(16, dtype=np.int64))  # even a hot node
        assert router.stats().queries_by_shard == [4, 4, 4, 4]
        assert router.stats().load_imbalance == 1.0

    def test_round_robin_stateful_across_batches(self, router4):
        router = router4("round_robin")
        router.query_many(np.zeros(3, dtype=np.int64))
        router.query_many(np.zeros(3, dtype=np.int64))
        # 6 queries over 4 shards: the second batch continues the cycle.
        assert router.stats().queries_by_shard == [2, 2, 1, 1]

    def test_least_loaded_balances_skew(self, router4):
        router = router4("least_loaded")
        # A Zipf-ish stream that owner-affinity would pile onto one shard.
        stream = np.repeat(np.asarray([7, 7, 7, 7, 9, 9, 11, 3]), 2)
        router.query_many(stream)
        assert router.stats().load_imbalance == 1.0

    def test_unknown_policy_rejected(self, router4):
        with pytest.raises(ShardingError, match="unknown routing policy"):
            router4("fastest")

    def test_owner_policy_needs_map(self, gpa_small):
        with pytest.raises(ShardingError, match="owner_map"):
            ShardRouter([[gpa_small]], policy="owner")

    def test_policy_instances_accepted(self, gpa_small, owner_map):
        for policy in (
            OwnerAffinityPolicy(owner_map),
            RoundRobinPolicy(),
            LeastLoadedPolicy(),
        ):
            router = ShardRouter([[gpa_small]] * 2, policy=policy)
            out, _ = router.query_many([5])
            np.testing.assert_allclose(
                out[0], gpa_small.query(5), atol=ATOL, rtol=0
            )

    def test_owner_map_from_partition(self, gpa_small):
        part = gpa_small.partition
        owners = owner_map_from_partition(part, 3)
        assert owners.shape == (gpa_small.graph.num_nodes,)
        assert np.all(owners[part.hubs] == -1)
        for p, members in enumerate(part.part_nodes):
            assert np.all(owners[members] == p % 3)
        with pytest.raises(ShardingError):
            owner_map_from_partition(part, 0)

    def test_owner_map_length_checked(self, gpa_small):
        router = ShardRouter(
            [[gpa_small]] * 2, policy="owner", owner_map=np.zeros(3, dtype=np.int64)
        )
        with pytest.raises(ShardingError, match="covers"):
            router.query_many([0])


# ----------------------------------------------------------------------
class TestFailover:
    def test_mid_stream_failure_and_recovery_exact(self, gpa_small, router4):
        """Kill a replica mid-stream, recover it later: every answer along
        the way must stay exact and traffic must reroute deterministically."""
        router = router4("owner", cache_bytes=None)
        nodes = _stream(gpa_small.graph.num_nodes, size=90, seed=5)
        ref, _ = gpa_small.query_many(nodes)

        out_a = np.vstack(
            [router.query_many(nodes[lo : lo + 10])[0] for lo in (0, 10, 20)]
        )
        for shard in router.shards:  # least-served rotation uses both
            if shard.batches >= 2:
                assert all(r.served_batches > 0 for r in shard.replicas)
        router.mark_down(0, 0)
        router.mark_down(1, 0)
        out_b, infos_b = router.query_many(nodes[30:60])
        assert all(
            info.replica == 1 for info in infos_b if info.shard in (0, 1)
        )
        router.mark_up(0, 0)
        router.mark_up(1, 0)
        out_c, _ = router.query_many(nodes[60:])
        out = np.vstack([out_a, out_b, out_c])
        np.testing.assert_allclose(out, ref, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_policies_exact_after_failover(self, gpa_small, router4, policy):
        router = router4(policy)
        nodes = _stream(gpa_small.graph.num_nodes, size=40, seed=6)
        router.query_many(nodes[:20])
        for sid in range(len(router.shards)):
            router.mark_down(sid, 1)
        out, _ = router.query_many(nodes[20:])
        np.testing.assert_allclose(
            out, gpa_small.query_many(nodes[20:])[0], atol=ATOL, rtol=0
        )

    def test_timed_recovery_with_simulated_clock(self, gpa_small):
        clock = SimulatedClock()
        router = ShardRouter([[gpa_small, gpa_small]], clock=clock)
        router.mark_down(0, 0, for_seconds=5.0)
        _, infos = router.query_many([1, 2])
        assert {info.replica for info in infos} == {1}
        clock.advance(5.0)  # outage elapses: replica 0 is back in rotation
        _, infos = router.query_many([3, 4])
        assert any(info.replica == 0 for info in infos)

    def test_standalone_shard_timed_recovery(self, gpa_small):
        """A Shard used without a router honours timed outages too (its
        clock defaults to real time; here injected for determinism)."""
        clock = SimulatedClock()
        shard = Shard(0, [gpa_small], clock=clock)
        shard.mark_down(0, for_seconds=1.0)
        with pytest.raises(ShardingError, match="every replica"):
            shard.query_many([1])
        clock.advance(1.0)
        out, _ = shard.query_many([1])
        np.testing.assert_allclose(out[0], gpa_small.query(1), atol=ATOL, rtol=0)

    def test_whole_shard_down_raises(self, gpa_small):
        router = ShardRouter([[gpa_small], [gpa_small]])
        router.mark_down(0, 0)
        with pytest.raises(ShardingError, match="every replica"):
            router.query_many(np.arange(8))


# ----------------------------------------------------------------------
class TestShardStats:
    def test_traffic_metered_per_shard(self, gpa_small, router4):
        router = router4("round_robin")
        nodes = _stream(gpa_small.graph.num_nodes, size=16, seed=7)
        router.query_many(nodes)
        stats = router.stats()
        n = router.num_nodes
        # Each shard served 4 rows: 4 ids in (8 B each), 4 dense rows out.
        assert stats.bytes_by_shard == [4 * 8 + 4 * 8 * n] * 4
        assert stats.total_queries == 16
        assert stats.batches_by_shard == [1, 1, 1, 1]
        assert isinstance(router.meter, NetworkMeter)
        assert router.meter.total_bytes == stats.total_bytes

    def test_topk_ships_k_entries_not_rows(self, gpa_small):
        router = ShardRouter([[gpa_small]])
        router.query_many_topk([3, 5], 10)
        stats = router.stats()
        assert stats.bytes_by_shard == [2 * 8 + 2 * 10 * 16]

    def test_cache_stats_aggregate_across_shards(self, gpa_small, router4):
        router = router4("owner", cache_bytes=1 << 22)
        nodes = np.asarray([3, 40, 77, 110])
        router.query_many(nodes)
        router.query_many(nodes)
        stats = router.stats()
        assert stats.cache is not None
        assert stats.cache.hits == 4 and stats.cache.misses == 4
        assert stats.cache.hit_rate == 0.5

    def test_no_cache_no_cache_stats(self, gpa_small):
        router = ShardRouter([[gpa_small]])
        router.query_many([1])
        assert router.stats().cache is None

    def test_makespan_bounded_by_total(self, gpa_small, router4):
        router = router4("round_robin")
        router.query_many(_stream(gpa_small.graph.num_nodes, size=32, seed=8))
        stats = router.stats()
        assert 0.0 < stats.makespan_seconds <= stats.busy_total_seconds


# ----------------------------------------------------------------------
class TestConstruction:
    def test_distributed_runtime_as_shard_engine(self, gpa_small):
        """A distributed deployment plugs in as a replica engine, and its
        owner_map() is the affinity map."""
        cluster = DistributedGPA(gpa_small, 3)
        router = ShardRouter(
            [[cluster]] * 3, policy="owner", owner_map=cluster.owner_map()
        )
        nodes = np.asarray([0, 5, 42, 99])
        out, _ = router.query_many(nodes)
        np.testing.assert_allclose(
            out, gpa_small.query_many(nodes)[0], atol=5e-8, rtol=0
        )

    def test_bare_engine_is_single_replica_shard(self, gpa_small):
        router = ShardRouter([gpa_small, gpa_small])
        assert [len(s.replicas) for s in router.shards] == [1, 1]

    def test_replica_and_backend_objects_accepted(self, gpa_small):
        backend = as_backend(gpa_small)
        router = ShardRouter([[Replica(gpa_small, 0), backend]])
        out, _ = router.query_many([7])
        np.testing.assert_allclose(out[0], gpa_small.query(7), atol=ATOL, rtol=0)

    def test_no_shards_rejected(self):
        with pytest.raises(ShardingError):
            ShardRouter([])

    def test_empty_replica_group_rejected(self, gpa_small):
        with pytest.raises(ShardingError):
            ShardRouter([[gpa_small], []])

    def test_mismatched_num_nodes_rejected(self, gpa_small, jw_small, ring10):
        from repro.core import build_jw_index

        other = build_jw_index(ring10, num_hubs=3, tol=1e-8)
        with pytest.raises(ShardingError, match="num_nodes"):
            ShardRouter([[gpa_small], [other]])
        with pytest.raises(ShardingError, match="num_nodes"):
            Shard(0, [gpa_small, other])

    def test_unservable_replica_rejected(self):
        with pytest.raises(ServingError):
            ShardRouter([[object()]])
