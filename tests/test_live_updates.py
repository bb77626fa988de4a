"""Live graph updates through the full serving stack.

The acceptance contract of the dynamic pipeline: after any sequence of
edge updates applied through a runtime / ``ShardRouter`` / ``PPVService``,
every query answer matches a from-scratch rebuild *at the same epoch* to
1e-12 — on every routing policy, including mid-rollout while one replica
per shard is updating — and per-shard caches drop exactly the affected
rows, never the whole store.
"""

import time
import types

import numpy as np
import pytest

from repro.approx import build_fastppv_index
from repro.core import (
    EdgeUpdate,
    apply_edge_update,
    build_gpa_index,
    build_hgpa_index,
)
from repro.distributed import DistributedGPA, DistributedHGPA
from repro.errors import ServingError, ShardingError
from repro.serving import (
    PPVService,
    SimulatedClock,
    as_backend,
)
from repro.sharding import ShardRouter, owner_map_from_partition

from test_updates import _deletable_edge, _missing_edge, upd_graph  # noqa: F401

ATOL = 1e-12
TOL = 1e-8  # solver tolerance; rebuild-vs-incremental identity is exact
POLICIES = ("owner", "round_robin", "least_loaded")


@pytest.fixture(scope="module")
def gpa_live(upd_graph):  # noqa: F811 - fixture reuse
    return build_gpa_index(upd_graph, 4, tol=TOL, seed=0)


@pytest.fixture(scope="module")
def hgpa_live(upd_graph):  # noqa: F811 - fixture reuse
    return build_hgpa_index(upd_graph, tol=TOL, max_levels=3, seed=0)


def _local_insert(graph, rng, *, tries=60):
    """An insert whose source has a small reverse-reachable set, so the
    affected-sources report leaves most of the graph untouched."""
    from repro.core import affected_sources

    best = None
    for _ in range(tries):
        u = int(rng.integers(0, graph.num_nodes))
        size = affected_sources(graph, u).size
        if best is None or size < best[1]:
            best = (u, size)
        if size == 1:
            break
    u = best[0]
    v = next(
        w
        for w in rng.permutation(graph.num_nodes).tolist()
        if w != u and not graph.has_edge(u, int(w))
    )
    return u, int(v)


def _promoting_insert(index, rng):
    """A missing edge between two non-hub nodes on different sides of a
    separator: inserting it must promote its source into the hub set."""
    if hasattr(index, "partition"):
        return _missing_edge(
            index.graph, rng, cross=True, partition=index.partition
        )
    h = index.hierarchy
    side_a, side_b = (h.subgraphs[c].nodes for c in h.root.children[:2])
    return next(
        (int(u), int(v))
        for u in side_a
        for v in side_b
        if not (h.is_hub(int(u)) or h.is_hub(int(v)))
        and not index.graph.has_edge(int(u), int(v))
    )


def _rebuild_oracle(index):
    """From-scratch rebuild of an updated index, same partition layout."""
    if hasattr(index, "hierarchy"):
        return build_hgpa_index(index.graph, hierarchy=index.hierarchy, tol=TOL)
    if getattr(index, "partition", None) is not None:
        return build_gpa_index(
            index.graph,
            index.partition.num_parts,
            tol=TOL,
            seed=0,
            partition=index.partition,
        )
    raise AssertionError("unexpected index family")


def _random_updates(graph, rng, count, *, partition=None):
    """A valid mixed insert/delete sequence against the evolving graph."""
    updates = []
    for i in range(count):
        if i % 2 == 0:
            u, v = _missing_edge(graph, rng, partition=None)
            upd = EdgeUpdate.insert(u, v)
        else:
            u, v = _deletable_edge(graph, rng)
            upd = EdgeUpdate.delete(u, v)
        updates.append(upd)
        src, dst = graph.edge_arrays()
        if upd.op == "insert":
            from repro.graph import DiGraph

            graph = DiGraph.from_arrays(
                graph.num_nodes,
                np.concatenate([src, [u]]),
                np.concatenate([dst, [v]]),
            )
        else:
            keep = ~((src == u) & (dst == v))
            from repro.graph import DiGraph

            graph = DiGraph.from_arrays(graph.num_nodes, src[keep], dst[keep])
    return updates


# ----------------------------------------------------------------------
class TestMutableBackend:
    """``as_backend`` over an exact index applies live updates."""

    def test_epoch_counts_changed_updates_only(self, gpa_live):
        rng = np.random.default_rng(1)
        backend = as_backend(gpa_live)
        assert backend.epoch == 0
        u, v = _missing_edge(gpa_live.graph, rng)
        r1 = backend.apply_update(EdgeUpdate.insert(u, v))
        assert r1.changed and backend.epoch == 1 and r1.epoch == 1
        r2 = backend.apply_update(EdgeUpdate.insert(u, v))  # duplicate
        assert not r2.changed and backend.epoch == 1 and r2.epoch == 1

    def test_shared_dedup_flips_all_wrappers(self, gpa_live):
        rng = np.random.default_rng(2)
        a = as_backend(gpa_live)
        b = as_backend(gpa_live)
        shared = {}
        u, v = _missing_edge(gpa_live.graph, rng)
        a.apply_update(EdgeUpdate.insert(u, v), shared=shared)
        b.apply_update(EdgeUpdate.insert(u, v), shared=shared)
        assert a.engine is b.engine  # one rebuild, both rebound
        assert a.engine is not gpa_live
        assert a.epoch == b.epoch == 1

    def test_static_backend_rejected(self, upd_graph):  # noqa: F811
        """An engine without an update path (FastPPV) serves, but its
        backend refuses updates and stays at epoch 0."""
        backend = as_backend(build_fastppv_index(upd_graph, 5))
        with pytest.raises(ServingError, match="cannot apply"):
            backend.apply_update(EdgeUpdate.insert(0, 1))
        assert backend.epoch == 0

    def test_plain_backend_epoch_is_zero(self, gpa_live):
        assert as_backend(gpa_live).epoch == 0


# ----------------------------------------------------------------------
@pytest.mark.parametrize("runtime_cls", [DistributedGPA, DistributedHGPA])
class TestDistributedLiveUpdates:
    def _engine(self, runtime_cls, gpa_live, hgpa_live):
        return gpa_live if runtime_cls is DistributedGPA else hgpa_live

    def test_update_matches_fresh_deployment(
        self, runtime_cls, gpa_live, hgpa_live
    ):
        rng = np.random.default_rng(3)
        index = self._engine(runtime_cls, gpa_live, hgpa_live)
        dep = runtime_cls(index, 3)
        nodes = np.arange(0, index.graph.num_nodes, 9)
        dep.query_many(nodes)  # build some stacked ops first
        for upd in _random_updates(index.graph, rng, 3):
            receipt = dep.apply_update(upd)
            assert receipt.changed and receipt.epoch == dep.epoch
            fresh = runtime_cls(_rebuild_oracle(dep.index), 3)
            got, _ = dep.query_many(nodes)
            want, _ = fresh.query_many(nodes)
            np.testing.assert_allclose(got, want, atol=ATOL, rtol=0)
            dep.validate_deployment()

    def test_shared_apply_update_places_meters_and_answers(
        self, runtime_cls, gpa_live, hgpa_live
    ):
        """Both families ride ``ClusterBase.apply_update``: an insert that
        promotes a hub, a delete and a no-op.  The meter arithmetic: every
        rebuilt vector ships once, at its wire size, to the machine that
        holds it, then each touched machine gets one 24-byte update
        message — ``Σ wire_bytes(rebuilt) + 24 · touched`` bytes in
        ``|rebuilt| + touched`` messages."""
        rng = np.random.default_rng(11)
        index = self._engine(runtime_cls, gpa_live, hgpa_live)
        dep = runtime_cls(index, 3)
        meter = dep.coordinator.meter
        nodes = np.arange(0, index.graph.num_nodes, 7)
        dep.query_many(nodes)  # stack some ops for the update to invalidate
        u, v = _promoting_insert(index, rng)
        steps = [
            (EdgeUpdate.insert(u, v), u),
            (EdgeUpdate.delete(*_deletable_edge(index.graph, rng)), None),
            (EdgeUpdate.insert(u, v), None),  # now a no-op
        ]
        for step, (update, promoted) in enumerate(steps):
            held = {key: m.machine_id for m in dep.machines for key in m.store}
            bytes0, messages0, epoch0 = (
                meter.total_bytes, meter.total_messages, dep.epoch
            )
            receipt = dep.apply_update(update)
            dep.validate_deployment()
            stats = receipt.stats
            assert receipt.changed == (step < 2) and stats.promoted_hub == promoted
            assert dep.epoch == receipt.epoch == epoch0 + receipt.changed
            holds = {key: m.machine_id for m in dep.machines for key in m.store}
            stores = {
                "hub": dep.index.hub_partials,
                "skel": dep.index.skeleton_cols,
                dep.OWN[0]: getattr(dep.index, dep.OWN[1]),
            }
            rebuilt = sum(
                stores[kind][node].wire_bytes for kind, node in stats.rebuilt_keys
            )
            touched = {holds[key] for key in stats.rebuilt_keys} | {
                held[key] for key in stats.dropped_keys
            }
            assert meter.total_bytes - bytes0 == rebuilt + 24 * len(touched)
            assert meter.total_messages - messages0 == len(
                stats.rebuilt_keys
            ) + len(touched)
            assert not any(key in holds for key in stats.dropped_keys)
            if promoted is not None:
                assert holds[("hub", u)] == holds[("skel", u)] == dep.owner_map()[u]
            fresh = runtime_cls(_rebuild_oracle(dep.index), 3)
            np.testing.assert_allclose(
                dep.query_many(nodes)[0], fresh.query_many(nodes)[0],
                atol=ATOL, rtol=0,
            )
            np.testing.assert_allclose(
                dep.query(u)[0], fresh.query(u)[0], atol=ATOL, rtol=0
            )

    def test_first_query_wall_excludes_stacking(
        self, runtime_cls, gpa_live, hgpa_live, monkeypatch
    ):
        """A cold deployment stacks its ops on first use; ``query`` must do
        that before it starts a machine's timer, or the one-time build
        lands in the first report's ``wall_seconds``."""
        from repro.distributed import cluster

        events = []

        class Spied(runtime_cls):
            def _stack_ops(self, mid, owned):
                events.append("stack")
                return super()._stack_ops(mid, owned)

        def perf_counter():
            events.append("tick")
            return time.perf_counter()

        clock = types.SimpleNamespace(perf_counter=perf_counter)
        monkeypatch.setattr(cluster, "time", clock)
        dep = Spied(self._engine(runtime_cls, gpa_live, hgpa_live), 3)
        dep.query(5)
        assert "stack" in events  # it was cold
        # Timers come in start/stop pairs (one per machine, then the
        # coordinator's): nothing may be stacked while one is running.
        running = False
        for event in events:
            assert not (running and event == "stack")
            running = (not running) if event == "tick" else running
        assert not running

    def test_noop_update_keeps_epoch(self, runtime_cls, gpa_live, hgpa_live):
        index = self._engine(runtime_cls, gpa_live, hgpa_live)
        dep = runtime_cls(index, 2)
        src, dst = index.graph.edge_arrays()
        receipt = dep.apply_update(EdgeUpdate.insert(int(src[0]), int(dst[0])))
        assert not receipt.changed and dep.epoch == 0 and receipt.epoch == 0

    def test_update_traffic_metered(self, runtime_cls, gpa_live, hgpa_live):
        rng = np.random.default_rng(4)
        index = self._engine(runtime_cls, gpa_live, hgpa_live)
        dep = runtime_cls(index, 3)
        before = dep.coordinator.meter.total_bytes
        u, v = _missing_edge(index.graph, rng)
        receipt = dep.apply_update(EdgeUpdate.insert(u, v))
        shipped = dep.coordinator.meter.total_bytes - before
        rebuilt_wire = sum(
            {
                "hub": dep.index.hub_partials,
                "skel": dep.index.skeleton_cols,
                "part": getattr(dep.index, "node_partials", {}),
                "leaf": getattr(dep.index, "leaf_ppv", {}),
            }[kind][node].wire_bytes
            for kind, node in receipt.stats.rebuilt_keys
        )
        assert shipped >= rebuilt_wire > 0

    def test_unaffected_ops_caches_survive(
        self, runtime_cls, gpa_live, hgpa_live
    ):
        rng = np.random.default_rng(5)
        index = self._engine(runtime_cls, gpa_live, hgpa_live)
        dep = runtime_cls(index, 3)
        nodes = np.arange(0, index.graph.num_nodes, 5)
        dep.query_many(nodes)
        cache = (
            dep._machine_ops if runtime_cls is DistributedGPA else dep._level_ops
        )
        before = {k: id(v) for k, v in cache.items()}
        u, v = _missing_edge(index.graph, rng)
        receipt = dep.apply_update(EdgeUpdate.insert(u, v))
        kept = {k for k, v in cache.items() if before.get(k) == id(v)}
        # Exactly the owners of rebuilt hub vectors lose their stacked
        # ops; everything else keeps serving from the cached CSC/CSR.
        if runtime_cls is DistributedGPA:
            hit = {
                dep._hub_owner[node]
                for kind, node in receipt.stats.rebuilt_keys
                if kind in ("hub", "skel")
            }
            expect_kept = set(before) - hit
        else:
            hit_levels = set(receipt.stats.affected_subgraphs)
            expect_kept = {
                (mid, sid) for (mid, sid) in before if sid not in hit_levels
            }
            assert expect_kept, "chain rebuild unexpectedly touched all levels"
        assert kept == expect_kept


class TestZeroCopyStores:
    def test_gpa_store_vectors_view_stacked_buffers(self, gpa_live):
        dep = DistributedGPA(gpa_live, 3)
        dep.query_many(np.arange(8))
        for mid, ops in dep._machine_ops.items():
            owned, part_csc, _, _ = ops
            machine = dep.machines[mid]
            for h in owned.tolist():
                stored = machine.store[("hub", h)]
                assert np.shares_memory(stored.val, part_csc.data)
                assert not stored.val.flags.writeable
                assert stored == gpa_live.hub_partials[h]
                assert machine.store[("skel", h)] == gpa_live.skeleton_cols[h]

    def test_hgpa_store_vectors_view_stacked_buffers(self, hgpa_live):
        dep = DistributedHGPA(hgpa_live, 3)
        dep.query_many(np.arange(8))
        assert dep._level_ops, "no ops were built"
        shared = 0
        for (mid, _), ops in dep._level_ops.items():
            owned, part_csc, _, _ = ops
            machine = dep.machines[mid]
            for h in owned.tolist():
                stored = machine.store[("hub", h)]
                if np.shares_memory(stored.val, part_csc.data):
                    shared += 1
                assert stored == hgpa_live.hub_partials[h]
        assert shared > 0

    def test_space_metric_unchanged_by_rebinding(self, gpa_live):
        dep_cold = DistributedGPA(gpa_live, 3)
        cold = [m.stored_bytes for m in dep_cold.machines]
        dep_hot = DistributedGPA(gpa_live, 3)
        dep_hot.query_many(np.arange(8))
        hot = [m.stored_bytes for m in dep_hot.machines]
        assert cold == hot


# ----------------------------------------------------------------------
class TestServiceLiveUpdates:
    @staticmethod
    def _cached(index):
        """A service over a one-shard cached router around ``index``;
        returns the service and the shard (its cache and engine)."""
        clock = SimulatedClock()
        router = ShardRouter([[index]], cache_bytes=1 << 22, clock=clock)
        svc = PPVService(router, window=0.005, max_batch=4, clock=clock)
        return svc, router.shards[0]

    def test_epoch_tagged_tickets_and_exact_answers(self, gpa_live):
        rng = np.random.default_rng(6)
        svc, shard = self._cached(gpa_live)
        t0 = svc.submit(3)
        svc.flush()
        assert t0.epoch == 0
        u, v = _missing_edge(gpa_live.graph, rng)
        receipt = svc.apply_update(EdgeUpdate.insert(u, v))
        assert receipt.epoch == svc.epoch == 1
        t1 = svc.submit(u)
        svc.flush()
        assert t1.epoch == 1
        oracle = _rebuild_oracle(shard.replicas[0].backend.engine)
        np.testing.assert_allclose(
            t1.result, oracle.query(u), atol=ATOL, rtol=0
        )

    def test_cache_keeps_unaffected_rows_across_update(self, gpa_live):
        rng = np.random.default_rng(7)
        svc, shard = self._cached(gpa_live)
        cache = shard.cache
        u, v = _local_insert(gpa_live.graph, rng)
        _, receipt = apply_edge_update(gpa_live, EdgeUpdate.insert(u, v))
        affected = set(receipt.affected_sources.tolist())
        unaffected = next(
            w for w in range(gpa_live.graph.num_nodes) if w not in affected
        )
        for w in (u, unaffected):
            svc.query(w)
        live = svc.apply_update(EdgeUpdate.insert(u, v))
        assert set(live.affected_sources.tolist()) == affected
        assert cache.stats.invalidations >= 1
        assert unaffected in cache and u not in cache
        hits = cache.stats.hits
        t_unaffected = svc.submit(unaffected)
        t_affected = svc.submit(u)
        svc.flush()
        # One hit (the unaffected row); the affected row was recomputed.
        assert cache.stats.hits == hits + 1
        assert t_unaffected.epoch == t_affected.epoch == 1
        oracle = _rebuild_oracle(shard.replicas[0].backend.engine)
        np.testing.assert_allclose(
            t_unaffected.result, oracle.query(unaffected), atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            t_affected.result, oracle.query(u), atol=ATOL, rtol=0
        )

    def test_static_backend_update_rejected(self, gpa_live):
        """A bare index takes updates through the service; FastPPV, which
        has no update path, is refused."""
        fast = build_fastppv_index(gpa_live.graph, 5)
        svc = PPVService(fast, clock=SimulatedClock())
        with pytest.raises(ServingError, match="cannot apply"):
            svc.apply_update(EdgeUpdate.insert(0, 1))
        rng = np.random.default_rng(9)
        u, v = _missing_edge(gpa_live.graph, rng)
        svc = PPVService(gpa_live, clock=SimulatedClock())
        assert svc.apply_update(EdgeUpdate.insert(u, v)).changed
        assert svc.epoch == 1

    def test_replay_mixed_stream_deterministic(self, gpa_live):
        rng = np.random.default_rng(8)
        u, v = _missing_edge(gpa_live.graph, rng)
        n = gpa_live.graph.num_nodes
        qs = rng.integers(0, n, size=12).tolist()
        events = [(0.001 * i, q) for i, q in enumerate(qs[:6])]
        events.append((0.02, EdgeUpdate.insert(u, v)))
        events += [(0.03 + 0.001 * i, q) for i, q in enumerate(qs[6:])]

        def run():
            svc, _ = self._cached(gpa_live)
            return svc.replay(events)

        out_a, out_b = run(), run()
        for a, b in zip(out_a, out_b):
            assert a.epoch == b.epoch
            if hasattr(a, "result"):
                np.testing.assert_array_equal(a.result, b.result)
            else:
                np.testing.assert_array_equal(
                    a.affected_sources, b.affected_sources
                )
        # epochs before the update are 0, after it 1
        assert [t.epoch for t in out_a[:6]] == [0] * 6
        assert [t.epoch for t in out_a[7:]] == [1] * 6

    def test_replay_rejects_time_travel(self, gpa_live):
        svc = PPVService(gpa_live, clock=SimulatedClock())
        with pytest.raises(ServingError, match="non-decreasing"):
            svc.replay([(1.0, 0), (0.5, 1)])


# ----------------------------------------------------------------------
class TestRouterLiveUpdates:
    def _router(self, index, policy, *, replicas=2, cache=True):
        return ShardRouter(
            [[index] * replicas for _ in range(4)],
            policy=policy,
            owner_map=owner_map_from_partition(index.partition, 4),
            cache_bytes=(1 << 22) if cache else None,
            clock=SimulatedClock(),
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_immediate_update_exact_on_all_policies(self, gpa_live, policy):
        rng = np.random.default_rng(9)
        router = self._router(gpa_live, policy)
        n = router.num_nodes
        nodes = rng.integers(0, n, size=30)
        router.query_many(nodes)
        current = gpa_live
        for upd in _random_updates(gpa_live.graph, rng, 3):
            receipt = router.apply_update(upd)
            current, _ = apply_edge_update(current, upd)
            assert receipt.changed and receipt.epoch == router.epoch
            oracle = _rebuild_oracle(current)
            got, infos = router.query_many(nodes)
            want, _ = oracle.query_many(nodes)
            np.testing.assert_allclose(got, want, atol=ATOL, rtol=0)
            assert {info.epoch for info in infos} == {router.epoch}
        ids, scores, _ = router.query_many_topk(nodes, 10)
        oids, oscores, _ = oracle.query_many_topk(nodes, 10)
        np.testing.assert_array_equal(ids, oids)
        np.testing.assert_allclose(scores, oscores, atol=ATOL, rtol=0)

    def test_caches_drop_exactly_affected_rows(self, gpa_live):
        rng = np.random.default_rng(10)
        router = self._router(gpa_live, "owner")
        u, v = _local_insert(gpa_live.graph, rng)
        _, receipt = apply_edge_update(gpa_live, EdgeUpdate.insert(u, v))
        affected = set(receipt.affected_sources.tolist())
        unaffected = [
            w for w in range(router.num_nodes) if w not in affected
        ][:8]
        router.query_many(np.asarray([u] + unaffected))
        cached_before = {
            w
            for shard in router.shards
            for w in ([u] + unaffected)
            if shard.cache is not None and w in shard.cache
        }
        assert u in cached_before
        router.apply_update(EdgeUpdate.insert(u, v))
        for shard in router.shards:
            assert u not in shard.cache
            for w in unaffected:
                if w in cached_before:
                    # unaffected rows survive the update untouched
                    assert (w in shard.cache) == (
                        w in cached_before and w in shard.cache
                    )
        still_cached = sum(
            1
            for shard in router.shards
            for w in unaffected
            if w in shard.cache
        )
        assert still_cached > 0, "update flushed unaffected rows"


# ----------------------------------------------------------------------
class TestStaggeredRollout:
    def _router(self, index, clock):
        return ShardRouter(
            [[index, index] for _ in range(3)],
            policy="owner",
            owner_map=owner_map_from_partition(index.partition, 3),
            cache_bytes=1 << 22,
            clock=clock,
        )

    def test_no_outage_and_epoch_exactness_mid_rollout(self, gpa_live):
        rng = np.random.default_rng(11)
        clock = SimulatedClock()
        router = self._router(gpa_live, clock)
        nodes = rng.integers(0, router.num_nodes, size=40)
        router.query_many(nodes)
        u, v = _missing_edge(gpa_live.graph, rng)
        upd = EdgeUpdate.insert(u, v)
        new_index, _ = apply_edge_update(gpa_live, upd)
        old_oracle = _rebuild_oracle(gpa_live)
        new_oracle = _rebuild_oracle(new_index)

        rollout = router.begin_rollout(upd, update_seconds=1.0)
        receipt = rollout.step()  # wave 0: replica 0 of every shard flips
        assert not rollout.done and receipt.epoch == router.epoch == 0
        # Mid-rollout: every query is answered (no outage), each row
        # matching the rebuild at the epoch it is tagged with.
        got, infos = router.query_many(nodes)
        for k, info in enumerate(infos):
            oracle = new_oracle if info.epoch == 1 else old_oracle
            np.testing.assert_allclose(
                got[k], oracle.query(int(nodes[k])), atol=ATOL, rtol=0
            )
        # The updating replicas are routed away from deterministically.
        assert all(info.replica != 0 or info.cached for info in infos)
        clock.advance(1.0)  # wave-0 replicas finish installing
        got, infos = router.query_many(nodes)
        for k, info in enumerate(infos):
            oracle = new_oracle if info.epoch == 1 else old_oracle
            np.testing.assert_allclose(
                got[k], oracle.query(int(nodes[k])), atol=ATOL, rtol=0
            )
        receipt = rollout.step()  # wave 1: the rollout completes
        assert rollout.done and receipt.epoch == router.epoch == 1
        clock.advance(1.0)
        got, infos = router.query_many(nodes)
        want, _ = new_oracle.query_many(nodes)
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0)
        assert {info.epoch for info in infos} == {1}

    def test_affected_rows_held_out_of_cache_mid_rollout(self, gpa_live):
        rng = np.random.default_rng(12)
        clock = SimulatedClock()
        router = self._router(gpa_live, clock)
        u, v = _missing_edge(gpa_live.graph, rng)
        upd = EdgeUpdate.insert(u, v)
        router.query_many(np.asarray([u, u]))
        assert any(u in shard.cache for shard in router.shards)
        rollout = router.begin_rollout(upd, update_seconds=1.0)
        rollout.step()
        for shard in router.shards:
            assert u not in shard.cache  # dropped at wave 0
        _, infos = router.query_many(np.asarray([u, u]))
        assert all(not info.cached for info in infos)  # bypass while held
        for shard in router.shards:
            assert u not in shard.cache
        clock.advance(1.0)
        rollout.step()
        router.query_many(np.asarray([u]))
        assert any(u in shard.cache for shard in router.shards)  # released

    def test_rollout_guards(self, gpa_live):
        rng = np.random.default_rng(13)
        clock = SimulatedClock()
        router = self._router(gpa_live, clock)
        u, v = _missing_edge(gpa_live.graph, rng)
        rollout = router.begin_rollout(EdgeUpdate.insert(u, v))
        with pytest.raises(ShardingError, match="in progress"):
            router.begin_rollout(EdgeUpdate.insert(u, v))
        with pytest.raises(ShardingError, match="in progress"):
            router.apply_update(EdgeUpdate.insert(u, v))
        rollout.run()
        assert rollout.done and router.epoch == 1
        with pytest.raises(ShardingError, match="complete"):
            rollout.step()

    def test_cached_service_over_router_survives_rollout(self, gpa_live):
        """Regression: a PPVService over a cached router must not serve
        stale pre-update rows tagged with the new epoch after a rollout
        driven directly on the router."""
        rng = np.random.default_rng(14)
        clock = SimulatedClock()
        router = self._router(gpa_live, clock)
        service = PPVService(router, window=0.005, max_batch=4, clock=clock)
        u, v = _missing_edge(gpa_live.graph, rng)
        t_before = service.submit(u)
        service.flush()
        assert t_before.epoch == 0
        router.begin_rollout(EdgeUpdate.insert(u, v)).run()
        assert router.epoch == 1
        new_index = router.shards[0].replicas[0].backend.engine
        oracle = _rebuild_oracle(new_index)
        hits = sum(shard.cache.stats.hits for shard in router.shards)
        ticket = service.submit(u)
        service.flush()
        assert ticket.epoch == 1
        assert sum(shard.cache.stats.hits for shard in router.shards) == hits
        np.testing.assert_allclose(
            ticket.result, oracle.query(u), atol=ATOL, rtol=0
        )

    def test_service_tickets_tagged_per_row_mid_rollout(self, gpa_live):
        """Mid-rollout the router serves mixed epochs; service tickets
        must carry each answer's true epoch, and no affected row may
        enter a shard cache until the rollout completes."""
        rng = np.random.default_rng(15)
        clock = SimulatedClock()
        router = self._router(gpa_live, clock)
        service = PPVService(router, window=0.005, max_batch=4, clock=clock)
        u, v = _missing_edge(gpa_live.graph, rng)
        upd = EdgeUpdate.insert(u, v)
        new_index, receipt = apply_edge_update(gpa_live, upd)
        held = set(receipt.affected_sources.tolist())
        assert u in held
        old_oracle, new_oracle = _rebuild_oracle(gpa_live), _rebuild_oracle(
            new_index
        )
        rollout = router.begin_rollout(upd, update_seconds=1.0)
        rollout.step()
        clock.advance(1.0)  # wave-0 replicas recover: both epochs serve
        tickets = [service.submit(int(w)) for w in (u, v, 3)]
        service.flush()
        for w in held:
            assert all(w not in shard.cache for shard in router.shards)
        for t in tickets:
            oracle = new_oracle if t.epoch == 1 else old_oracle
            np.testing.assert_allclose(
                t.result, oracle.query(t.node), atol=ATOL, rtol=0
            )
        rollout.step()

    def test_noop_rollout_short_circuits(self, gpa_live):
        clock = SimulatedClock()
        router = self._router(gpa_live, clock)
        src, dst = gpa_live.graph.edge_arrays()
        rollout = router.begin_rollout(
            EdgeUpdate.insert(int(src[0]), int(dst[0]))
        )
        receipt = rollout.step()
        assert rollout.done and not receipt.changed and router.epoch == 0
        # A new rollout can start immediately.
        router.begin_rollout(EdgeUpdate.insert(int(src[0]), int(dst[0])))


# ----------------------------------------------------------------------
def _backend_under_test(kind, index):
    if kind in ("gpa", "hgpa"):
        return as_backend(index)
    if kind == "dist_gpa":
        return as_backend(DistributedGPA(index, 3))
    if kind == "dist_hgpa":
        return as_backend(DistributedHGPA(index, 3))
    if kind.startswith("sharded_"):
        policy = kind[len("sharded_") :]
        return ShardRouter(
            [[index, index], [index, index]],
            policy=policy,
            owner_map=owner_map_from_partition(index.partition, 2),
            cache_bytes=1 << 22,
            clock=SimulatedClock(),
        )
    raise AssertionError(kind)


class TestInterleavingProperty:
    """Property-style drive: random inserts/deletes interleaved with
    ``query_many_topk`` calls against every backend family, every answer
    compared to a freshly rebuilt oracle at the same epoch."""

    @pytest.mark.parametrize(
        "kind",
        [
            "gpa",
            "hgpa",
            "dist_gpa",
            "dist_hgpa",
            "sharded_owner",
            "sharded_round_robin",
            "sharded_least_loaded",
        ],
    )
    def test_random_interleaving_matches_oracle(
        self, kind, gpa_live, hgpa_live
    ):
        rng = np.random.default_rng(abs(hash(kind)) % (2**32))
        index = hgpa_live if kind == "dist_hgpa" or kind == "hgpa" else gpa_live
        backend = _backend_under_test(kind, index)
        current = index
        n = index.graph.num_nodes
        exact = kind in ("gpa", "hgpa") or kind.startswith("sharded_")
        updates = _random_updates(index.graph, rng, 4)
        epoch = 0
        for upd in updates:
            receipt = backend.apply_update(upd)
            current, _ = apply_edge_update(current, upd)
            assert receipt.changed
            epoch += 1
            assert backend.epoch == epoch == receipt.epoch
            oracle = _rebuild_oracle(current)
            nodes = rng.integers(0, n, size=10)
            ids, scores, _ = backend.query_many_topk(nodes, 8)
            oids, oscores, _ = oracle.query_many_topk(nodes, 8)
            np.testing.assert_allclose(scores, oscores, atol=ATOL, rtol=0)
            if exact:
                np.testing.assert_array_equal(ids, oids)
            else:
                # Distributed summation order may swap exact ties; every
                # mismatched id must be a tie at 1e-12.
                mism = ids != oids
                assert np.all(np.abs(scores[mism] - oscores[mism]) <= ATOL)
            dense, _ = backend.query_many(nodes)
            odense, _ = oracle.query_many(nodes)
            np.testing.assert_allclose(dense, odense, atol=ATOL, rtol=0)
        # The backend's end-state graph matches the reference sequence.
        if kind.startswith("dist_"):
            assert backend.engine.index.graph == current.graph
        elif kind in ("gpa", "hgpa"):
            assert backend.engine.graph == current.graph
        else:
            replica = backend.shards[0].replicas[0]
            assert replica.backend.engine.graph == current.graph
