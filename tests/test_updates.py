"""Core update pipeline: EdgeUpdate plumbing, affected sets, flat-index
incremental path, and the update-equals-rebuild contract.

The load-bearing invariant of the whole dynamic stack: after any edge
update applied incrementally, every query answer matches a from-scratch
rebuild over the same partition/hierarchy to 1e-12 (the solvers run in
per-column-convergence mode, so subset recomputes reproduce the full
build exactly), and sources outside the affected set keep *bitwise*
identical answers.
"""

import numpy as np
import pytest

from repro import datasets
from repro.core import (
    EdgeUpdate,
    UpdateBatch,
    affected_sources,
    apply_edge_update,
    apply_update_batch,
    build_gpa_index,
    build_hgpa_index,
    build_jw_index,
    delete_edge_flat,
    insert_edge_flat,
    power_iteration_ppv,
)
from repro.errors import GraphError, UpdateError
from repro.graph import hierarchical_community_digraph
from repro.metrics import l_inf

from conftest import EXACT_ATOL, TIGHT_TOL

ATOL = 1e-12


@pytest.fixture(scope="module")
def upd_graph():
    g = hierarchical_community_digraph(150, avg_out_degree=4, seed=21)
    return g.with_dangling_policy("self_loop")


@pytest.fixture(scope="module")
def jw_upd(upd_graph):
    return build_jw_index(upd_graph, num_hubs=15, tol=TIGHT_TOL)


@pytest.fixture(scope="module")
def gpa_upd(upd_graph):
    return build_gpa_index(upd_graph, 4, tol=TIGHT_TOL, seed=0)


def _missing_edge(graph, rng, *, cross=None, partition=None):
    """A (u, v) pair with no edge u→v (optionally same/cross part)."""
    hubs = set(partition.hubs.tolist()) if partition is not None else set()
    for _ in range(10_000):
        u = int(rng.integers(0, graph.num_nodes))
        v = int(rng.integers(0, graph.num_nodes))
        if u == v or graph.has_edge(u, v) or u in hubs or v in hubs:
            continue
        if cross is None or partition is None:
            return u, v
        same = int(partition.labels[u]) == int(partition.labels[v])
        if cross != same:
            return u, v
    raise AssertionError("no candidate edge found")


def _deletable_edge(graph, rng):
    src, dst = graph.edge_arrays()
    deg = graph.out_degrees
    for _ in range(10_000):
        i = int(rng.integers(0, src.size))
        if deg[src[i]] > 1 and src[i] != dst[i]:
            return int(src[i]), int(dst[i])
    raise AssertionError("no deletable edge found")


# ----------------------------------------------------------------------
class TestEdgeUpdate:
    def test_bad_op_rejected(self):
        with pytest.raises(UpdateError, match="unknown update op"):
            EdgeUpdate("upsert", 0, 1)

    def test_non_integer_endpoints_rejected(self):
        with pytest.raises(UpdateError, match="integers"):
            EdgeUpdate("insert", 0.5, 1)

    def test_constructors_and_inverse(self):
        upd = EdgeUpdate.insert(3, 7)
        assert (upd.op, upd.u, upd.v) == ("insert", 3, 7)
        assert upd.inverse() == EdgeUpdate.delete(3, 7)
        assert upd.inverse().inverse() == upd

    def test_batch_validates_members(self):
        batch = UpdateBatch([EdgeUpdate.insert(0, 1), EdgeUpdate.delete(1, 2)])
        assert len(batch) == 2 and all(isinstance(u, EdgeUpdate) for u in batch)
        with pytest.raises(UpdateError):
            UpdateBatch([("insert", 0, 1)])

    def test_unsupported_engine_rejected(self):
        with pytest.raises(UpdateError, match="incremental edge updates"):
            apply_edge_update(object(), EdgeUpdate.insert(0, 1))

    def test_non_update_rejected(self, jw_upd):
        with pytest.raises(UpdateError, match="EdgeUpdate"):
            apply_edge_update(jw_upd, ("insert", 0, 1))


# ----------------------------------------------------------------------
class TestAffectedSources:
    def test_matches_bruteforce_reverse_reachability(self, upd_graph):
        rng = np.random.default_rng(1)
        src, dst = upd_graph.edge_arrays()
        for u in rng.integers(0, upd_graph.num_nodes, size=5).tolist():
            # Brute force: iterate reverse reachability to a fixed point.
            reach = {u}
            changed = True
            while changed:
                changed = False
                for s, d in zip(src.tolist(), dst.tolist()):
                    if d in reach and s not in reach:
                        reach.add(s)
                        changed = True
            got = affected_sources(upd_graph, u)
            assert set(got.tolist()) == reach
            assert np.array_equal(got, np.sort(got))

    def test_out_of_range_rejected(self, upd_graph):
        with pytest.raises(GraphError):
            affected_sources(upd_graph, upd_graph.num_nodes)

    def test_unaffected_sources_bitwise_unchanged(self, jw_upd):
        rng = np.random.default_rng(2)
        u, v = _missing_edge(jw_upd.graph, rng)
        new_index, receipt = apply_edge_update(jw_upd, EdgeUpdate.insert(u, v))
        affected = set(receipt.affected_sources.tolist())
        assert u in affected
        for w in range(jw_upd.graph.num_nodes):
            if w not in affected:
                np.testing.assert_array_equal(
                    jw_upd.query(w), new_index.query(w)
                )

    def test_receipt_shape(self, jw_upd):
        rng = np.random.default_rng(3)
        u, v = _missing_edge(jw_upd.graph, rng)
        _, receipt = apply_edge_update(jw_upd, EdgeUpdate.insert(u, v))
        assert receipt.changed and receipt.epoch == 0
        assert receipt.num_affected == receipt.affected_sources.size
        assert not receipt.affected_sources.flags.writeable
        assert receipt.at_epoch(7).epoch == 7
        assert receipt.stats.rebuilt_keys


# ----------------------------------------------------------------------
class TestFlatIncremental:
    def test_jw_insert_matches_rebuild(self, jw_upd):
        rng = np.random.default_rng(4)
        u, v = _missing_edge(jw_upd.graph, rng)
        new_index, stats = insert_edge_flat(jw_upd, u, v)
        assert stats.changed and new_index.graph.has_edge(u, v)
        assert stats.rebuild_fraction < 1.0
        oracle = build_jw_index(
            new_index.graph, hubs=new_index.hubs, tol=TIGHT_TOL
        )
        for w in range(0, jw_upd.graph.num_nodes, 11):
            np.testing.assert_allclose(
                new_index.query(w), oracle.query(w), atol=ATOL, rtol=0
            )

    def test_jw_delete_matches_rebuild_and_power_iteration(self, jw_upd):
        rng = np.random.default_rng(5)
        u, v = _deletable_edge(jw_upd.graph, rng)
        new_index, stats = delete_edge_flat(jw_upd, u, v)
        assert stats.changed and not new_index.graph.has_edge(u, v)
        oracle = build_jw_index(
            new_index.graph, hubs=new_index.hubs, tol=TIGHT_TOL
        )
        for w in (u, v, 0):
            np.testing.assert_allclose(
                new_index.query(w), oracle.query(w), atol=ATOL, rtol=0
            )
            ref = power_iteration_ppv(new_index.graph, w, tol=TIGHT_TOL)
            assert l_inf(new_index.query(w), ref) < EXACT_ATOL

    def test_untouched_vectors_shared_not_copied(self, jw_upd):
        rng = np.random.default_rng(6)
        u, v = _missing_edge(jw_upd.graph, rng)
        new_index, stats = insert_edge_flat(jw_upd, u, v)
        untouched = [
            w
            for w in jw_upd.node_partials
            if ("part", w) not in stats.rebuilt_keys
        ]
        assert untouched, "fixture update rebuilt every node partial"
        for w in untouched:
            assert new_index.node_partials[w] is jw_upd.node_partials[w]

    def test_gpa_same_part_insert_matches_rebuild(self, gpa_upd):
        rng = np.random.default_rng(7)
        u, v = _missing_edge(
            gpa_upd.graph, rng, cross=False, partition=gpa_upd.partition
        )
        new_index, stats = insert_edge_flat(gpa_upd, u, v)
        assert stats.promoted_hub is None
        assert new_index.hubs.size == gpa_upd.hubs.size
        oracle = build_gpa_index(
            new_index.graph,
            gpa_upd.partition.num_parts,
            tol=TIGHT_TOL,
            seed=0,
            partition=new_index.partition,
        )
        for w in range(0, gpa_upd.graph.num_nodes, 13):
            np.testing.assert_allclose(
                new_index.query(w), oracle.query(w), atol=ATOL, rtol=0
            )

    def test_gpa_cross_part_insert_promotes_and_matches(self, gpa_upd):
        rng = np.random.default_rng(8)
        u, v = _missing_edge(
            gpa_upd.graph, rng, cross=True, partition=gpa_upd.partition
        )
        new_index, stats = insert_edge_flat(gpa_upd, u, v)
        assert stats.promoted_hub == u
        assert new_index.is_hub(u) and not gpa_upd.is_hub(u)
        assert ("part", u) in stats.dropped_keys
        assert u not in new_index.node_partials
        assert u in new_index.hub_partials and u in new_index.skeleton_cols
        new_index.partition.validate()  # separator invariant repaired
        oracle = build_gpa_index(
            new_index.graph,
            gpa_upd.partition.num_parts,
            tol=TIGHT_TOL,
            seed=0,
            partition=new_index.partition,
        )
        for w in range(0, gpa_upd.graph.num_nodes, 13):
            np.testing.assert_allclose(
                new_index.query(w), oracle.query(w), atol=ATOL, rtol=0
            )
        ref = power_iteration_ppv(new_index.graph, u, tol=TIGHT_TOL)
        assert l_inf(new_index.query(u), ref) < EXACT_ATOL

    def test_gpa_hub_source_update_is_local(self, gpa_upd):
        """An update at a hub stales only the hub's own partial (walks
        from everyone else freeze there): the smallest possible rebuild."""
        h = int(gpa_upd.hubs[0])
        target = next(
            w
            for w in range(gpa_upd.graph.num_nodes)
            if w != h and not gpa_upd.graph.has_edge(h, w)
        )
        new_index, stats = insert_edge_flat(gpa_upd, h, target)
        hub_rebuilds = [k for k in stats.rebuilt_keys if k[0] == "hub"]
        assert hub_rebuilds == [("hub", h)]
        assert not [k for k in stats.rebuilt_keys if k[0] == "part"]
        oracle = build_gpa_index(
            new_index.graph,
            gpa_upd.partition.num_parts,
            tol=TIGHT_TOL,
            seed=0,
            partition=new_index.partition,
        )
        for w in (h, target, 3):
            np.testing.assert_allclose(
                new_index.query(w), oracle.query(w), atol=ATOL, rtol=0
            )

    def test_duplicate_insert_and_missing_delete_noop(self, gpa_upd):
        src, dst = gpa_upd.graph.edge_arrays()
        same, stats = insert_edge_flat(gpa_upd, int(src[0]), int(dst[0]))
        assert same is gpa_upd and not stats.changed
        rng = np.random.default_rng(9)
        u, v = _missing_edge(gpa_upd.graph, rng)
        same, stats = delete_edge_flat(gpa_upd, u, v)
        assert same is gpa_upd and not stats.changed

    def test_dangling_delete_rejected(self, upd_graph):
        deg = upd_graph.out_degrees
        u = int(np.argmin(deg))
        if deg[u] != 1:
            pytest.skip("fixture graph has no degree-1 node")
        index = build_jw_index(upd_graph, num_hubs=5, tol=1e-6)
        v = int(upd_graph.successors(u)[0])
        with pytest.raises(GraphError, match="dangling"):
            delete_edge_flat(index, u, v)

    def test_bad_endpoints_both_directions(self, jw_upd):
        with pytest.raises(GraphError, match=r"edge \(-2, 0\): source"):
            insert_edge_flat(jw_upd, -2, 0)
        with pytest.raises(GraphError, match=r"edge \(0, 9999\): target"):
            insert_edge_flat(jw_upd, 0, 9999)
        with pytest.raises(GraphError, match=r"edge \(9999, 0\): source"):
            delete_edge_flat(jw_upd, 9999, 0)
        with pytest.raises(GraphError, match=r"edge \(0, -1\): target"):
            delete_edge_flat(jw_upd, 0, -1)

    def test_old_index_still_valid(self, jw_upd, upd_graph):
        rng = np.random.default_rng(10)
        u, v = _missing_edge(jw_upd.graph, rng)
        insert_edge_flat(jw_upd, u, v)
        ref = power_iteration_ppv(upd_graph, u, tol=TIGHT_TOL)
        assert l_inf(jw_upd.query(u), ref) < EXACT_ATOL


# ----------------------------------------------------------------------
class TestBatchesAndDispatch:
    def test_apply_update_batch_chains(self, jw_upd):
        rng = np.random.default_rng(11)
        u1, v1 = _missing_edge(jw_upd.graph, rng)
        batch = UpdateBatch(
            [EdgeUpdate.insert(u1, v1), EdgeUpdate.delete(u1, v1)]
        )
        restored, receipts = apply_update_batch(jw_upd, batch)
        assert [r.changed for r in receipts] == [True, True]
        assert restored.graph == jw_upd.graph
        for w in (u1, v1, 0):
            np.testing.assert_allclose(
                restored.query(w), jw_upd.query(w), atol=ATOL, rtol=0
            )

    def test_hgpa_dispatch_matches_rebuild(self, upd_graph):
        index = build_hgpa_index(upd_graph, tol=TIGHT_TOL, max_levels=3, seed=0)
        rng = np.random.default_rng(12)
        u, v = _missing_edge(upd_graph, rng)
        new_index, receipt = apply_edge_update(index, EdgeUpdate.insert(u, v))
        assert receipt.changed
        assert receipt.stats.rebuilt_keys and receipt.stats.affected_subgraphs
        oracle = build_hgpa_index(
            new_index.graph, hierarchy=new_index.hierarchy, tol=TIGHT_TOL
        )
        for w in range(0, upd_graph.num_nodes, 13):
            np.testing.assert_allclose(
                new_index.query(w), oracle.query(w), atol=ATOL, rtol=0
            )

    def test_hgpa_dropped_keys_existed_in_old_index(self, upd_graph):
        """Receipts report only vectors the old index actually stored.

        A hub promoted between levels has its old roles invalidated
        defensively (including a leaf vector it never had); phantom keys
        must not reach ``dropped_keys`` — the distributed runtimes'
        targeted re-deploy looks each one up in its ownership maps.
        """
        index = build_hgpa_index(upd_graph, tol=1e-6, max_levels=3, seed=0)
        rng = np.random.default_rng(99)
        for _ in range(6):
            u, v = _missing_edge(index.graph, rng)
            stores = {
                "hub": set(index.hub_partials),
                "skel": set(index.skeleton_cols),
                "leaf": set(index.leaf_ppv),
            }
            index, receipt = apply_edge_update(index, EdgeUpdate.insert(u, v))
            for kind, node in receipt.stats.dropped_keys:
                assert node in stores[kind], (
                    f"dropped key ({kind}, {node}) never existed"
                )

    def test_build_is_batch_size_invariant(self, upd_graph):
        """Per-column convergence makes built vectors independent of the
        build batch size — the property subset recomputes rely on."""
        a = build_jw_index(upd_graph, num_hubs=10, tol=1e-6, batch=4)
        b = build_jw_index(upd_graph, num_hubs=10, tol=1e-6, batch=256)
        assert set(a.hub_partials) == set(b.hub_partials)
        for h in a.hub_partials:
            assert a.hub_partials[h] == b.hub_partials[h]
            assert a.skeleton_cols[h] == b.skeleton_cols[h]
        for w in a.node_partials:
            assert a.node_partials[w] == b.node_partials[w]


    @pytest.mark.parametrize("family", ["gpa", "hgpa"])
    def test_interleaved_updates_equal_rebuild_bitwise(self, family):
        """Eight interleaved inserts and deletes on ``email``: every stored
        vector equals, bit for bit, a from-scratch build of the final graph
        over the same partition — whatever subsets and widths the updates
        happened to solve their columns in."""
        graph = datasets.load("email")
        if family == "gpa":
            index = build_gpa_index(graph, 4)
            stores = ("hub_partials", "skeleton_cols", "node_partials")
        else:
            index = build_hgpa_index(graph, max_levels=3)
            stores = ("hub_partials", "skeleton_cols", "leaf_ppv")
        rng = np.random.default_rng(14)
        for step in range(8):
            if step % 2 == 0:
                update = EdgeUpdate.insert(*_missing_edge(index.graph, rng))
            else:
                update = EdgeUpdate.delete(*_deletable_edge(index.graph, rng))
            index, receipt = apply_edge_update(index, update)
            assert receipt.changed
        if family == "gpa":
            oracle = build_gpa_index(index.graph, 4, partition=index.partition)
        else:
            oracle = build_hgpa_index(index.graph, hierarchy=index.hierarchy)
        for name in stores:
            mine, theirs = getattr(index, name), getattr(oracle, name)
            assert set(mine) == set(theirs)
            for key, vec in mine.items():
                assert vec == theirs[key], (name, key)
