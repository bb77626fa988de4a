"""Sparse end-to-end query pipeline: exact sparse-vs-dense equivalence.

The contract is *exactness*: for every engine, both distributed runtimes,
the sharded router and the serving frontend, ``query_many_sparse`` must
reproduce the dense ``query_many`` result with ``toarray()`` equality
(bitwise on the flat/distributed engines — the sparse paths replay the
dense accumulation order term by term), sparse top-k must equal dense
top-k (ids *and* scores), and the cache must account sparse entries at
their true-nnz wire size.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.approx import build_fastppv_index
from repro.core import (
    SparseVec,
    build_gpa_index,
    build_hgpa_ad_index,
    build_hgpa_index,
)
from repro.core.flat_index import (
    FlatShare,
    HubShare,
    topk_in_batches,
    topk_rows,
    topk_rows_reference,
)
from repro.core.hgpa import HGPAShare
from repro.core.sparse_ops import spgemm_scaled, topk_rows_sparse
from repro.distributed import DistributedGPA, DistributedHGPA
from repro.graph import hierarchical_community_digraph
from repro.serving import PPVCache, PPVService, SimulatedClock, as_backend
from repro.sharding import ShardRouter, owner_map_from_partition

from conftest import assert_one_row_equals_batches, sixty_four_nodes


def _mixed_queries(hubs, n, count=14, seed=29):
    """Random nodes plus a few hubs and one duplicate."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=count, replace=False).tolist()
    extra = np.asarray(hubs)[:3].tolist()
    return np.asarray(picks + extra + picks[:1], dtype=np.int64)


def _assert_exact(sparse_mat, dense_mat):
    assert sp.issparse(sparse_mat)
    assert sparse_mat.shape == dense_mat.shape
    arr = sparse_mat.toarray()
    assert np.array_equal(arr, dense_mat), (
        f"sparse/dense mismatch, max |diff| = "
        f"{np.max(np.abs(arr - dense_mat)) if arr.size else 0}"
    )


def _assert_stats_equal(sparse_stats, dense_stats):
    assert len(sparse_stats) == len(dense_stats)
    for a, b in zip(sparse_stats, dense_stats):
        assert a.entries_processed == b.entries_processed
        assert a.vectors_used == b.vectors_used
        # Sparse paths charge the actual nnz skeleton entries they read;
        # dense paths scan (and are charged) the full hub sets.
        assert 0 <= a.skeleton_lookups <= b.skeleton_lookups


# ----------------------------------------------------------------------
# Index families
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hgpa_ad_small(request):
    graph = request.getfixturevalue("small_graph")
    return build_hgpa_ad_index(graph, tol=1e-6, seed=0)


@pytest.fixture(scope="module")
def pruned_gpa_small(request):
    graph = request.getfixturevalue("small_graph")
    return build_gpa_index(graph, 4, tol=1e-6, prune=1e-3, seed=0)


FAMILIES = ["jw_small", "gpa_small", "hgpa_small", "hgpa_ad_small", "pruned_gpa_small"]


def _hubs_of(index):
    hubs = getattr(index, "hubs", None)
    if hubs is not None:
        return hubs
    n = index.graph.num_nodes
    return np.asarray([u for u in range(n) if index.hierarchy.is_hub(u)])


class TestEngineEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_sparse_matches_dense_exactly(self, request, family):
        index = request.getfixturevalue(family)
        n = index.graph.num_nodes
        queries = _mixed_queries(_hubs_of(index), n)
        dense, dense_stats = index.query_many(queries)
        sparse, sparse_stats = index.query_many_sparse(queries)
        _assert_exact(sparse, dense)
        _assert_stats_equal(sparse_stats, dense_stats)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_row_equals_its_row_in_a_batch(self, request, family):
        index = request.getfixturevalue(family)
        assert_one_row_equals_batches(
            index, sixty_four_nodes(_hubs_of(index), index.graph.num_nodes)
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_collect_stats_off_same_matrix(self, request, family):
        index = request.getfixturevalue(family)
        queries = _mixed_queries(_hubs_of(index), index.graph.num_nodes)
        dense, _ = index.query_many(queries)
        fast_dense, meta_d = index.query_many(queries, collect_stats=False)
        fast_sparse, meta_s = index.query_many_sparse(
            queries, collect_stats=False
        )
        assert meta_d == [] and meta_s == []
        assert np.array_equal(fast_dense, dense)
        _assert_exact(fast_sparse, dense)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("threshold", [None, 1e-3])
    def test_sparse_topk_matches_dense_topk(self, request, family, threshold):
        index = request.getfixturevalue(family)
        n = index.graph.num_nodes
        queries = _mixed_queries(_hubs_of(index), n)
        ids_d, scores_d, _ = index.query_many_topk(
            queries, 10, threshold=threshold
        )
        ids_s, scores_s, _ = topk_in_batches(
            index.query_many_sparse, queries, 10, n, threshold=threshold
        )
        assert np.array_equal(ids_s, ids_d)
        assert np.array_equal(scores_s, scores_d)

    @pytest.mark.parametrize("family", ["gpa_small", "hgpa_small"])
    def test_empty_and_chunked_batches(self, request, family):
        index = request.getfixturevalue(family)
        n = index.graph.num_nodes
        empty, meta = index.query_many_sparse(np.asarray([], dtype=np.int64))
        assert empty.shape == (0, n) and meta == []
        # A batch larger than the internal chunk exercises the stacked path.
        rng = np.random.default_rng(5)
        big = rng.choice(n, size=300).astype(np.int64)
        dense, _ = index.query_many(big)
        sparse, _ = index.query_many_sparse(big)
        _assert_exact(sparse, dense)

    def test_fastppv_sparse_is_dense_sparsified(self, request):
        graph = request.getfixturevalue("small_graph")
        index = build_fastppv_index(graph, 25, tol=1e-6)
        queries = np.arange(0, 60, 4)
        dense, infos_d = index.query_many(queries)
        sparse, infos_s = index.query_many_sparse(queries)
        _assert_exact(sparse, dense)
        assert len(infos_d) == len(infos_s) == queries.size

    def test_property_random_graphs(self):
        """Random graphs × flat/HGPA × mixed batches: exact agreement."""
        for seed in (1, 2):
            g = hierarchical_community_digraph(
                130, avg_out_degree=3, seed=seed
            ).with_dangling_policy("self_loop")
            gpa = build_gpa_index(g, 3, tol=1e-6, prune=1e-3, seed=seed)
            hgpa = build_hgpa_index(g, tol=1e-6, prune=1e-3, seed=seed)
            for index in (gpa, hgpa):
                queries = _mixed_queries(_hubs_of(index), 130, seed=seed + 7)
                dense, ds = index.query_many(queries)
                sparse, ss = index.query_many_sparse(queries)
                _assert_exact(sparse, dense)
                _assert_stats_equal(ss, ds)

    def test_non_default_alpha_stays_bitwise(self):
        """Exactness must hold for any alpha, not just the 0.15 default.

        ``x / alpha`` and ``x * (1/alpha)`` round differently for most
        alphas, so every path — dense or sparse, index or machine —
        scales by multiplying with ``1/alpha``.  That makes sparse equal
        dense everywhere, and a one-machine deployment equal its index.
        """
        g = hierarchical_community_digraph(
            120, avg_out_degree=3, seed=4
        ).with_dangling_policy("self_loop")
        queries = np.arange(0, 120, 5)
        for alpha in (0.15, 0.2, 0.85):
            gpa = build_gpa_index(g, 3, alpha=alpha, tol=1e-6, seed=0)
            hgpa = build_hgpa_index(g, alpha=alpha, tol=1e-6, seed=0)
            engines = [
                gpa,
                hgpa,
                DistributedGPA(gpa, 3),
                DistributedHGPA(hgpa, 3),
            ]
            for engine in engines:
                dense, _ = engine.query_many(queries)
                sparse, _ = engine.query_many_sparse(queries)
                _assert_exact(sparse, dense)
            for index, one in (
                (gpa, DistributedGPA(gpa, 1)),
                (hgpa, DistributedHGPA(hgpa, 1)),
            ):
                dense, _ = index.query_many(queries)
                sparse, _ = index.query_many_sparse(queries)
                assert np.array_equal(one.query_many(queries)[0], dense)
                got, _ = one.query_many_sparse(queries)
                assert np.array_equal(got.indptr, sparse.indptr)
                assert np.array_equal(got.indices, sparse.indices)
                assert np.array_equal(got.data, sparse.data)


class TestRowLoopBelow:
    """Which path a batch size takes: each family's ``ROW_LOOP_BELOW``."""

    @pytest.mark.parametrize("family", ["hgpa_small", "hgpa_ad_small"])
    def test_hgpa_level_chunks_move_no_answer(self, request, family, monkeypatch):
        """The sparse body takes each level's product ``LEVEL_CHUNK``
        queries at a time; any chunk size gives the same CSR arrays and
        counters as one product per level."""
        index = request.getfixturevalue(family)
        nodes = np.random.default_rng(8).integers(0, index.graph.num_nodes, 300)
        nodes[:5] = _hubs_of(index)[:5]  # hubs at their own level too
        monkeypatch.setattr(HGPAShare, "LEVEL_CHUNK", 10**9)
        whole, whole_stats = index.query_many_sparse(nodes)
        for chunk in (1, 7, 64):
            monkeypatch.setattr(HGPAShare, "LEVEL_CHUNK", chunk)
            got, stats = index.query_many_sparse(nodes)
            for field in ("data", "indices", "indptr"):
                a, b = getattr(got, field), getattr(whole, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (chunk, field)
            assert stats == whole_stats, chunk

    def test_hgpa_loops_rows_below_64(self, hgpa_small, monkeypatch):
        """Sparse batches under 64 rows run the row loop; a dense batch of
        any size never enters a body — HGPA's dense body is the loop."""

        def refuse(share, nodes):
            raise AssertionError(f"batch body ran {nodes.size} rows")

        looped = []
        row = HGPAShare.row

        def spy(share, u):
            looped.append(u)
            return row(share, u)

        assert HGPAShare.dense is HubShare.dense
        monkeypatch.setattr(HGPAShare, "sparse", refuse)
        monkeypatch.setattr(HGPAShare, "row", spy)
        nodes = np.random.default_rng(5).integers(0, hgpa_small.graph.num_nodes, 300)
        for size in range(2, 64):
            hgpa_small.query_many_sparse(nodes[:size], collect_stats=False)
        for size in (0, 1, 2, 63, 64, 300):
            looped.clear()
            hgpa_small.query_many(nodes[:size])
            assert looped == nodes[:size].tolist()
        for size in (0, 64):  # empty batches stay on the body path
            with pytest.raises(AssertionError, match=f"ran {size} rows"):
                hgpa_small.query_many_sparse(nodes[:size])

    def test_gpa_runs_its_bodies_from_two_rows(self, gpa_small, monkeypatch):
        entered = []
        for name in ("dense", "sparse"):
            body = getattr(FlatShare, name)

            def spy(share, nodes, body=body, name=name):
                entered.append((name, nodes.size))
                return body(share, nodes)

            monkeypatch.setattr(FlatShare, name, spy)
        gpa_small.query_many([3, 7])
        gpa_small.query_many_sparse([3, 7])
        gpa_small.query_many([3])
        assert entered == [("dense", 2), ("sparse", 2)]


# ----------------------------------------------------------------------
# Distributed runtimes
# ----------------------------------------------------------------------
class TestDistributedSparse:
    @pytest.fixture(scope="class")
    def runtimes(self, medium_graph):
        gpa = build_gpa_index(medium_graph, 4, tol=1e-6, prune=1e-3, seed=0)
        hgpa = build_hgpa_index(medium_graph, tol=1e-6, prune=1e-3, seed=0)
        return {
            "gpa": (gpa, lambda: DistributedGPA(gpa, 3)),
            "hgpa": (hgpa, lambda: DistributedHGPA(hgpa, 3)),
        }

    @pytest.mark.parametrize("kind", ["gpa", "hgpa"])
    def test_sparse_matches_dense_with_identical_wire(self, runtimes, kind):
        index, make = runtimes[kind]
        cluster = make()
        queries = _mixed_queries(_hubs_of(index), cluster.num_nodes)
        before = cluster.coordinator.meter.total_bytes
        dense, dense_reports = cluster.query_many(queries)
        dense_bytes = cluster.coordinator.meter.total_bytes - before
        before = cluster.coordinator.meter.total_bytes
        sparse, sparse_reports = cluster.query_many_sparse(queries)
        sparse_bytes = cluster.coordinator.meter.total_bytes - before
        _assert_exact(sparse, dense)
        # The sparse path ships the same payloads: identical nnz, hence
        # identical metered bytes and identical per-machine reports.
        assert sparse_bytes == dense_bytes
        assert len(sparse_reports) == len(dense_reports)
        for a, b in zip(sparse_reports, dense_reports):
            assert a.per_machine_entries == b.per_machine_entries
            assert a.per_machine_bytes == b.per_machine_bytes
            assert a.communication_bytes == b.communication_bytes

    @pytest.mark.parametrize("kind", ["gpa", "hgpa"])
    def test_collect_stats_off(self, runtimes, kind):
        index, make = runtimes[kind]
        cluster = make()
        queries = _mixed_queries(_hubs_of(index), cluster.num_nodes)
        dense, _ = cluster.query_many(queries)
        fast_d, meta_d = cluster.query_many(queries, collect_stats=False)
        fast_s, meta_s = cluster.query_many_sparse(queries, collect_stats=False)
        assert meta_d == [] and meta_s == []
        assert np.array_equal(fast_d, dense)
        _assert_exact(fast_s, dense)

    @pytest.mark.parametrize("kind", ["gpa", "hgpa"])
    def test_chunked_big_batch(self, runtimes, kind):
        index, make = runtimes[kind]
        cluster = make()
        rng = np.random.default_rng(13)
        big = rng.choice(cluster.num_nodes, size=300).astype(np.int64)
        dense, _ = cluster.query_many(big)
        sparse, _ = cluster.query_many_sparse(big)
        _assert_exact(sparse, dense)


# ----------------------------------------------------------------------
# Serving adapter
# ----------------------------------------------------------------------
class TestAdapterSparse:
    def test_native_passthrough(self, gpa_small):
        backend = as_backend(gpa_small)
        queries = _mixed_queries(gpa_small.hubs, gpa_small.graph.num_nodes)
        dense, _ = backend.query_many(queries)
        sparse, _ = backend.query_many_sparse(queries)
        _assert_exact(sparse, dense)


# ----------------------------------------------------------------------
# Cache with sparse entries
# ----------------------------------------------------------------------
class TestCacheSparseEntries:
    def test_wire_byte_accounting(self):
        cache = PPVCache(10_000)
        vec = SparseVec(np.asarray([2, 5, 9]), np.asarray([0.1, 0.2, 0.3]))
        assert cache.put(7, vec)
        assert cache.current_bytes == vec.wire_bytes == 16 + 12 * 3
        got = cache.get(7)
        assert isinstance(got, SparseVec) and got == vec
        assert cache.stats.hits == 1

    def test_sparse_entries_fit_many_more_rows(self):
        n = 1000
        budget = 8 * n * 4  # room for exactly 4 dense rows
        dense_cache = PPVCache(budget)
        sparse_cache = PPVCache(budget)
        rng = np.random.default_rng(3)
        for u in range(40):
            row = np.zeros(n)
            row[rng.choice(n, size=10, replace=False)] = rng.random(10)
            dense_cache.put(u, row)
            sparse_cache.put(u, SparseVec.from_dense(row))
        assert len(dense_cache) <= 4
        assert len(sparse_cache) == 40  # 136 bytes each vs 8000 dense
        assert sparse_cache.current_bytes <= budget

    def test_eviction_and_invalidate_use_entry_size(self):
        cache = PPVCache(300)
        v1 = SparseVec(np.arange(10), np.ones(10))  # 136 bytes
        v2 = SparseVec(np.arange(10, 20), np.ones(10))
        v3 = SparseVec(np.arange(20, 30), np.ones(10))
        cache.put(1, v1)
        cache.put(2, v2)
        cache.put(3, v3)  # 408 bytes > 300: evicts the LRU entry (key 1)
        assert cache.stats.evictions == 1
        assert 1 not in cache
        assert cache.current_bytes == v2.wire_bytes + v3.wire_bytes
        assert cache.invalidate([1, 2, 3]) == 2  # only 2 and 3 resident
        assert cache.current_bytes == 0 and len(cache) == 0

    def test_mixed_dense_and_sparse_entries(self):
        cache = PPVCache(100_000)
        row = np.zeros(50)
        row[3] = 0.5
        cache.put(1, row)
        cache.put(2, SparseVec.from_dense(row))
        assert cache.current_bytes == row.nbytes + (16 + 12)
        assert isinstance(cache.get(1), np.ndarray)
        assert isinstance(cache.get(2), SparseVec)


# ----------------------------------------------------------------------
# Sharded router + service
# ----------------------------------------------------------------------
class TestShardedSparse:
    @pytest.fixture(scope="class")
    def setup(self, medium_graph):
        index = build_gpa_index(medium_graph, 4, tol=1e-6, prune=1e-3, seed=0)
        omap = owner_map_from_partition(index.partition, num_shards=3)
        make = lambda: ShardRouter(  # noqa: E731 - tiny factory
            [[index, index]] * 3,
            policy="owner",
            owner_map=omap,
            cache_bytes=1 << 20,
        )
        rng = np.random.default_rng(23)
        stream = rng.choice(medium_graph.num_nodes, 90).astype(np.int64)
        return index, make, stream

    def test_router_sparse_matches_dense(self, setup):
        index, make, stream = setup
        dense_router, sparse_router = make(), make()
        dense, infos_d = dense_router.query_many(stream)
        sparse, infos_s = sparse_router.query_many_sparse(stream)
        _assert_exact(sparse, dense)
        assert [i.shard for i in infos_s] == [i.shard for i in infos_d]
        assert [i.cached for i in infos_s] == [i.cached for i in infos_d]

    def test_router_sparse_topk_matches_dense(self, setup):
        index, make, stream = setup
        dense_router, sparse_router = make(), make()
        ids_d, scores_d, _ = dense_router.query_many_topk(stream, 12)
        ids_s, scores_s, _ = sparse_router.query_many_topk(
            stream, 12, sparse=True
        )
        assert np.array_equal(ids_s, ids_d)
        assert np.array_equal(scores_s, scores_d)

    def test_sparse_cache_hits_and_wire_accounting(self, setup):
        index, make, stream = setup
        router = make()
        router.query_many_sparse(stream)
        # Second pass: every row served from the shard caches.
        _, infos = router.query_many_sparse(stream)
        assert all(i.cached for i in infos)
        stats = router.stats()
        assert stats.cache is not None and stats.cache.hits == stream.size
        # Shard caches hold SparseVec entries accounted at wire size.
        for shard in router.shards:
            assert shard.cache.current_bytes == sum(
                e.wire_bytes for e in shard.cache._store.values()
            )
        # Response legs were metered per sparse row (header + nnz entries),
        # strictly below the dense rows' 8n bytes on this pruned index.
        n = router.num_nodes
        sparse_resp = sum(
            router.meter.by_link.get((f"shard-{s}", "router"), 0)
            for s in range(3)
        )
        assert sparse_resp < 2 * stream.size * 8 * n

    def test_service_sparse_mode_matches_dense(self, setup):
        index, make, stream = setup
        svc_dense = PPVService(make(), window=0.005, clock=SimulatedClock())
        svc_sparse = PPVService(
            make(),
            window=0.005,
            clock=SimulatedClock(),
            sparse=True,
            collect_stats=False,
        )
        rng = np.random.default_rng(2)
        arrivals = np.cumsum(rng.random(stream.size) * 0.002)
        dense = svc_dense.serve(stream, arrivals)
        sparse = svc_sparse.serve(stream, arrivals)
        _assert_exact(sparse, dense)
        # Tickets resolve to SparseVec rows; topk agrees with dense.
        vec = svc_sparse.query(int(stream[0]))
        assert isinstance(vec, SparseVec)
        ids_d, scores_d = svc_dense.query_topk(int(stream[0]), 9)
        ids_s, scores_s = svc_sparse.query_topk(int(stream[0]), 9)
        assert np.array_equal(ids_s, ids_d)
        assert np.array_equal(scores_s, scores_d)
        # Cache accounting: every shard entry at its true-nnz wire size.
        for shard in svc_sparse.backend.shards:
            assert shard.cache.current_bytes == sum(
                e.wire_bytes for e in shard.cache._store.values()
            )


def test_spgemm_scaled_is_sorted_and_equals_the_dense_product():
    """The level-term product: canonical CSC, bitwise the CSC @ dense
    product the dense paths compute."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        part = sp.random(int(rng.integers(1, 9)), 30, density=0.3, format="csc", rng=rng)
        w = sp.random(25, 30, density=0.2, format="csr", rng=rng)
        out = spgemm_scaled(part, w, 1.0 / 0.15)
        assert out.format == "csc" and out.has_sorted_indices
        np.testing.assert_array_equal(
            out.toarray(), part @ (w.toarray() * (1.0 / 0.15)).T
        )


# ----------------------------------------------------------------------
# Vectorised top-k vs the per-row oracle
# ----------------------------------------------------------------------
class TestTopkRowsVectorised:
    def _random_matrices(self):
        # Widths up to ~600 (most not a multiple of the 32-entry span) and
        # k both below and above the span count n / 32, so the span floor
        # cuts on some matrices and is -inf on others.
        rng = np.random.default_rng(42)
        for trial in range(60):
            rows = int(rng.integers(1, 9))
            n = int(rng.integers(1, 50) if trial % 3 == 0 else rng.integers(50, 620))
            dense = np.where(
                rng.random((rows, n)) < 0.4, rng.random((rows, n)), 0.0
            )
            if trial % 4 == 0:
                # Heavy ties: quantised scores, including negatives.
                dense = np.round(dense, 1) - (trial % 8 == 0) * 0.05
            if trial % 2:
                k = int(rng.integers(1, max(2, n // 32)))
            else:
                k = int(rng.integers(max(1, n // 32), n + 3))
            threshold = None if trial % 3 else 0.25
            yield dense, k, threshold

    def test_matches_reference_oracle(self):
        for dense, k, threshold in self._random_matrices():
            ids_v, scores_v = topk_rows(dense, k, threshold=threshold)
            ids_r, scores_r = topk_rows_reference(dense, k, threshold=threshold)
            assert np.array_equal(ids_v, ids_r), (dense, k, threshold)
            assert np.array_equal(scores_v, scores_r)

    def test_sparse_matches_reference_oracle(self):
        for dense, k, threshold in self._random_matrices():
            ids_s, scores_s = topk_rows_sparse(
                sp.csr_matrix(dense), k, threshold=threshold
            )
            ids_r, scores_r = topk_rows_reference(dense, k, threshold=threshold)
            assert np.array_equal(ids_s, ids_r), (dense, k, threshold)
            assert np.array_equal(scores_s, scores_r)

    def test_tie_contract_at_boundary(self):
        # All-equal rows: the k smallest ids win, ascending.
        dense = np.full((2, 7), 0.5)
        ids, scores = topk_rows(dense, 3)
        assert np.array_equal(ids, [[0, 1, 2], [0, 1, 2]])
        # Zero rows through the sparse path: implicit zeros tie by id.
        ids_s, scores_s = topk_rows_sparse(sp.csr_matrix((2, 7)), 3)
        assert np.array_equal(ids_s, [[0, 1, 2], [0, 1, 2]])
        assert np.array_equal(scores_s, np.zeros((2, 3)))
