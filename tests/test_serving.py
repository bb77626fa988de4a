"""Serving layer: cache, micro-batching service, adapters, top-k queries.

The serving contract is exactness end to end: whatever path a request
takes — cached, micro-batched, deduplicated, top-k-reduced — the answer
must match the backend's per-node ``query`` to 1e-12.
"""

import numpy as np
import pytest

from repro.approx import build_fastppv_index
from repro.core.flat_index import topk_rows
from repro.distributed import DistributedGPA, DistributedHGPA
from repro.errors import QueryError, ServingError
from repro.metrics import top_k_nodes
from repro.serving import (
    PPVCache,
    PPVService,
    QueryBackend,
    SimulatedClock,
    as_backend,
)
from repro.sharding import ShardRouter

ATOL = 1e-12


@pytest.fixture(scope="module")
def fast_small(request):
    graph = request.getfixturevalue("small_graph")
    return build_fastppv_index(graph, 25, tol=1e-6)


@pytest.fixture(scope="module")
def dist_gpa(request):
    return DistributedGPA(request.getfixturevalue("gpa_small"), 3)


@pytest.fixture(scope="module")
def dist_hgpa(request):
    return DistributedHGPA(request.getfixturevalue("hgpa_small"), 3)


def _ppv_row(n):
    rng = np.random.default_rng(0)
    return rng.random(n)


def _cached_service(engine, cache_bytes, **kwargs):
    """A service whose engine sits in a one-shard router with an LRU
    cache of ``cache_bytes`` — the cached deployment of a bare engine.
    Returns the service and the shard's cache."""
    clock = kwargs.setdefault("clock", SimulatedClock())
    router = ShardRouter([[engine]], cache_bytes=cache_bytes, clock=clock)
    return PPVService(router, **kwargs), router.shards[0].cache


# ----------------------------------------------------------------------
class TestPPVCache:
    def test_hit_miss_accounting(self):
        cache = PPVCache(1 << 20)
        assert cache.get(3) is None
        cache.put(3, _ppv_row(10))
        got = cache.get(3)
        assert got is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_entries_read_only_and_uncorruptible(self):
        cache = PPVCache(1 << 20)
        src = _ppv_row(10)
        cache.put(1, src)
        got = cache.get(1)
        with pytest.raises(ValueError):
            got[0] = 99.0
        # Mutating the caller's original array must not reach the cache.
        src[0] = 99.0
        assert cache.get(1)[0] != 99.0

    def test_lru_eviction_order(self):
        row_bytes = _ppv_row(10).nbytes
        cache = PPVCache(3 * row_bytes)
        for u in (0, 1, 2):
            cache.put(u, _ppv_row(10))
        cache.get(0)  # 1 becomes least-recently-used
        cache.put(3, _ppv_row(10))
        assert 1 not in cache and 0 in cache and 2 in cache and 3 in cache
        assert cache.stats.evictions == 1

    def test_byte_budget_invariant(self):
        row = _ppv_row(16)
        cache = PPVCache(5 * row.nbytes)
        for u in range(20):
            cache.put(u, row)
            assert cache.current_bytes <= cache.max_bytes
        assert len(cache) == 5

    def test_oversized_entry_rejected(self):
        cache = PPVCache(8)
        assert not cache.put(0, _ppv_row(100))
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_replace_same_key(self):
        cache = PPVCache(1 << 20)
        cache.put(5, np.ones(4))
        cache.put(5, np.full(4, 2.0))
        assert len(cache) == 1
        np.testing.assert_array_equal(cache.get(5), np.full(4, 2.0))

    def test_read_only_view_copied_not_pinned(self):
        """A read-only row *view* must be copied — storing it as-is would
        keep the whole base matrix alive while accounting only the row."""
        base = np.arange(12.0).reshape(3, 4)
        base.flags.writeable = False
        cache = PPVCache(1 << 20)
        cache.put(0, base[1])
        stored = cache.get(0)
        assert stored.base is None
        np.testing.assert_array_equal(stored, base[1])

    def test_clear_keeps_stats(self):
        cache = PPVCache(1 << 20)
        cache.put(0, _ppv_row(4))
        cache.get(0)
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.stats.hits == 1

    def test_bad_budget(self):
        with pytest.raises(ServingError):
            PPVCache(0)

    def test_contains_does_not_touch_stats(self):
        cache = PPVCache(1 << 20)
        cache.put(0, _ppv_row(4))
        assert 0 in cache and 1 not in cache
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_default_weightless_is_pure_lru(self):
        row_bytes = _ppv_row(10).nbytes
        cache = PPVCache(2 * row_bytes)
        for u in (5, 1, 9):
            cache.put(u, _ppv_row(10))
        assert 5 not in cache  # oldest goes, regardless of id


# ----------------------------------------------------------------------
class TestCacheInvalidate:
    def test_drops_exactly_the_given_rows(self):
        cache = PPVCache(1 << 20)
        for u in range(6):
            cache.put(u, _ppv_row(16))
        before = cache.current_bytes
        dropped = cache.invalidate([1, 3, 99])  # 99 was never cached
        assert dropped == 2
        assert cache.stats.invalidations == 2
        assert 1 not in cache and 3 not in cache
        for u in (0, 2, 4, 5):
            assert u in cache
        assert cache.current_bytes == before - 2 * 16 * 8

    def test_invalidate_does_not_touch_hit_miss_stats(self):
        cache = PPVCache(1 << 20)
        cache.put(0, _ppv_row(8))
        cache.invalidate([0])
        assert cache.stats.requests == 0

    def test_scalar_and_empty_inputs(self):
        cache = PPVCache(1 << 20)
        cache.put(7, _ppv_row(8))
        assert cache.invalidate(7) == 1
        assert cache.invalidate(np.empty(0, dtype=np.int64)) == 0


# ----------------------------------------------------------------------
class TestTopK:
    @pytest.mark.parametrize("family", ["jw_small", "gpa_small", "hgpa_small"])
    def test_matches_dense_argsort(self, request, family):
        index = request.getfixturevalue(family)
        queries = np.asarray([0, 7, 57, 150])
        ids, scores, stats = index.query_many_topk(queries, 12)
        assert ids.shape == scores.shape == (queries.size, 12)
        assert len(stats) == queries.size
        for j, u in enumerate(queries.tolist()):
            dense = index.query(u)
            ref = top_k_nodes(dense, 12)
            assert ids[j].tolist() == ref.tolist()
            np.testing.assert_allclose(scores[j], dense[ref], atol=ATOL, rtol=0)

    def test_fastppv_matches_dense_argsort(self, fast_small):
        queries = np.asarray([0, 57])
        ids, scores, infos = fast_small.query_many_topk(queries, 10)
        assert len(infos) == queries.size
        for j, u in enumerate(queries.tolist()):
            dense = fast_small.query(u)
            ref = top_k_nodes(dense, 10)
            assert ids[j].tolist() == ref.tolist()
            np.testing.assert_allclose(scores[j], dense[ref], atol=ATOL, rtol=0)

    def test_single_query_topk(self, jw_small):
        ids, scores = jw_small.query_topk(5, 8)
        ref = top_k_nodes(jw_small.query(5), 8)
        assert ids.tolist() == ref.tolist()
        assert np.all(np.diff(scores) <= 0)

    def test_chunking_independent(self, hgpa_small):
        queries = np.asarray([0, 5, 42, 99, 150, 7, 13])
        whole = hgpa_small.query_many_topk(queries, 9, batch=100)
        chunked = hgpa_small.query_many_topk(queries, 9, batch=2)
        np.testing.assert_array_equal(whole[0], chunked[0])
        np.testing.assert_allclose(whole[1], chunked[1], atol=ATOL, rtol=0)

    def test_k_exceeding_n_clamped(self, jw_small):
        n = jw_small.graph.num_nodes
        ids, scores = jw_small.query_topk(3, n + 50)
        assert ids.size == n
        # A full-length top-k is the whole PPV, reordered.
        np.testing.assert_allclose(
            np.sort(scores), np.sort(jw_small.query(3)), atol=ATOL, rtol=0
        )

    @pytest.mark.parametrize("family", ["jw_small", "hgpa_small"])
    def test_bad_k_rejected(self, request, family):
        index = request.getfixturevalue(family)
        with pytest.raises(QueryError):
            index.query_many_topk([0], 0)
        with pytest.raises(QueryError):
            index.query_topk(0, -3)

    def test_empty_batch(self, jw_small, hgpa_small):
        empty = np.empty(0, dtype=np.int64)
        for index in (jw_small, hgpa_small):
            ids, scores, stats = index.query_many_topk(empty, 5)
            assert ids.shape == (0, 5) and scores.shape == (0, 5)
            assert stats == []

    def test_topk_rows_ties_by_id(self):
        dense = np.asarray([[0.5, 0.9, 0.5, 0.1]])
        ids, scores = topk_rows(dense, 3)
        assert ids[0].tolist() == [1, 0, 2]
        assert scores[0].tolist() == [0.9, 0.5, 0.5]

    @pytest.mark.parametrize("family", ["jw_small", "gpa_small", "hgpa_small"])
    def test_threshold_matches_manual_filter(self, request, family):
        """threshold=eps drops score <= eps entries before the k-cut; the
        survivors are a prefix, the tail is id -1 / score 0.0 padding."""
        index = request.getfixturevalue(family)
        queries = np.asarray([0, 7, 57, 150])
        eps = 0.02
        ids, scores, _ = index.query_many_topk(queries, 15, threshold=eps)
        plain_ids, plain_scores, _ = index.query_many_topk(queries, 15)
        for j in range(queries.size):
            keep = plain_scores[j] > eps
            m = int(keep.sum())
            assert keep[:m].all()  # survivors form a prefix
            assert ids[j, :m].tolist() == plain_ids[j, :m].tolist()
            np.testing.assert_allclose(
                scores[j, :m], plain_scores[j, :m], atol=ATOL, rtol=0
            )
            assert np.all(ids[j, m:] == -1) and np.all(scores[j, m:] == 0.0)
        assert (ids == -1).any()  # eps chosen so the cut actually bites

    def test_threshold_on_single_and_service(self, hgpa_small):
        ids, scores = hgpa_small.query_topk(42, 10, threshold=0.05)
        service = PPVService(hgpa_small, clock=SimulatedClock())
        s_ids, s_scores = service.query_topk(42, 10, threshold=0.05)
        assert ids.tolist() == s_ids.tolist()
        np.testing.assert_allclose(scores, s_scores, atol=ATOL, rtol=0)
        assert np.all(scores[scores > 0] > 0.05)

    def test_threshold_through_adapter_for_runtimes(self, dist_gpa, gpa_small):
        """Distributed runtimes get thresholding via the adapter's chunked
        reduction (they have no native query_many_topk)."""
        backend = as_backend(dist_gpa)
        ids, scores, _ = backend.query_many_topk([3, 77], 15, threshold=0.02)
        rids, rscores, _ = gpa_small.query_many_topk([3, 77], 15, threshold=0.02)
        assert ids.tolist() == rids.tolist()
        np.testing.assert_allclose(scores, rscores, atol=1e-8, rtol=0)

    def test_threshold_above_everything_pads_fully(self, jw_small):
        ids, scores = jw_small.query_topk(5, 8, threshold=2.0)
        assert np.all(ids == -1) and np.all(scores == 0.0)

    def test_topk_rows_boundary_ties_smallest_ids(self):
        """Regression: ties straddling the k boundary must resolve to the
        smallest ids, not whatever subset argpartition happens to keep —
        pruned/truncated PPVs are full of exact-zero ties."""
        row = np.zeros(50)
        row[[10, 20, 30]] = (0.5, 0.3, 0.2)
        ids, scores = topk_rows(row[np.newaxis], 6)
        assert ids[0].tolist() == [10, 20, 30, 0, 1, 2]
        assert scores[0].tolist() == [0.5, 0.3, 0.2, 0.0, 0.0, 0.0]
        assert top_k_nodes(row, 6).tolist() == ids[0].tolist()


# ----------------------------------------------------------------------
class TestAdapters:
    def test_index_backend(self, jw_small):
        backend = as_backend(jw_small)
        assert backend.num_nodes == jw_small.graph.num_nodes
        out, stats = backend.query_many([3, 5])
        np.testing.assert_allclose(out[0], jw_small.query(3), atol=ATOL, rtol=0)

    def test_cluster_backend_topk(self, dist_gpa, gpa_small):
        backend = as_backend(dist_gpa)
        assert backend.num_nodes == dist_gpa.num_nodes
        ids, scores, reports = backend.query_many_topk([3, 77], 10)
        for j, u in enumerate((3, 77)):
            ref = top_k_nodes(gpa_small.query(u), 10)
            assert ids[j].tolist() == ref.tolist()
        assert len(reports) == 2

    def test_backend_passthrough(self, jw_small):
        backend = as_backend(jw_small)
        assert as_backend(backend) is backend
        assert isinstance(backend, QueryBackend)

    def test_unservable_rejected(self):
        with pytest.raises(ServingError):
            as_backend(object())

    def test_engine_without_query_many_rejected(self, small_graph):
        """Having a graph is not enough — the batch API is the contract."""

        class Legacy:
            def __init__(self, graph):
                self.graph = graph

            def query(self, u):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ServingError, match="query_many"):
            as_backend(Legacy(small_graph))

    def test_engine_without_num_nodes_rejected(self):
        """query_many alone is not enough either: without a num_nodes
        source the service cannot range-check requests."""

        class Headless:
            def query_many(self, nodes):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ServingError, match="num_nodes"):
            as_backend(Headless())

        class GraphNoSize(Headless):
            graph = object()  # graph present but no num_nodes on it

        with pytest.raises(ServingError, match="num_nodes"):
            as_backend(GraphNoSize())

    def test_non_callable_query_many_rejected(self):
        class Fake:
            query_many = "not callable"

        with pytest.raises(ServingError, match="query_many"):
            as_backend(Fake())


# ----------------------------------------------------------------------
class TestPPVService:
    ALL_BACKENDS = [
        "jw_small",
        "gpa_small",
        "hgpa_small",
        "fast_small",
        "dist_gpa",
        "dist_hgpa",
    ]

    @staticmethod
    def _reference(engine):
        """Per-node query closure for any engine (runtimes return tuples)."""
        if hasattr(engine, "graph"):
            return engine.query
        return lambda u: engine.query(u)[0]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_micro_batched_matches_direct(self, request, backend):
        engine = request.getfixturevalue(backend)
        ref = self._reference(engine)
        service, _ = _cached_service(
            engine, 1 << 22, window=0.005, max_batch=4
        )
        stream = np.asarray([3, 40, 77, 3, 110, 40, 9, 199])
        out = service.serve(stream)
        assert out.shape == (stream.size, service.backend.num_nodes)
        for i, u in enumerate(stream.tolist()):
            assert np.abs(out[i] - ref(u)).max() <= ATOL

    def test_cached_matches_fresh(self, jw_small):
        service, cache = _cached_service(jw_small, 1 << 22)
        fresh = service.query(42)
        cached = service.query(42)
        assert cache.stats.hits == 1
        assert np.array_equal(cached, fresh)  # bitwise the computed row
        assert not cached.flags.writeable
        np.testing.assert_allclose(fresh, jw_small.query(42), atol=ATOL, rtol=0)

    def test_results_read_only(self, jw_small):
        service = PPVService(jw_small, clock=SimulatedClock())
        vec = service.query(3)
        with pytest.raises(ValueError):
            vec[0] = 1.0

    def test_window_batching_deterministic(self, jw_small):
        clock = SimulatedClock()
        service = PPVService(jw_small, window=0.010, max_batch=100, clock=clock)
        t1 = service.submit(5)
        clock.advance(0.004)
        assert service.poll() == 0  # window still open
        t2 = service.submit(6)
        clock.advance(0.005)
        assert service.poll() == 0  # 9ms since first request
        clock.advance(0.002)
        assert service.poll() == 2  # 11ms: one batch, both tickets
        assert t1.done and t2.done
        assert service.stats.batches == 1
        np.testing.assert_allclose(t1.result, jw_small.query(5), atol=ATOL, rtol=0)

    def test_submit_alone_flushes_expired_window(self, jw_small):
        """Submit-only callers keep the at-most-one-window latency bound:
        a request arriving after the deadline flushes the stale batch."""
        clock = SimulatedClock()
        service = PPVService(jw_small, window=0.010, max_batch=100, clock=clock)
        t1 = service.submit(5)
        clock.advance(0.020)  # window long expired, nobody called poll()
        t2 = service.submit(6)
        assert t1.done  # flushed by the submit itself
        assert not t2.done  # new request opens a fresh window
        np.testing.assert_allclose(t1.result, jw_small.query(5), atol=ATOL, rtol=0)
        service.flush()
        assert t2.done

    def test_max_batch_flushes_eagerly(self, jw_small):
        service = PPVService(
            jw_small, window=10.0, max_batch=3, clock=SimulatedClock()
        )
        tickets = [service.submit(u) for u in (1, 2, 3)]
        assert all(t.done for t in tickets)  # hit max_batch, no clock motion
        assert service.stats.batches == 1

    def test_batch_deduplicates(self, jw_small):
        service = PPVService(jw_small, window=10.0, max_batch=100, clock=SimulatedClock())
        for u in (7, 7, 7, 9):
            service.submit(u)
        service.flush()
        assert service.stats.batches == 1
        assert service.stats.batched_queries == 2  # unique {7, 9}
        assert service.stats.mean_batch_size == 2.0

    def test_pending_ticket_raises(self, jw_small):
        service = PPVService(jw_small, window=10.0, clock=SimulatedClock())
        ticket = service.submit(4)
        assert not ticket.done
        with pytest.raises(ServingError):
            _ = ticket.result
        service.flush()
        assert ticket.result is not None

    def test_arrival_replay_forms_windows(self, jw_small):
        service = PPVService(
            jw_small, window=0.010, max_batch=100, clock=SimulatedClock()
        )
        stream = np.asarray([1, 2, 3, 4])
        arrivals = np.asarray([0.0, 0.005, 0.050, 0.055])
        out = service.serve(stream, arrivals)
        # 1+2 share a window; 3 opens a new one that closes before 4 only
        # if 10ms pass — they arrive 5ms apart, so 3+4 share the second.
        assert service.stats.batches == 2
        for i, u in enumerate(stream.tolist()):
            np.testing.assert_allclose(out[i], jw_small.query(u), atol=ATOL, rtol=0)

    def test_arrivals_need_simulated_clock(self, jw_small):
        service = PPVService(jw_small)  # SystemClock
        with pytest.raises(ServingError):
            service.serve(np.asarray([1, 2]), np.asarray([0.0, 1.0]))

    def test_service_topk_matches_index(self, hgpa_small):
        service, cache = _cached_service(hgpa_small, 1 << 22)
        ids, scores = service.query_topk(42, 15)
        ref_ids, ref_scores = hgpa_small.query_topk(42, 15)
        assert ids.tolist() == ref_ids.tolist()
        np.testing.assert_allclose(scores, ref_scores, atol=ATOL, rtol=0)
        # second call is served from cache, still identical
        ids2, _ = service.query_topk(42, 15)
        assert cache.stats.hits == 1
        assert ids2.tolist() == ref_ids.tolist()

    def test_empty_stream(self, jw_small):
        service = PPVService(jw_small, clock=SimulatedClock())
        out = service.serve(np.empty(0, dtype=np.int64))
        assert out.shape == (0, jw_small.graph.num_nodes)
        assert service.stats.batches == 0

    def test_out_of_range_rejected(self, jw_small):
        service = PPVService(jw_small, clock=SimulatedClock())
        with pytest.raises(ServingError):
            service.submit(-1)
        with pytest.raises(ServingError):
            service.submit(10_000)

    def test_float_ids_rejected(self, jw_small):
        """Floats must not silently truncate to the wrong node's PPV."""
        service = PPVService(jw_small, clock=SimulatedClock())
        with pytest.raises(ServingError, match="integer"):
            service.submit(3.7)
        with pytest.raises(ServingError, match="integer"):
            service.query(np.float64(3.0))
        assert service.submit(np.int64(3)).node == 3  # real ints pass

    def test_bad_config_rejected(self, jw_small):
        with pytest.raises(ServingError):
            PPVService(jw_small, window=-1.0)
        with pytest.raises(ServingError):
            PPVService(jw_small, max_batch=0)

    def test_eviction_under_pressure_stays_exact(self, jw_small):
        n = jw_small.graph.num_nodes
        # Budget for only two rows: constant churn, never a wrong answer.
        service, cache = _cached_service(jw_small, 2 * n * 8, max_batch=4)
        stream = np.asarray([1, 2, 3, 4, 1, 2, 3, 4, 1])
        out = service.serve(stream)
        for i, u in enumerate(stream.tolist()):
            np.testing.assert_allclose(out[i], jw_small.query(u), atol=ATOL, rtol=0)
        assert cache.stats.evictions > 0
