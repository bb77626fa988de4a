"""Batched query engine: ``query_many`` vs per-node ``query``.

The contract is exactness: for every index family the batched path must
reproduce the per-query path to 1e-12 (the flat and distributed engines
are bit-identical; HGPA's level grouping only reorders float additions),
with identical work counters and per-machine metrics.
"""

import numpy as np
import pytest

from repro.approx import build_fastppv_index
from repro.core import build_hgpa_index
from repro.core.flat_index import DEFAULT_BATCH, run_in_batches
from repro.distributed import DistributedGPA, DistributedHGPA
from repro.errors import QueryError

BATCH_ATOL = 1e-12


def _mixed_queries(index_hubs, n, count=12, seed=17):
    """Random non-hub nodes plus a few hubs (and one duplicate)."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=count, replace=False).tolist()
    hubs = np.asarray(index_hubs)[:3].tolist()
    return np.asarray(picks + hubs + picks[:1], dtype=np.int64)


@pytest.fixture(scope="module")
def fast_small(request):
    graph = request.getfixturevalue("small_graph")
    return build_fastppv_index(graph, 25, tol=1e-6)


class TestFlatBatch:
    @pytest.mark.parametrize("family", ["jw_small", "gpa_small"])
    def test_query_many_matches_query(self, request, family):
        index = request.getfixturevalue(family)
        queries = _mixed_queries(index.hubs, index.graph.num_nodes)
        out, stats = index.query_many(queries)
        assert out.shape == (queries.size, index.graph.num_nodes)
        assert len(stats) == queries.size
        for k, u in enumerate(queries.tolist()):
            ref, ref_stats = index.query_detailed(u)
            np.testing.assert_allclose(out[k], ref, atol=BATCH_ATOL, rtol=0)
            assert stats[k].entries_processed == ref_stats.entries_processed
            assert stats[k].vectors_used == ref_stats.vectors_used
            assert stats[k].skeleton_lookups == ref_stats.skeleton_lookups

    @pytest.mark.parametrize("family", ["jw_small", "gpa_small"])
    def test_fast_path_matches_reference_loop(self, request, family):
        """The vectorised path equals the per-hub Eq. 4 loop, stats included."""
        index = request.getfixturevalue(family)
        for u in (0, 57, 199, int(index.hubs[0])):
            ref, ref_stats = index.query_reference(u)
            fast, fast_stats = index.query_detailed(u)
            np.testing.assert_allclose(fast, ref, atol=BATCH_ATOL, rtol=0)
            assert fast_stats.entries_processed == ref_stats.entries_processed
            assert fast_stats.vectors_used == ref_stats.vectors_used
            assert fast_stats.skeleton_lookups == ref_stats.skeleton_lookups

    def test_small_internal_batches(self, jw_small):
        """A request over ``DEFAULT_BATCH`` rows runs in internal chunks;
        its rows are bitwise those of the same nodes asked in pieces."""
        rng = np.random.default_rng(3)
        queries = rng.integers(0, jw_small.graph.num_nodes, DEFAULT_BATCH + 45)
        whole, stats = jw_small.query_many(queries)
        assert len(stats) == queries.size
        for lo, hi in ((0, 3), (3, 200), (200, queries.size)):
            piece, _ = jw_small.query_many(queries[lo:hi])
            np.testing.assert_array_equal(whole[lo:hi], piece)

    def test_empty_batch(self, jw_small):
        out, stats = jw_small.query_many(np.empty(0, dtype=np.int64))
        assert out.shape == (0, jw_small.graph.num_nodes)
        assert stats == []

    def test_run_in_batches_empty_keeps_width(self, jw_small):
        """Regression: an empty batch must come back (0, n), not (0, 0) —
        callers that vstack results or index columns get silent shape
        mismatches otherwise."""
        n = jw_small.graph.num_nodes
        out, meta = run_in_batches(jw_small.query_many, np.empty(0, dtype=np.int64))
        assert out.shape == (0, n)
        assert meta == []
        stacked = np.vstack([out, np.zeros((2, n))])  # concatenation works
        assert stacked.shape == (2, n)

    def test_out_of_range(self, jw_small):
        with pytest.raises(QueryError):
            jw_small.query_many([0, 10_000])
        with pytest.raises(QueryError):
            jw_small.query_many([-1])

    def test_non_integer_ids_rejected(self, jw_small):
        """Floats must not silently truncate to the wrong node's PPV."""
        with pytest.raises(QueryError, match="integer node ids"):
            jw_small.query_many([3.7])
        with pytest.raises(QueryError, match="integer node ids"):
            jw_small.query_many(np.asarray(["3"]))


class TestHGPABatch:
    def test_query_many_matches_query(self, hgpa_small):
        hubs = hgpa_small.hierarchy.hub_nodes()
        queries = _mixed_queries(hubs, hgpa_small.graph.num_nodes)
        out, stats = hgpa_small.query_many(queries)
        for k, u in enumerate(queries.tolist()):
            ref, ref_stats = hgpa_small.query_detailed(u)
            np.testing.assert_allclose(out[k], ref, atol=BATCH_ATOL, rtol=0)
            assert stats[k].entries_processed == ref_stats.entries_processed
            assert stats[k].vectors_used == ref_stats.vectors_used
            assert stats[k].skeleton_lookups == ref_stats.skeleton_lookups

    def test_full_sweep_batch(self, small_graph, hgpa_small):
        """Every node of the graph in one batch, exact against query()."""
        nodes = np.arange(small_graph.num_nodes)
        out, _ = hgpa_small.query_many(nodes)
        for u in range(0, small_graph.num_nodes, 23):
            np.testing.assert_allclose(
                out[u], hgpa_small.query(u), atol=BATCH_ATOL, rtol=0
            )

    def test_single_level_hierarchy(self, small_graph):
        index = build_hgpa_index(small_graph, tol=1e-8, max_levels=1, seed=1)
        queries = np.asarray([0, 5, 100, 199])
        out, _ = index.query_many(queries)
        for k, u in enumerate(queries.tolist()):
            np.testing.assert_allclose(
                out[k], index.query(u), atol=BATCH_ATOL, rtol=0
            )

    def test_out_of_range(self, hgpa_small):
        with pytest.raises(QueryError):
            hgpa_small.query_many([3, 10_000])

    def test_empty_batch(self, hgpa_small):
        out, stats = hgpa_small.query_many(np.empty(0, dtype=np.int64))
        assert out.shape == (0, hgpa_small.graph.num_nodes)
        assert stats == []


class TestFastPPVBatch:
    def test_query_many_matches_query(self, fast_small):
        queries = _mixed_queries(fast_small.hubs, fast_small.graph.num_nodes)
        out, infos = fast_small.query_many(queries)
        for k, u in enumerate(queries.tolist()):
            ref, info = fast_small.query_detailed(u)
            np.testing.assert_allclose(out[k], ref, atol=BATCH_ATOL, rtol=0)
            assert infos[k].expansions == info.expansions
            assert infos[k].residual_mass == pytest.approx(info.residual_mass)

    def test_empty_batch(self, fast_small):
        out, infos = fast_small.query_many(np.empty(0, dtype=np.int64))
        assert out.shape == (0, fast_small.graph.num_nodes)
        assert infos == []


class TestDistributedBatch:
    @pytest.fixture(scope="class")
    def dist_gpa(self, request):
        return DistributedGPA(request.getfixturevalue("gpa_small"), 4)

    @pytest.fixture(scope="class")
    def dist_hgpa(self, request):
        return DistributedHGPA(request.getfixturevalue("hgpa_small"), 4)

    @pytest.mark.parametrize("runtime", ["dist_gpa", "dist_hgpa"])
    def test_query_many_matches_query(self, request, runtime):
        dep = request.getfixturevalue(runtime)
        hubs = sorted(dep._hub_owner)
        queries = _mixed_queries(hubs, dep.num_nodes)
        out, reports = dep.query_many(queries)
        assert len(reports) == queries.size
        for k, u in enumerate(queries.tolist()):
            ref, ref_report = dep.query(int(u))
            np.testing.assert_allclose(out[k], ref, atol=BATCH_ATOL, rtol=0)
            assert reports[k].per_machine_entries == ref_report.per_machine_entries
            assert reports[k].per_machine_bytes == ref_report.per_machine_bytes
            assert (
                reports[k].communication_bytes == ref_report.communication_bytes
            )

    @pytest.mark.parametrize("runtime", ["dist_gpa", "dist_hgpa"])
    def test_batch_metrics_sane(self, request, runtime):
        dep = request.getfixturevalue(runtime)
        _, reports = dep.query_many(np.asarray([3, 77]))
        for report in reports:
            assert report.runtime_seconds > 0
            assert report.wall_seconds > 0
            assert len(report.per_machine_bytes) == dep.num_machines

    @pytest.mark.parametrize("runtime", ["dist_gpa", "dist_hgpa"])
    def test_out_of_range(self, request, runtime):
        dep = request.getfixturevalue(runtime)
        with pytest.raises(QueryError):
            dep.query_many([0, 10_000])

    @pytest.mark.parametrize("runtime", ["dist_gpa", "dist_hgpa"])
    def test_empty_batch(self, request, runtime):
        dep = request.getfixturevalue(runtime)
        out, reports = dep.query_many(np.empty(0, dtype=np.int64))
        assert out.shape == (0, dep.num_nodes)
        assert reports == []

    def test_matches_centralized(self, dist_hgpa, hgpa_small, reference_ppv):
        queries = np.asarray([0, 42, 150])
        out, _ = dist_hgpa.query_many(queries)
        for k, u in enumerate(queries.tolist()):
            assert np.abs(out[k] - reference_ppv(u)).max() < 5e-8
