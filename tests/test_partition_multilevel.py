"""Unit tests for the multilevel partitioner (ugraph, matching, FM, bisect,
k-way)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph import DiGraph, hierarchical_community_digraph, ring_digraph
from repro.partition import (
    coarsen,
    fm_refine,
    heavy_edge_matching,
    multilevel_bisect,
    partition_kway,
    partition_kway_local,
    region_grow_bisect,
    ugraph_from_coo,
    ugraph_from_digraph,
)
from repro.partition.refine import partition_weights
from repro.partition.ugraph import UGraph

PROP_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture()
def dumbbell():
    """Two 4-cliques joined by a single edge — the canonical bisection."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(4):
                if i != j:
                    edges.append((base + i, base + j))
    edges.append((0, 4))
    return ugraph_from_digraph(DiGraph.from_edges(8, edges))


class TestUGraph:
    def test_symmetrisation(self):
        ug = ugraph_from_digraph(DiGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)]))
        ug.validate()
        assert ug.num_nodes == 3
        # {0,1} weight 2 (both directions), {1,2} weight 1.
        i = np.searchsorted(ug.neighbors(0), 1)
        assert ug.edge_weights_of(0)[i] == 2.0

    def test_self_loops_dropped(self):
        ug = ugraph_from_coo(2, np.array([0, 0]), np.array([0, 1]))
        assert ug.num_edges == 1

    def test_cut_weight_counts_directed_edges(self):
        ug = ugraph_from_digraph(DiGraph.from_edges(4, [(0, 2), (2, 0), (1, 3)]))
        labels = np.array([0, 0, 1, 1])
        assert ug.cut_weight(labels) == 3.0
        assert ug.cut_weight(np.zeros(4, dtype=np.int64)) == 0.0

    def test_total_vweight(self, dumbbell):
        assert dumbbell.total_vweight == 8


class TestMatchingAndCoarsening:
    def test_matching_is_symmetric_and_total(self, dumbbell):
        rng = np.random.default_rng(0)
        match = heavy_edge_matching(dumbbell, rng)
        for u, v in enumerate(match.tolist()):
            assert v >= 0
            assert match[v] == u  # involution

    def test_matched_pairs_are_neighbors(self, dumbbell):
        rng = np.random.default_rng(1)
        match = heavy_edge_matching(dumbbell, rng)
        for u, v in enumerate(match.tolist()):
            if u != v:
                assert v in dumbbell.neighbors(u)

    def test_coarsen_preserves_vertex_weight(self, dumbbell):
        rng = np.random.default_rng(2)
        level = coarsen(dumbbell, heavy_edge_matching(dumbbell, rng))
        assert level.ugraph.total_vweight == dumbbell.total_vweight
        assert level.ugraph.num_nodes < dumbbell.num_nodes
        level.ugraph.validate()

    def test_coarsen_preserves_cut(self, dumbbell):
        """Any coarse partition's cut equals its fine projection's cut."""
        rng = np.random.default_rng(3)
        level = coarsen(dumbbell, heavy_edge_matching(dumbbell, rng))
        coarse_labels = np.arange(level.ugraph.num_nodes) % 2
        fine_labels = coarse_labels[level.coarse_of]
        assert level.ugraph.cut_weight(coarse_labels) == pytest.approx(
            dumbbell.cut_weight(fine_labels)
        )

    def test_edgeless_graph_matches_selves(self):
        ug = ugraph_from_coo(4, np.array([], dtype=int), np.array([], dtype=int))
        match = heavy_edge_matching(ug, np.random.default_rng(0))
        assert (match == np.arange(4)).all()


class TestRefine:
    def test_fm_finds_dumbbell_cut(self, dumbbell):
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)  # bad start
        refined = fm_refine(dumbbell, labels)
        assert dumbbell.cut_weight(refined) == 1.0

    def test_fm_respects_balance(self, dumbbell):
        refined = fm_refine(dumbbell, np.array([0, 1] * 4, dtype=np.int64), balance=0.05)
        w0, w1 = partition_weights(dumbbell, refined)
        assert abs(w0 - w1) <= 2

    def test_fm_never_worsens(self):
        g = hierarchical_community_digraph(300, avg_out_degree=4, seed=2)
        ug = ugraph_from_digraph(g)
        labels = (np.arange(300) % 2).astype(np.int64)
        before = ug.cut_weight(labels.copy())
        after = ug.cut_weight(fm_refine(ug, labels))
        assert after <= before

    def test_trivial_graphs(self):
        ug = ugraph_from_coo(1, np.array([], dtype=int), np.array([], dtype=int))
        assert fm_refine(ug, np.zeros(1, dtype=np.int64)).tolist() == [0]


class TestBisect:
    def test_region_grow_covers_half(self, dumbbell):
        labels = region_grow_bisect(dumbbell, rng=np.random.default_rng(0))
        assert 3 <= int((labels == 0).sum()) <= 5

    def test_multilevel_dumbbell(self, dumbbell):
        labels = multilevel_bisect(dumbbell, seed=0)
        assert dumbbell.cut_weight(labels) == 1.0
        assert int((labels == 0).sum()) == 4

    def test_multilevel_balance_on_community_graph(self):
        g = hierarchical_community_digraph(500, avg_out_degree=4, seed=9)
        ug = ugraph_from_digraph(g)
        labels = multilevel_bisect(ug, seed=1)
        frac = (labels == 0).sum() / 500
        assert 0.4 <= frac <= 0.6

    def test_target_fraction(self):
        g = hierarchical_community_digraph(400, avg_out_degree=4, seed=9)
        ug = ugraph_from_digraph(g)
        labels = multilevel_bisect(ug, target_frac=0.25, seed=1)
        frac = (labels == 0).sum() / 400
        assert 0.15 <= frac <= 0.35

    def test_deterministic(self, dumbbell):
        a = multilevel_bisect(dumbbell, seed=5)
        b = multilevel_bisect(dumbbell, seed=5)
        np.testing.assert_array_equal(a, b)


class TestKway:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_all_parts_populated(self, k):
        g = hierarchical_community_digraph(400, avg_out_degree=4, seed=7)
        labels = partition_kway(g, k, seed=0)
        sizes = np.bincount(labels, minlength=k)
        assert (sizes > 0).all()
        assert sizes.max() <= 2.0 * 400 / k  # rough balance

    def test_k1_trivial(self, small_graph):
        assert (partition_kway(small_graph, 1) == 0).all()

    def test_k_invalid(self, small_graph):
        with pytest.raises(PartitionError):
            partition_kway(small_graph, 0)

    def test_ring_bisection_cut(self):
        labels = partition_kway(ring_digraph(16), 2, seed=0)
        ug = ugraph_from_digraph(ring_digraph(16))
        assert ug.cut_weight(labels) == 2.0  # a ring bisects with 2 edges

    def test_more_nodes_than_parts(self):
        ug = ugraph_from_coo(3, np.array([0, 1]), np.array([1, 2]))
        labels = partition_kway_local(ug, 3)
        assert sorted(labels.tolist()) == [0, 1, 2]


# ---------------------------------------------------------------------------
# Oracles: the scipy / loop bodies the numpy rewrites replaced.  The
# partition labels depend on these arrays, so "equal" means array-equal.


def scipy_ugraph(num_nodes, rows, cols, weights=None, vweights=None):
    """``ugraph_from_coo`` as it was: scipy ``coo + coo.T``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if weights is None:
        weights = np.ones(rows.size, dtype=np.float64)
    keep = rows != cols
    rows, cols, weights = rows[keep], cols[keep], np.asarray(weights, dtype=np.float64)[keep]
    mat = sp.coo_matrix((weights, (rows, cols)), shape=(num_nodes, num_nodes))
    sym = (mat + mat.T).tocsr()
    sym.sum_duplicates()
    if vweights is None:
        vweights = np.ones(num_nodes, dtype=np.int64)
    return UGraph(
        indptr=sym.indptr.astype(np.int64),
        indices=sym.indices.astype(np.int64),
        eweights=sym.data.astype(np.float64),
        vweights=np.asarray(vweights, dtype=np.int64),
    )


def loop_coarse_of(match):
    """``coarsen``'s numbering as it was: a scan handing out ids in order."""
    coarse_of = np.full(match.size, -1, dtype=np.int64)
    next_id = 0
    for u in range(match.size):
        if coarse_of[u] >= 0:
            continue
        coarse_of[u] = coarse_of[match[u]] = next_id
        next_id += 1
    return coarse_of


@st.composite
def coo_cases(draw):
    """Random directed COO: duplicates, self loops, integer or half weights."""
    n = draw(st.integers(0, 14))
    m = 0 if n == 0 else draw(st.integers(0, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = rng.integers(0, max(n, 1), m), rng.integers(0, max(n, 1), m)
    kind = draw(st.sampled_from(["none", "integer", "half"]))
    weights = None if kind == "none" else rng.integers(1, 9, m).astype(np.float64)
    if kind == "half":
        weights /= 2.0
    return n, rows, cols, weights


def random_matching(n, rng):
    """A random involution: some disjoint pairs, everyone else single."""
    match = np.arange(n, dtype=np.int64)
    perm = rng.permutation(n)
    pairs = rng.integers(0, n // 2 + 1)
    a, b = perm[:pairs], perm[pairs : 2 * pairs]
    match[a], match[b] = b, a
    return match


class TestOracles:
    @settings(**PROP_SETTINGS)
    @given(case=coo_cases())
    def test_ugraph_from_coo_equals_scipy(self, case):
        n, rows, cols, weights = case
        vweights = np.arange(n) + 1
        got = ugraph_from_coo(n, rows, cols, weights, vweights=vweights)
        want = scipy_ugraph(n, rows, cols, weights, vweights=vweights)
        for name in ("indptr", "indices", "eweights", "vweights"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("n", [0, 1])
    def test_ugraph_from_coo_trivial_sizes(self, n):
        empty = np.empty(0, dtype=np.int64)
        loops = np.zeros(3 * n, dtype=np.int64)
        for rows, cols in ((empty, empty), (loops, loops)):
            got, want = ugraph_from_coo(n, rows, cols), scipy_ugraph(n, rows, cols)
            for name in ("indptr", "indices", "eweights", "vweights"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert got.indptr.tolist() == [0] * (n + 1)

    @settings(**PROP_SETTINGS)
    @given(case=coo_cases(), seed=st.integers(0, 2**32 - 1))
    def test_coarsen_numbering_equals_loop(self, case, seed):
        ug = ugraph_from_coo(*case)
        rng = np.random.default_rng(seed)
        for match in (random_matching(ug.num_nodes, rng), heavy_edge_matching(ug, rng)):
            level = coarsen(ug, match)
            want = loop_coarse_of(match)
            np.testing.assert_array_equal(level.coarse_of, want)
            assert level.ugraph.num_nodes == (want.max() + 1 if want.size else 0)
            assert level.ugraph.total_vweight == ug.total_vweight
