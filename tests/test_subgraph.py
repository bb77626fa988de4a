"""Unit tests for virtual subgraph views (Definition 3)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import DiGraph, VirtualSubgraph


@pytest.fixture()
def view(tiny_graph):
    return VirtualSubgraph(tiny_graph, [2, 3, 4])


class TestStructure:
    def test_nodes_sorted_unique(self, tiny_graph):
        v = VirtualSubgraph(tiny_graph, [4, 2, 2, 3])
        assert v.nodes.tolist() == [2, 3, 4]
        assert v.num_nodes == 3

    def test_internal_edges(self, view):
        src, dst = view.internal_edges_local()
        edges = set(zip(view.to_global(src).tolist(), view.to_global(dst).tolist()))
        assert edges == {(2, 3), (3, 4), (4, 2)}
        assert view.num_internal_edges == 3

    def test_contains(self, view):
        assert view.contains(3) and not view.contains(0)
        assert not view.contains(-1) and not view.contains(99)

    def test_mapping_roundtrip(self, view):
        for g in (2, 3, 4):
            assert view.to_global(view.to_local(g)) == g
        arr = np.array([4, 2])
        np.testing.assert_array_equal(view.to_global(view.to_local(arr)), arr)

    def test_mapping_rejects_outsiders(self, view):
        with pytest.raises(GraphError):
            view.to_local(0)
        with pytest.raises(GraphError):
            view.to_local(np.array([2, 0]))

    def test_out_of_range_nodes_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            VirtualSubgraph(tiny_graph, [0, 7])


class TestDegreesAndMass:
    def test_original_out_degrees_preserved(self, view, tiny_graph):
        # Node 2 has out-degree 2 in G (to 0 and 3) but only one internal edge.
        np.testing.assert_array_equal(
            view.local_out_degrees(), tiny_graph.out_degrees[[2, 3, 4]]
        )
        assert view.internal_out_degrees().tolist() == [1, 1, 1]

    def test_escape_mass(self, view):
        # 2 -> 0 leaves the subset: half of node 2's mass escapes.
        esc = view.escape_mass()
        assert esc[view.to_local(2)] == pytest.approx(0.5)
        assert esc[view.to_local(3)] == 0.0

    def test_transition_substochastic(self, view):
        w = view.transition()
        sums = np.asarray(w.sum(axis=1)).ravel()
        assert sums[view.to_local(2)] == pytest.approx(0.5)
        assert sums[view.to_local(3)] == pytest.approx(1.0)

    def test_transition_T_is_transpose(self, view):
        diff = (view.transition_T() - view.transition().T).toarray()
        assert np.abs(diff).max() == 0

    def test_probabilities_use_global_degree(self, view):
        w = view.transition()
        # Edge 2->3 keeps probability 1/out_G(2) = 1/2, not 1/1.
        assert w[view.to_local(2), view.to_local(3)] == pytest.approx(0.5)


class TestEdgeCases:
    def test_empty_subset(self, tiny_graph):
        v = VirtualSubgraph(tiny_graph, [])
        assert v.num_nodes == 0 and v.num_internal_edges == 0

    def test_singleton(self, tiny_graph):
        v = VirtualSubgraph(tiny_graph, [0])
        assert v.num_internal_edges == 0
        assert v.escape_mass().tolist() == [1.0]

    def test_full_view_matches_graph(self, tiny_graph):
        v = VirtualSubgraph(tiny_graph, np.arange(5))
        assert v.num_internal_edges == tiny_graph.num_edges
        diff = (v.transition_T() - tiny_graph.transition_T()).toarray()
        assert np.abs(diff).max() == 0

    def test_self_loop_is_internal(self):
        g = DiGraph.from_edges(3, [(0, 0), (0, 1)])
        v = VirtualSubgraph(g, [0])
        assert v.num_internal_edges == 1
        assert v.escape_mass()[0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Oracles: scipy's transpose, and the dense global -> local map views used
# to keep.

PROP_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def view_cases(draw):
    """A view of a random graph whose rows hold duplicates and self loops
    in unsorted order, over a random (possibly empty) node subset."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degrees = rng.integers(0, 6, n)
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    graph = DiGraph(indptr, rng.integers(0, n, int(indptr[-1])))
    nodes = rng.choice(n, size=draw(st.integers(0, n)), replace=False)
    return VirtualSubgraph(graph, nodes), rng


class TestOracles:
    @settings(**PROP_SETTINGS)
    @given(case=view_cases())
    def test_transition_T_equals_scipy_transpose(self, case):
        view, _ = case
        got, want = view.transition_T(), view.transition().T.tocsr()
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @settings(**PROP_SETTINGS)
    @given(case=view_cases())
    def test_to_local_and_contains_equal_dense_map(self, case):
        view, rng = case
        n = view.graph.num_nodes
        dense = np.full(n, -1, dtype=np.int64)
        dense[view.nodes] = np.arange(view.num_nodes)
        for g in range(-2, n + 2):
            inside = 0 <= g < n and dense[g] >= 0
            assert view.contains(g) == inside
            if inside:
                assert view.to_local(g) == dense[g]
                assert view.to_local(np.int64(g)) == dense[g]
            else:
                with pytest.raises(GraphError):
                    view.to_local(g)
        probe = rng.integers(-2, n + 2, rng.integers(0, 8))
        if np.all((probe >= 0) & (probe < n)) and np.all(dense[probe.clip(0, n - 1)] >= 0):
            got = view.to_local(probe)
            np.testing.assert_array_equal(got, dense[probe])
            assert got.dtype == np.int64
        else:
            with pytest.raises(GraphError):
                view.to_local(probe)
            with pytest.raises(GraphError):
                view.to_local(probe.tolist())
