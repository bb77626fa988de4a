"""Unit and property tests for the partition hierarchy (Section 4.2)."""

import math

import numpy as np
import pytest
from test_golden_build import hierarchy_digest, web_graph

from repro.errors import PartitionError
from repro.graph import (
    DiGraph,
    VirtualSubgraph,
    hierarchical_community_digraph,
    ring_digraph,
)
from repro.partition import build_hierarchy, flat_partition


def community_300() -> DiGraph:
    g = hierarchical_community_digraph(300, avg_out_degree=3, seed=8)
    return g.with_dangling_policy("self_loop")


def rule_levels(n: int) -> int:
    return max(1, math.ceil(math.log2(n)) - 4)


@pytest.fixture(scope="module")
def hierarchy():
    # The paper's tree: a cap of n levels never binds, so the recursion
    # runs until every leaf is edge-free.
    g = community_300()
    return build_hierarchy(g, fanout=2, max_levels=g.num_nodes, seed=0)


class TestStructure:
    def test_validate(self, hierarchy):
        hierarchy.validate()

    def test_root_holds_everything(self, hierarchy):
        assert hierarchy.root.num_nodes == hierarchy.graph.num_nodes
        assert hierarchy.root.level == 0

    def test_node_classification_is_total(self, hierarchy):
        hubs = set(hierarchy.hub_nodes().tolist())
        non = set(hierarchy.non_hub_nodes().tolist())
        assert hubs.isdisjoint(non)
        assert len(hubs) + len(non) == hierarchy.graph.num_nodes

    def test_hub_counts_match(self, hierarchy):
        assert sum(hierarchy.hub_counts_per_level()) == hierarchy.hub_nodes().size

    def test_leaves_have_no_internal_edges(self, hierarchy):
        """The paper's stopping rule: recurse until leaves are edge-free
        (or unsplittable)."""
        for leaf in hierarchy.leaves():
            view = VirtualSubgraph(hierarchy.graph, leaf.nodes)
            internal = view.internal_edges_local()
            non_loop = (internal[0] != internal[1]).sum()
            # Self loops (from the dangling policy) may remain.
            assert non_loop == 0 or leaf.num_nodes <= 2

    def test_chain_walks_root_to_deepest(self, hierarchy):
        for u in [0, 57, 123, 299]:
            chain = hierarchy.chain(u)
            assert chain[0] is hierarchy.root
            for parent, child in zip(chain, chain[1:]):
                assert child.parent == parent.node_id
            deepest = chain[-1]
            if hierarchy.is_hub(u):
                assert u in deepest.hubs
            else:
                assert deepest.is_leaf

    def test_view_cached(self, hierarchy):
        v1 = hierarchy.view(0)
        assert hierarchy.view(0) is v1


class TestSeparationInvariant:
    def test_hubs_separate_children(self, hierarchy):
        """Removing H(G) must disconnect G's children — every internal
        subgraph, every level (the exactness precondition)."""
        src, dst = hierarchy.graph.edge_arrays()
        for sg in hierarchy.internal_subgraphs():
            owner = np.full(hierarchy.graph.num_nodes, -1, dtype=np.int64)
            for cid in sg.children:
                owner[hierarchy.subgraphs[cid].nodes] = cid
            s_own, d_own = owner[src], owner[dst]
            crossing = (s_own >= 0) & (d_own >= 0) & (s_own != d_own)
            assert not crossing.any(), f"subgraph {sg.node_id} leaks edges"


class TestParameters:
    def test_max_levels_cap(self, hierarchy):
        g = hierarchy.graph
        capped = build_hierarchy(g, max_levels=2, seed=0)
        assert capped.depth <= 2
        capped.validate()

    def test_explicit_max_levels_overrides_rule(self, hierarchy):
        g = hierarchy.graph
        rule = rule_levels(g.num_nodes)
        assert hierarchy.depth > rule + 1
        deeper = build_hierarchy(g, max_levels=rule + 1, seed=0)
        deeper.validate()
        assert deeper.depth == rule + 1
        assert build_hierarchy(g, max_levels=1, seed=0).depth == 1

    def test_num_nodes_cap_is_unbounded(self, hierarchy):
        g = hierarchy.graph
        no_cap = build_hierarchy(g, fanout=2, max_levels=2**62, seed=0)
        assert hierarchy_digest(no_cap) == hierarchy_digest(hierarchy)

    def test_fanout_four(self):
        g = hierarchical_community_digraph(300, avg_out_degree=3, seed=8)
        h = build_hierarchy(g, fanout=4, max_levels=2, seed=0)
        h.validate()
        assert len(h.root.children) <= 4
        assert h.depth <= 2

    def test_bad_fanout(self, small_graph):
        with pytest.raises(PartitionError):
            build_hierarchy(small_graph, fanout=1)

    def test_deterministic(self):
        g = hierarchical_community_digraph(200, avg_out_degree=3, seed=1)
        a = build_hierarchy(g, seed=3)
        b = build_hierarchy(g, seed=3)
        assert a.hub_counts_per_level() == b.hub_counts_per_level()
        np.testing.assert_array_equal(a.hub_level, b.hub_level)

    def test_ring(self):
        # Edge-free leaves on a 16-cycle need ≥ 8 hubs (alternate nodes);
        # the recursive construction should land near that optimum.
        h = build_hierarchy(ring_digraph(16), max_levels=16, seed=0)
        h.validate()
        assert h.hub_nodes().size <= 10

    def test_single_node(self):
        h = build_hierarchy(DiGraph.from_edges(1, []), seed=0)
        assert h.depth == 0 and h.root.is_leaf

    def test_edgeless_graph(self):
        h = build_hierarchy(DiGraph.from_edges(5, []), seed=0)
        assert h.root.is_leaf
        assert h.hub_nodes().size == 0


class TestDefaultDepth:
    """``max_levels=None`` caps the tree at ``max(1, ⌈log₂ n⌉ − 4)`` levels."""

    @pytest.mark.parametrize("make", [
        web_graph,
        community_300,
        lambda: hierarchical_community_digraph(200, avg_out_degree=3, seed=1),
        lambda: ring_digraph(16),
        lambda: DiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    ], ids=["web", "community_300", "community_200", "ring_16", "path_5"])
    def test_depth_at_most_rule(self, make):
        g = make()
        h = build_hierarchy(g, seed=0)
        h.validate()
        assert h.depth <= rule_levels(g.num_nodes)

    def test_rule_binds_on_deep_trees(self, hierarchy):
        g = hierarchy.graph
        assert build_hierarchy(g, seed=0).depth == rule_levels(g.num_nodes) == 5


class TestFlatPartition:
    def test_validate(self, medium_graph):
        fp = flat_partition(medium_graph, 4, seed=0)
        fp.validate()
        assert fp.num_parts == 4

    def test_hub_membership_queries(self, medium_graph):
        fp = flat_partition(medium_graph, 3, seed=1)
        for h in fp.hubs[:5].tolist():
            assert fp.is_hub(h)
            with pytest.raises(PartitionError):
                fp.part_of(h)
        non_hub = fp.part_nodes[0][0]
        assert not fp.is_hub(int(non_hub))
        assert fp.part_of(int(non_hub)) == 0

    def test_single_part_no_hubs(self, small_graph):
        fp = flat_partition(small_graph, 1)
        assert fp.num_hubs == 0
        assert fp.part_nodes[0].size == small_graph.num_nodes

    def test_invalid_parts(self, small_graph):
        with pytest.raises(PartitionError):
            flat_partition(small_graph, 0)
