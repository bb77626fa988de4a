"""Hierarchical graph partitioning with per-level hub sets (Section 4.2).

Level 0 is the whole graph.  Each internal subgraph is split into ``fanout``
balanced parts; a minimum (or approximate) vertex cover of the cut edges
becomes the subgraph's hub set ``H(G)``; hubs and their edges are removed
from all deeper levels.  Recursion stops at ``max_levels`` (by default
``max(1, ⌈log₂ n⌉ − 4)``, where the paper fixes a count per dataset) or,
earlier, at a subgraph with no internal edges left or that cannot be split.

The resulting tree drives HGPA: partial vectors of hubs are computed inside
the subgraph whose hub set they belong to, skeleton columns per hub likewise,
and leaf subgraphs store full local PPVs of their (non-hub) members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.graph.subgraph import VirtualSubgraph
from repro.partition.kway import partition_kway_local, ugraph_of_subgraph
from repro.partition.vertex_cover import cover_cut_edges

__all__ = ["LEAF_NODES", "SubgraphNode", "PartitionHierarchy", "build_hierarchy"]

LEAF_NODES = 16  # default depth: bisect ⌈log₂(n / LEAF_NODES)⌉ times, to leaves this small


@dataclass
class SubgraphNode:
    """One subgraph ``G_m^i`` of the hierarchy.

    ``nodes`` are the *global* ids still present at this level (hubs of
    shallower levels already removed).  ``hubs`` is this subgraph's own hub
    set ``H(G_m^i)`` — a subset of ``nodes`` — empty for leaves.
    """

    node_id: int
    level: int
    nodes: np.ndarray
    parent: int | None = None
    hubs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    children: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)


class PartitionHierarchy:
    """The tree of subgraphs plus per-node lookup tables.

    Attributes
    ----------
    graph:
        The partitioned digraph.
    subgraphs:
        All :class:`SubgraphNode` objects, indexed by ``node_id``; entry 0 is
        the root (the whole graph).
    hub_level:
        Per global node: the level at which it was chosen as a hub, or ``-1``
        if it survives to a leaf.
    deepest_subgraph:
        Per global node: id of the deepest subgraph containing it — the leaf
        for non-hubs, the internal subgraph whose hub set holds it for hubs.
    """

    def __init__(self, graph: DiGraph, subgraphs: list[SubgraphNode], fanout: int) -> None:
        self.graph = graph
        self.subgraphs = subgraphs
        self.fanout = fanout
        n = graph.num_nodes
        self.hub_level = np.full(n, -1, dtype=np.int64)
        self.deepest_subgraph = np.full(n, -1, dtype=np.int64)
        for sg in subgraphs:
            if sg.hubs.size:
                self.hub_level[sg.hubs] = sg.level
                self.deepest_subgraph[sg.hubs] = sg.node_id
            if sg.is_leaf:
                self.deepest_subgraph[sg.nodes] = sg.node_id
        self._views: dict[int, VirtualSubgraph] = {}

    # ------------------------------------------------------------------
    @property
    def root(self) -> SubgraphNode:
        return self.subgraphs[0]

    @property
    def depth(self) -> int:
        """Number of hub-bearing levels (leaves live at level ``depth``)."""
        return max((sg.level for sg in self.subgraphs), default=0)

    def internal_subgraphs(self) -> list[SubgraphNode]:
        """Subgraphs that were split (i.e. own a hub set or children)."""
        return [sg for sg in self.subgraphs if not sg.is_leaf]

    def leaves(self) -> list[SubgraphNode]:
        """Subgraphs that were not split further."""
        return [sg for sg in self.subgraphs if sg.is_leaf]

    def hub_nodes(self) -> np.ndarray:
        """All hub nodes across all levels."""
        return np.nonzero(self.hub_level >= 0)[0]

    def non_hub_nodes(self) -> np.ndarray:
        """Nodes that reach a leaf subgraph."""
        return np.nonzero(self.hub_level < 0)[0]

    def hub_counts_per_level(self) -> list[int]:
        """Hub-node count per level — the paper's Tables 2–5."""
        counts = [0] * max(1, self.depth)
        for sg in self.subgraphs:
            if sg.hubs.size:
                counts[sg.level] += int(sg.hubs.size)
        return counts

    def is_hub(self, u: int) -> bool:
        """Whether global node ``u`` was selected as a hub at any level."""
        return bool(self.hub_level[u] >= 0)

    def chain(self, u: int) -> list[SubgraphNode]:
        """Subgraphs containing ``u`` from the root down (Eq. 6's ``G_m^{(u)}``)."""
        sid = int(self.deepest_subgraph[u])
        if sid < 0:
            raise PartitionError(f"node {u} missing from hierarchy tables")
        path: list[SubgraphNode] = []
        cur: int | None = sid
        while cur is not None:
            sg = self.subgraphs[cur]
            path.append(sg)
            cur = sg.parent
        path.reverse()
        return path

    def view(self, node_id: int) -> VirtualSubgraph:
        """Cached :class:`VirtualSubgraph` of subgraph ``node_id``."""
        if node_id not in self._views:
            self._views[node_id] = VirtualSubgraph(
                self.graph, self.subgraphs[node_id].nodes
            )
        return self._views[node_id]

    def validate(self) -> None:
        """Structural invariants (used heavily by the test-suite)."""
        n = self.graph.num_nodes
        if self.root.num_nodes != n:
            raise PartitionError("root must contain every node")
        for sg in self.subgraphs:
            member = set(sg.nodes.tolist())
            if sg.hubs.size and not set(sg.hubs.tolist()) <= member:
                raise PartitionError(f"subgraph {sg.node_id}: hubs not members")
            child_nodes: list[int] = []
            for cid in sg.children:
                child = self.subgraphs[cid]
                if child.parent != sg.node_id or child.level != sg.level + 1:
                    raise PartitionError("broken parent/level links")
                child_nodes.extend(child.nodes.tolist())
            if sg.children:
                expect = member - set(sg.hubs.tolist())
                if set(child_nodes) != expect or len(child_nodes) != len(expect):
                    raise PartitionError(
                        f"subgraph {sg.node_id}: children must partition nodes minus hubs"
                    )
        if np.any(self.deepest_subgraph < 0):
            raise PartitionError("some nodes not reachable in hierarchy")


def build_hierarchy(
    graph: DiGraph,
    *,
    fanout: int = 2,
    max_levels: int | None = None,
    balance: float = 0.1,
    seed: int = 0,
    cover_method: str = "auto",
) -> PartitionHierarchy:
    """Recursively partition ``graph`` into a hub-separated hierarchy.

    Parameters
    ----------
    fanout:
        Parts per split (the paper defaults to 2-way; Fig. 17 sweeps
        2/4/8/16/64).
    max_levels:
        Stop after this many levels; ``None`` means ``max(1, ⌈log₂ n⌉ − 4)``
        (see ``LEAF_NODES``).  ``graph.num_nodes`` never binds: leaves end
        edge-free or unsplittable, as in the paper.
    balance, seed:
        Forwarded to the multilevel partitioner.
    cover_method:
        Hub selection: ``"auto"`` (exact Kőnig for 2-way cuts, degree-greedy
        otherwise), ``"exact"``, ``"greedy"`` or ``"approx2"``.
    """
    if fanout < 2:
        raise PartitionError(f"fanout must be >= 2, got {fanout}")
    if max_levels is None:  # ⌈log₂ ⌈n / LEAF_NODES⌉⌉ = ⌈log₂(n / LEAF_NODES)⌉
        max_levels = max(1, (-(-graph.num_nodes // LEAF_NODES) - 1).bit_length())
    all_nodes = np.arange(graph.num_nodes, dtype=np.int64)
    root = SubgraphNode(node_id=0, level=0, nodes=all_nodes)
    subgraphs = [root]
    stack = [0]
    while stack:
        sid = stack.pop()
        sg = subgraphs[sid]
        if sg.level >= max_levels or sg.num_nodes < 2:
            continue
        view = VirtualSubgraph(graph, sg.nodes)
        if view.num_internal_edges == 0:
            continue
        k = min(fanout, sg.num_nodes)
        labels = partition_kway_local(
            ugraph_of_subgraph(view), k, balance=balance, seed=seed + 31 * sid
        )
        lsrc, ldst = view.internal_edges_local()
        no_loops = lsrc != ldst
        hubs_local = cover_cut_edges(
            lsrc[no_loops], ldst[no_loops], labels, method=cover_method, seed=seed + sid
        )
        hubs = np.asarray(view.to_global(hubs_local), dtype=np.int64)
        is_hub = np.zeros(sg.num_nodes, dtype=bool)
        is_hub[hubs_local] = True
        children_nodes = [
            sg.nodes[(labels == part) & ~is_hub] for part in range(k)
        ]
        children_nodes = [c for c in children_nodes if c.size > 0]
        if len(children_nodes) == 1 and children_nodes[0].size == sg.num_nodes:
            continue  # no progress; freeze as a leaf
        if not children_nodes:
            # Cover swallowed every node (tiny dense subgraph).  Splitting
            # buys nothing, so keep the subgraph whole as a leaf — its local
            # PPVs will be stored directly, which is always correct.
            continue
        sg.hubs = hubs
        for part_nodes in children_nodes:
            child = SubgraphNode(
                node_id=len(subgraphs),
                level=sg.level + 1,
                nodes=part_nodes,
                parent=sid,
            )
            subgraphs.append(child)
            sg.children.append(child.node_id)
            stack.append(child.node_id)
    return PartitionHierarchy(graph, subgraphs, fanout)
