"""Incremental maintenance of HGPA indexes under edge updates.

The paper pre-computes once; real graphs change.  This module updates an
existing index for a single edge insertion or deletion by rebuilding only
the vectors whose defining subgraph actually changed:

* An edge ``u → v`` only alters walks that *leave* ``u``, so the affected
  subgraphs are exactly those containing ``u`` — the chain from the root to
  ``u``'s leaf (or hub level).  Sibling subgraphs keep their vectors.
* Insertion can violate the separator invariant: if ``u`` and ``v`` sit in
  different children of some subgraph ``S`` and neither is a hub of ``S``,
  tours could now bypass ``H(S)``.  The repair promotes ``u`` into ``H(S)``
  at the shallowest violated level (removing it from all deeper levels),
  after which no deeper violation from this edge is possible — a hub's
  out-edges never cross inside a child.
* Deletion never breaks separation (it can only leave hubs that are no
  longer necessary, which is harmless), so it is promotion-free.

The returned index is a new object sharing all untouched vectors with the
old one; the old index stays valid for the old graph.
"""

from __future__ import annotations

from typing import Any

from dataclasses import dataclass

import numpy as np

from repro.core.hgpa import HGPAIndex, build_subgraph_vectors
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.partition.hierarchy import PartitionHierarchy, SubgraphNode

__all__ = ["UpdateStats", "insert_edge", "delete_edge"]


@dataclass(frozen=True)
class UpdateStats:
    """What one incremental update had to do.

    ``rebuilt_keys`` / ``dropped_keys`` are the store keys (``("hub", h)``,
    ``("skel", h)``, ``("leaf", u)``, ``("part", u)``) an index update
    recomputed / removed-without-replacement — the precise delta a
    deployed runtime must re-ship to the machines owning those vectors.
    ``affected_subgraphs`` lists the hierarchy subgraph ids rebuilt (empty
    for flat indexes).
    """

    changed: bool
    promoted_hub: int | None
    rebuilt_subgraphs: int
    rebuilt_vectors: int
    total_vectors: int
    rebuilt_keys: frozenset[Any] = frozenset()
    dropped_keys: frozenset[Any] = frozenset()
    affected_subgraphs: tuple[Any, ...] = ()

    @property
    def rebuild_fraction(self) -> float:
        """Share of stored vectors that had to be recomputed."""
        if self.total_vectors == 0:
            return 0.0
        return self.rebuilt_vectors / self.total_vectors


def check_endpoints(graph: DiGraph, u: int, v: int) -> None:
    """Reject edges touching node ids absent from the graph.

    Both directions are validated and the offending edge is named — an
    out-of-range endpoint is a *graph* error (the edge cannot exist in
    this graph), not a malformed query.
    """
    n = graph.num_nodes
    for name, node in (("source", u), ("target", v)):
        if not 0 <= node < n:
            raise GraphError(
                f"edge ({u}, {v}): {name} node {node} not in graph "
                f"(num_nodes={n})"
            )


def _contains(sorted_arr: np.ndarray, value: int) -> bool:
    pos = np.searchsorted(sorted_arr, value)
    return bool(pos < sorted_arr.size and sorted_arr[pos] == value)


def _remove_value(sorted_arr: np.ndarray, value: int) -> np.ndarray:
    pos = np.searchsorted(sorted_arr, value)
    if pos < sorted_arr.size and sorted_arr[pos] == value:
        return np.delete(sorted_arr, pos)
    return sorted_arr


def _insert_value(sorted_arr: np.ndarray, value: int) -> np.ndarray:
    pos = np.searchsorted(sorted_arr, value)
    if pos < sorted_arr.size and sorted_arr[pos] == value:
        return sorted_arr
    return np.insert(sorted_arr, pos, value)


def _clone_subgraphs(hierarchy: PartitionHierarchy) -> list[SubgraphNode]:
    return [
        SubgraphNode(
            node_id=sg.node_id,
            level=sg.level,
            nodes=sg.nodes.copy(),
            parent=sg.parent,
            hubs=sg.hubs.copy(),
            children=list(sg.children),
        )
        for sg in hierarchy.subgraphs
    ]


def _rebuild(
    old: HGPAIndex,
    new_graph: DiGraph,
    subgraphs: list[SubgraphNode],
    affected_ids: list[int],
    promoted: int | None,
    dropped_keys: set[tuple[Any, ...]],
) -> tuple[HGPAIndex, UpdateStats]:
    """Assemble the new index, recomputing only affected subgraphs."""
    hierarchy = PartitionHierarchy(new_graph, subgraphs, old.hierarchy.fanout)
    index = HGPAIndex(
        graph=new_graph,
        hierarchy=hierarchy,
        alpha=old.alpha,
        tol=old.tol,
        prune=old.prune,
        hub_partials=dict(old.hub_partials),
        skeleton_cols=dict(old.skeleton_cols),
        leaf_ppv=dict(old.leaf_ppv),
        build_cost=dict(old.build_cost),
    )
    # Drop every stored vector owned by an affected subgraph (old layout),
    # plus explicitly invalidated keys (e.g. the promoted node's old role).
    rebuilt_vectors = 0
    for sid in affected_ids:
        sg_old = old.hierarchy.subgraphs[sid]
        for h in sg_old.hubs.tolist():
            dropped_keys.add(("hub", h))
            dropped_keys.add(("skel", h))
        if sg_old.is_leaf:
            for node in sg_old.nodes.tolist():
                dropped_keys.add(("leaf", node))
    # Only keys that actually existed in the old stores count as dropped:
    # a promoted node's old roles are invalidated defensively (a hub
    # moving levels never had a leaf vector), and phantom keys would send
    # the distributed runtimes' targeted re-deploy after vectors no
    # machine ever owned.
    present: set[tuple[Any, ...]] = set()
    for kind, key in sorted(dropped_keys):
        store = {
            "hub": index.hub_partials,
            "skel": index.skeleton_cols,
            "leaf": index.leaf_ppv,
        }[kind]
        if store.pop(key, None) is not None:
            present.add((kind, key))
        index.build_cost.pop((kind, key), None)
    # Recompute the affected subgraphs against the new graph.
    rebuilt_keys: set[tuple[Any, ...]] = set()
    for sid in affected_ids:
        sg = subgraphs[sid]
        build_subgraph_vectors(index, sg)
        rebuilt_vectors += 2 * sg.hubs.size
        for h in sg.hubs.tolist():
            rebuilt_keys.add(("hub", h))
            rebuilt_keys.add(("skel", h))
        if sg.is_leaf and sg.num_nodes:
            rebuilt_vectors += sg.num_nodes
            for node in sg.nodes.tolist():
                rebuilt_keys.add(("leaf", node))
    total = (
        len(index.hub_partials) + len(index.skeleton_cols) + len(index.leaf_ppv)
    )
    stats = UpdateStats(
        changed=True,
        promoted_hub=promoted,
        rebuilt_subgraphs=len(affected_ids),
        rebuilt_vectors=rebuilt_vectors,
        total_vectors=total,
        rebuilt_keys=frozenset(rebuilt_keys),
        dropped_keys=frozenset(present - rebuilt_keys),
        affected_subgraphs=tuple(affected_ids),
    )
    return index, stats


def insert_edge(index: HGPAIndex, u: int, v: int) -> tuple[HGPAIndex, UpdateStats]:
    """Return a new index for ``graph + (u → v)``, rebuilt minimally."""
    graph = index.graph
    n = graph.num_nodes
    check_endpoints(graph, u, v)
    if graph.has_edge(u, v):
        return index, UpdateStats(False, None, 0, 0,
                                  len(index.hub_partials)
                                  + len(index.skeleton_cols)
                                  + len(index.leaf_ppv))
    src, dst = graph.edge_arrays()
    new_graph = DiGraph.from_arrays(
        n,
        np.concatenate([src, [u]]),
        np.concatenate([dst, [v]]),
        name=graph.name,
    )
    subgraphs = _clone_subgraphs(index.hierarchy)
    chain_ids = [sg.node_id for sg in index.hierarchy.chain(u)]
    dropped: set[tuple[Any, ...]] = set()
    promoted: int | None = None
    # Separator repair: promote u at the shallowest violated level.
    for sid in chain_ids:
        sg = subgraphs[sid]
        if sg.is_leaf or _contains(sg.hubs, u) or _contains(sg.hubs, v):
            continue
        child_of_u = child_of_v = None
        for cid in sg.children:
            child = subgraphs[cid]
            if _contains(child.nodes, u):
                child_of_u = cid
            if _contains(child.nodes, v):
                child_of_v = cid
        if child_of_u is None or child_of_v is None or child_of_u == child_of_v:
            continue
        # Violation: u -> v crosses children of sg without touching H(sg).
        promoted = u
        sg.hubs = _insert_value(sg.hubs, u)
        below = False
        for deeper_id in chain_ids:
            if deeper_id == sid:
                below = True
                continue
            if below:
                deeper = subgraphs[deeper_id]
                deeper.nodes = _remove_value(deeper.nodes, u)
                deeper.hubs = _remove_value(deeper.hubs, u)
        dropped.update({("leaf", u), ("hub", u), ("skel", u)})
        break
    affected = [sid for sid in chain_ids if subgraphs[sid].num_nodes > 0]
    return _rebuild(index, new_graph, subgraphs, affected, promoted, dropped)


def delete_edge(index: HGPAIndex, u: int, v: int) -> tuple[HGPAIndex, UpdateStats]:
    """Return a new index for ``graph − (u → v)``, rebuilt minimally.

    Removal cannot break the separator invariant; hubs that are no longer
    strictly necessary are kept (correct, merely conservative).
    """
    graph = index.graph
    n = graph.num_nodes
    check_endpoints(graph, u, v)
    if not graph.has_edge(u, v):
        return index, UpdateStats(False, None, 0, 0,
                                  len(index.hub_partials)
                                  + len(index.skeleton_cols)
                                  + len(index.leaf_ppv))
    src, dst = graph.edge_arrays()
    keep = ~((src == u) & (dst == v))
    if graph.out_degree(u) == 1:
        raise GraphError(
            f"removing ({u}, {v}) would leave node {u} dangling; "
            "normalise the graph first"
        )
    new_graph = DiGraph.from_arrays(n, src[keep], dst[keep], name=graph.name)
    subgraphs = _clone_subgraphs(index.hierarchy)
    chain_ids = [sg.node_id for sg in index.hierarchy.chain(u)]
    return _rebuild(index, new_graph, subgraphs, chain_ids, None, set())
