"""Versioned edge updates for every index family — the update pipeline's core.

The paper pre-computes once; a served deployment must keep answering while
the graph changes.  This module is the single entry point the serving
stack builds on:

* :class:`EdgeUpdate` / :class:`UpdateBatch` — the update wire format, a
  declarative ``insert``/``delete`` of one edge (or a sequence of them).
* :func:`apply_edge_update` — functional update of any mutable index
  (:class:`~repro.core.hgpa.HGPAIndex` via the hierarchical chain
  rebuild, :class:`~repro.core.flat_index.FlatPPVIndex` families via the
  affected-column path, both below).  The old index stays valid —
  staggered rollouts serve the old epoch from it while replicas flip one
  at a time.
* :class:`UpdateReceipt` — what every layer above passes around: whether
  anything changed, the epoch the change produced (filled in by whichever
  layer owns the counter), the *affected sources* report, and the exact
  store-key delta a distributed deployment must re-ship.

Affected sources
----------------
The exact PPV ``r_w`` can only change if some walk from ``w`` traverses
the updated edge ``(u, v)`` — i.e. iff ``w`` can reach ``u``.  The
reverse-reachable set of ``u`` is therefore the set of sources whose
exact PPV changes.  Out-edge changes at ``u`` never alter who reaches
``u``, so the set is the same on the old and new graph.  It is *not* the
set of served rows that change: a re-solved skeleton column converges
per column, so the update can shift its iteration count, and then
entries of rows that cannot reach ``u`` move within the solve tolerance
(update 2 of ``edge_updates(web, 5, 62)`` moves 535 such GPA rows and
245 HGPA rows; a from-scratch rebuild moves the same bits).  Caches that
drop only these rows keep those stale (ROADMAP.md item 21).

Flat-index incremental path
---------------------------
For PPV-JW and GPA the three stores have different staleness sets:

* hub partials ``P_h`` follow *blocked* walks — ``P_h`` is stale iff
  ``h`` reaches ``u`` through non-hub interior nodes (walks freeze at
  hubs, so a hub ``u`` stales only its own partial);
* skeleton columns ``s_·(h)`` are full PPV values at ``h`` — stale iff
  ``h`` is forward-reachable from the updated edge;
* node partials are blocked like hub partials, and (GPA) confined to the
  updated node's part — the separator keeps every other part untouched.

Only those columns are recomputed, with the same per-column-convergent
solvers the full build uses, so the result is identical to a from-scratch
rebuild over the same partition — the property the serving stack's
1e-12 update-vs-rebuild contract rests on.  A GPA insert that crosses two
parts without touching a hub violates the separator invariant; the repair
mirrors the hierarchical one: ``u`` is promoted into the hub set.

Hierarchical (HGPA) incremental path
------------------------------------
Only the vectors whose defining subgraph actually changed are rebuilt:

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

import dataclasses
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.flat_index import FlatPPVIndex, flat_solves, run_solves
from repro.core.hgpa import HGPAIndex, subgraph_solves
from repro.errors import GraphError, UpdateError
from repro.graph.digraph import DiGraph
from repro.partition.flat import FlatPartition
from repro.partition.hierarchy import PartitionHierarchy, SubgraphNode

__all__ = [
    "INSERT",
    "DELETE",
    "UPDATE_WIRE_BYTES",
    "EdgeUpdate",
    "UpdateBatch",
    "UpdateStats",
    "UpdateReceipt",
    "affected_sources",
    "apply_edge_update",
    "apply_update_batch",
    "insert_edge",
    "delete_edge",
    "insert_edge_flat",
    "delete_edge_flat",
]

INSERT = "insert"
DELETE = "delete"

UPDATE_WIRE_BYTES = 24
"""Bytes one edge update occupies on a wire: op tag + two int64 node ids
(with alignment) — what update fan-out traffic is metered as."""


@dataclass(frozen=True)
class EdgeUpdate:
    """One declarative edge mutation: ``op`` is ``"insert"`` / ``"delete"``."""

    op: str
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.op not in (INSERT, DELETE):
            raise UpdateError(
                f"unknown update op {self.op!r} (expected {INSERT!r} or {DELETE!r})"
            )
        if self.u != int(self.u) or self.v != int(self.v):
            raise UpdateError(f"edge endpoints must be integers: ({self.u}, {self.v})")

    @classmethod
    def insert(cls, u: int, v: int) -> "EdgeUpdate":
        return cls(INSERT, int(u), int(v))

    @classmethod
    def delete(cls, u: int, v: int) -> "EdgeUpdate":
        return cls(DELETE, int(u), int(v))

    def inverse(self) -> "EdgeUpdate":
        """The update that undoes this one."""
        return EdgeUpdate(DELETE if self.op == INSERT else INSERT, self.u, self.v)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arrow = "+" if self.op == INSERT else "-"
        return f"{arrow}({self.u}->{self.v})"


@dataclass(frozen=True)
class UpdateBatch:
    """An ordered sequence of :class:`EdgeUpdate`\\ s applied atomically."""

    updates: tuple[EdgeUpdate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "updates", tuple(self.updates))
        for upd in self.updates:
            if not isinstance(upd, EdgeUpdate):
                raise UpdateError(f"UpdateBatch holds EdgeUpdates, got {upd!r}")

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self.updates)

    def __len__(self) -> int:
        return len(self.updates)


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


@dataclass(frozen=True)
class UpdateReceipt:
    """Everything a layer above needs to know about one applied update.

    ``epoch`` is the version the update produced *at the layer that issued
    the receipt* — the core sets 0 and every epoch-owning layer stamps its
    own counter via :meth:`at_epoch`.  ``affected_sources`` is the sorted
    set of source nodes whose exact PPVs differ from the previous epoch;
    served rows outside it can still move within the solve tolerance, so
    it is not yet a complete invalidation set (see the module docstring).
    """

    update: EdgeUpdate
    changed: bool
    epoch: int
    affected_sources: np.ndarray
    stats: UpdateStats

    def __post_init__(self) -> None:
        arr = np.asarray(self.affected_sources, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "affected_sources", arr)

    @property
    def num_affected(self) -> int:
        return int(self.affected_sources.size)

    def at_epoch(self, epoch: int) -> "UpdateReceipt":
        """A copy stamped with the caller's epoch counter."""
        return dataclasses.replace(self, epoch=int(epoch))


# ----------------------------------------------------------------------
# Reachability closures.
# ----------------------------------------------------------------------
def _closure(
    indptr: np.ndarray,
    indices: np.ndarray,
    seeds: Iterable[int] | np.ndarray,
    through: np.ndarray | None = None,
) -> np.ndarray:
    """Nodes reachable from ``seeds`` along the given adjacency.

    ``through`` (a boolean mask) restricts which *interior* nodes the
    traversal may pass through; seeds always expand, and blocked nodes are
    still reported when reached (they end paths, they don't hide them).
    """
    n = indptr.size - 1
    visited = np.zeros(n, dtype=bool)
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    visited[frontier] = True
    while frontier.size:
        counts = (indptr[frontier + 1] - indptr[frontier]).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.zeros(frontier.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets[:-1], counts)
            + np.repeat(indptr[frontier].astype(np.int64), counts)
        )
        neigh = np.unique(np.asarray(indices[flat], dtype=np.int64))
        new = neigh[~visited[neigh]]
        visited[new] = True
        frontier = new if through is None else new[through[new]]
    return np.nonzero(visited)[0].astype(np.int64)


def affected_sources(graph: DiGraph, u: int) -> np.ndarray:
    """Sorted source nodes whose PPV can change when an out-edge of ``u``
    is inserted or deleted — the reverse-reachable set of ``u``.

    Sources outside this set keep their exact PPVs, but not always their
    served rows bit for bit: a re-solved column whose iteration count the
    update shifts moves them within the solve tolerance, and serving
    caches that invalidate only this set keep those rows stale (see the
    module docstring and ROADMAP.md item 21).
    """
    if not 0 <= u < graph.num_nodes:
        raise GraphError(f"node {u} not in graph (num_nodes={graph.num_nodes})")
    rev = graph.in_csr()
    return _closure(rev.indptr, rev.indices, [u])


# ----------------------------------------------------------------------
# The prologue every incremental path shares.
# ----------------------------------------------------------------------
def _updated_graph(
    graph: DiGraph, u: int, v: int, *, insert: bool
) -> DiGraph | None:
    """``graph`` with edge ``(u, v)`` inserted or deleted, or ``None``
    when that changes nothing (already present / already absent).

    Out-of-range endpoints are a *graph* error (the edge cannot exist in
    this graph), not a malformed query: both directions are validated
    and the offending edge is named.  A delete may not strand its source.
    """
    n = graph.num_nodes
    for name, node in (("source", u), ("target", v)):
        if not 0 <= node < n:
            raise GraphError(
                f"edge ({u}, {v}): {name} node {node} not in graph "
                f"(num_nodes={n})"
            )
    if graph.has_edge(u, v) == insert:
        return None
    src, dst = graph.edge_arrays()
    if insert:
        src, dst = np.concatenate([src, [u]]), np.concatenate([dst, [v]])
    else:
        if graph.out_degree(u) == 1:
            raise GraphError(
                f"removing ({u}, {v}) would leave node {u} dangling; "
                "normalise the graph first"
            )
        keep = ~((src == u) & (dst == v))
        src, dst = src[keep], dst[keep]
    return DiGraph.from_arrays(n, src, dst, name=graph.name)


def _stored_vectors(index: HGPAIndex | FlatPPVIndex) -> int:
    own = index.leaf_ppv if isinstance(index, HGPAIndex) else index.node_partials
    return len(index.hub_partials) + len(index.skeleton_cols) + len(own)


# ----------------------------------------------------------------------
# Flat-index (PPV-JW / GPA) incremental path.
# ----------------------------------------------------------------------
def _flat_update(
    index: FlatPPVIndex, u: int, v: int, *, insert: bool
) -> tuple[FlatPPVIndex, UpdateStats]:
    graph = index.graph
    n = graph.num_nodes
    new_graph = _updated_graph(graph, u, v, insert=insert)
    if new_graph is None:
        return index, UpdateStats(False, None, 0, 0, _stored_vectors(index))

    hubs = index.hubs
    hub_mask = np.zeros(n, dtype=bool)
    hub_mask[hubs] = True
    u_is_hub = bool(hub_mask[u])

    partition = getattr(index, "partition", None)
    promoted: int | None = None
    new_hubs = hubs
    new_partition = partition
    if partition is not None:
        if (
            insert
            and not u_is_hub
            and not hub_mask[v]
            and int(partition.labels[u]) != int(partition.labels[v])
        ):
            # The new edge bypasses the separator: promote u into the hub
            # set (the flat mirror of the hierarchical repair — after it,
            # no tour can cross between parts without touching a hub).
            promoted = u
            new_hubs = np.insert(hubs, int(np.searchsorted(hubs, u)), u)
            part_of_u = int(partition.labels[u])
            new_part_nodes = [
                nodes if p != part_of_u else nodes[nodes != u]
                for p, nodes in enumerate(partition.part_nodes)
            ]
        else:
            new_part_nodes = partition.part_nodes
        new_partition = FlatPartition(
            graph=new_graph,
            num_parts=partition.num_parts,
            labels=partition.labels,
            hubs=new_hubs,
            part_nodes=new_part_nodes,
        )

    # Staleness sets, computed on the old graph (out-edge changes at u do
    # not alter who reaches u).  Walks freeze at hubs, so an update at a
    # hub node stales only its own partial vector.
    if u_is_hub:
        blocked = np.asarray([u], dtype=np.int64)
    else:
        rev = graph.in_csr()
        blocked = _closure(rev.indptr, rev.indices, [u], through=~hub_mask)
    seeds = [u, v] if insert else [u]
    forward = _closure(graph.indptr, graph.indices, seeds)

    stale_hub_partials = blocked[hub_mask[blocked]]
    stale_skels = forward[hub_mask[forward]]
    stale_parts = blocked[~hub_mask[blocked]]

    overrides: dict[Any, Any] = dict(
        graph=new_graph,
        hubs=new_hubs,
        hub_partials=dict(index.hub_partials),
        skeleton_cols=dict(index.skeleton_cols),
        node_partials=dict(index.node_partials),
        build_cost=dict(index.build_cost),
        _ops_cache=None,
    )
    if partition is not None:
        overrides["partition"] = new_partition
    new_index = dataclasses.replace(index, **overrides)

    dropped: set[tuple[Any, ...]] = set()
    if promoted is not None:
        new_index.node_partials.pop(u, None)
        new_index.build_cost.pop(("part", u), None)
        dropped.add(("part", u))
        stale_hub_partials = np.union1d(stale_hub_partials, [u])
        stale_skels = np.union1d(stale_skels, [u])
        stale_parts = stale_parts[stale_parts != u]

    # Blocked paths cannot cross a GPA separator, so every stale node
    # partial lives in u's part: the plan re-solves one confined view.
    plan = flat_solves(new_index, stale_hub_partials, stale_skels, stale_parts)
    run_solves(new_index, plan)
    rebuilt = {(s.kind, u) for s in plan for u in s.sources.tolist()}

    stats = UpdateStats(
        changed=True,
        promoted_hub=promoted,
        rebuilt_subgraphs=0,
        rebuilt_vectors=len(rebuilt),
        total_vectors=_stored_vectors(new_index),
        rebuilt_keys=frozenset(rebuilt),
        dropped_keys=frozenset(dropped - rebuilt),
    )
    return new_index, stats


def insert_edge_flat(
    index: FlatPPVIndex, u: int, v: int
) -> tuple[FlatPPVIndex, UpdateStats]:
    """Return a new flat index for ``graph + (u → v)``, rebuilt minimally."""
    return _flat_update(index, u, v, insert=True)


def delete_edge_flat(
    index: FlatPPVIndex, u: int, v: int
) -> tuple[FlatPPVIndex, UpdateStats]:
    """Return a new flat index for ``graph − (u → v)``, rebuilt minimally."""
    return _flat_update(index, u, v, insert=False)


# ----------------------------------------------------------------------
# Hierarchical (HGPA) incremental path.
# ----------------------------------------------------------------------
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
    stores = dict(hub=index.hub_partials, skel=index.skeleton_cols, leaf=index.leaf_ppv)
    for kind, key in sorted(dropped_keys):
        if stores[kind].pop(key, None) is not None:
            present.add((kind, key))
        index.build_cost.pop((kind, key), None)
    # Recompute the affected subgraphs against the new graph, one plan.
    plan = [s for sid in affected_ids for s in subgraph_solves(index, subgraphs[sid])]
    run_solves(index, plan)
    rebuilt_keys = {(s.kind, u) for s in plan for u in s.sources.tolist()}
    stats = UpdateStats(
        changed=True,
        promoted_hub=promoted,
        rebuilt_subgraphs=len(affected_ids),
        rebuilt_vectors=sum(s.sources.size for s in plan),
        total_vectors=_stored_vectors(index),
        rebuilt_keys=frozenset(rebuilt_keys),
        dropped_keys=frozenset(present - rebuilt_keys),
        affected_subgraphs=tuple(affected_ids),
    )
    return index, stats


def _repair_separator(
    subgraphs: list[SubgraphNode], chain_ids: list[int], u: int, v: int
) -> bool:
    """Promote ``u`` into the hub set of the shallowest subgraph of its
    chain where the new edge ``u → v`` crosses children without touching
    a hub (and out of every deeper level); ``False`` = no violation."""
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
        sg.hubs = _insert_value(sg.hubs, u)
        for deeper_id in chain_ids[chain_ids.index(sid) + 1 :]:
            deeper = subgraphs[deeper_id]
            deeper.nodes = _remove_value(deeper.nodes, u)
            deeper.hubs = _remove_value(deeper.hubs, u)
        return True
    return False


def _hgpa_update(
    index: HGPAIndex, u: int, v: int, *, insert: bool
) -> tuple[HGPAIndex, UpdateStats]:
    new_graph = _updated_graph(index.graph, u, v, insert=insert)
    if new_graph is None:
        return index, UpdateStats(False, None, 0, 0, _stored_vectors(index))
    subgraphs = _clone_subgraphs(index.hierarchy)
    chain_ids = [sg.node_id for sg in index.hierarchy.chain(u)]
    # Removal cannot break the separator invariant; an insert may.
    promoted = insert and _repair_separator(subgraphs, chain_ids, u, v)
    dropped: set[tuple[Any, ...]] = (
        {("leaf", u), ("hub", u), ("skel", u)} if promoted else set()
    )
    affected = [sid for sid in chain_ids if subgraphs[sid].num_nodes > 0]
    return _rebuild(
        index, new_graph, subgraphs, affected, u if promoted else None, dropped
    )


def insert_edge(index: HGPAIndex, u: int, v: int) -> tuple[HGPAIndex, UpdateStats]:
    """Return a new index for ``graph + (u → v)``, rebuilt minimally."""
    return _hgpa_update(index, u, v, insert=True)


def delete_edge(index: HGPAIndex, u: int, v: int) -> tuple[HGPAIndex, UpdateStats]:
    """Return a new index for ``graph − (u → v)``, rebuilt minimally.

    Removal cannot break the separator invariant; hubs that are no longer
    strictly necessary are kept (correct, merely conservative).
    """
    return _hgpa_update(index, u, v, insert=False)


# ----------------------------------------------------------------------
# The uniform entry point.
# ----------------------------------------------------------------------
def apply_edge_update(
    index: HGPAIndex | FlatPPVIndex, update: EdgeUpdate
) -> tuple[HGPAIndex | FlatPPVIndex, UpdateReceipt]:
    """Apply one :class:`EdgeUpdate` to any mutable index, functionally.

    Returns ``(new_index, receipt)``; the old index stays valid for the
    old graph (untouched vectors are shared, not copied).  The receipt's
    ``epoch`` is 0 — layers that own an epoch counter stamp their own via
    :meth:`UpdateReceipt.at_epoch`.
    """
    if not isinstance(update, EdgeUpdate):
        raise UpdateError(f"expected an EdgeUpdate, got {update!r}")
    fn: Any
    if isinstance(index, HGPAIndex):
        fn = _hgpa_update
    elif isinstance(index, FlatPPVIndex):
        fn = _flat_update
    else:
        raise UpdateError(
            f"{type(index).__name__} does not support incremental edge updates"
        )
    new_index, stats = fn(index, update.u, update.v, insert=update.op == INSERT)
    affected = (
        affected_sources(new_index.graph, update.u)
        if stats.changed
        else np.empty(0, dtype=np.int64)
    )
    receipt = UpdateReceipt(
        update=update,
        changed=stats.changed,
        epoch=0,
        affected_sources=affected,
        stats=stats,
    )
    return new_index, receipt


def apply_update_batch(
    index: HGPAIndex | FlatPPVIndex,
    batch: UpdateBatch | Iterable[EdgeUpdate],
) -> tuple[HGPAIndex | FlatPPVIndex, list[UpdateReceipt]]:
    """Apply an :class:`UpdateBatch` (or iterable of updates) in order.

    Returns ``(new_index, receipts)`` — one receipt per update, in
    application order.
    """
    receipts: list[UpdateReceipt] = []
    for update in batch:
        index, receipt = apply_edge_update(index, update)
        receipts.append(receipt)
    return index, receipts
