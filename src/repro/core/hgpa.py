"""HGPA — the hierarchical graph-partition algorithm (Section 4).

The graph is recursively partitioned into a hub-separated hierarchy.  For
each internal subgraph ``G`` with hub set ``H(G)`` the index stores

* adjusted partial vectors ``P_h[G]`` of its hubs, computed *inside* the
  virtual subgraph ``G̃`` (Theorem 2), and
* skeleton columns ``s_·[G](h)`` — the local PPV value at ``h`` from every
  node of ``G`` (Eq. 8 run inside ``G̃``);

plus, for every leaf subgraph, the full local PPV of each member.  A query
walks the chain of subgraphs containing ``u`` and evaluates Eq. 6:

    ``r_u = Σ_m (1/α) Σ_{h∈H(G_m^{(u)})} S_u[G_m](h)·P_h[G_m] + base``

where the base term is the leaf-level local PPV for non-hub nodes, or the
hub's own (unadjusted) partial vector when ``u`` was selected as a hub.
``HGPA_ad`` (Section 6.2.9) is the same index built with
``prune=1e-4`` — offline scores below that threshold are discarded.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.core.flat_index import (
    HubShare,
    OwnLookup,
    QueryStats,
    Servable,
    Solve,
    StackedOps,
    csr_row_dense,
    find_sorted,
    query_stats,
    run_solves,
    stack_ops,
)
from repro.core.sparse_ops import (
    drop_rows_in_columns,
    fold_depth_blocks,
    sparse_add,
    spgemm_scaled,
    subtract_at,
    weight_row_stats,
)
from repro.core.sparsevec import SparseVec
from repro.errors import IndexBuildError, QueryError
from repro.graph.digraph import DiGraph
from repro.partition.hierarchy import (
    PartitionHierarchy,
    SubgraphNode,
    build_hierarchy,
)

if TYPE_CHECKING:
    from repro.core.updates import EdgeUpdate, UpdateReceipt

__all__ = ["HGPAShare", "HGPAIndex", "build_hgpa_index", "build_hgpa_ad_index"]


class HGPAShare(HubShare):
    """Eq. 6 over one share of every level's hub set.

    ``level_ops(sid)`` yields the stacked ops of this share's hubs in
    subgraph ``sid``, or ``None`` where it owns none.  Per chain level
    the level term is one skeleton-row slice plus one ``CSC @ weights``
    product.  The port repair (see :meth:`HGPAIndex.query_detailed`)
    splits over shares: each zeroes its own level term at the level's hub
    coordinates and re-adds the raw skeleton values at the hubs it owns —
    the centralized overwrite when it owns them all.  Chains share little
    below the root, so dense batches always run the row loop (no dense
    body beats it, see ``benchmarks/bench_batch_rows.py``), and sparse
    ones under 64 rows do.
    """

    ROW_LOOP_BELOW = 64  # sparse form only: the dense body is the loop
    LEVEL_CHUNK = 128  # queries per level-term product in the sparse body

    def __init__(
        self,
        hierarchy: Any,
        level_ops: Callable[[int], StackedOps | None],
        own: OwnLookup,
        alpha: float,
        num_nodes: int,
    ) -> None:
        super().__init__(num_nodes, own, alpha)
        self.hierarchy = hierarchy
        self.level_ops = level_ops

    def row(
        self, u: int, collect_stats: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        counters = np.zeros(4, dtype=np.int64) if collect_stats else None
        acc = np.zeros(self.num_nodes)
        chain = self.hierarchy.chain(u)
        u_is_hub = self.hierarchy.is_hub(u)
        for sg in chain:
            ops = self.level_ops(sg.node_id) if sg.hubs.size else None
            if ops is None:
                continue
            owned, part_csc, skel_csr, nnz_per_hub = ops
            raw = csr_row_dense(skel_csr, u)
            weights = raw
            own_level = u_is_hub and sg is chain[-1]
            if own_level:
                # A hub query at its own level: the f_u(h) adjustment.
                hits, pos = find_sorted(owned, np.asarray([u]))
                if hits.size:
                    weights = raw.copy()
                    weights[pos[0]] -= self.alpha
            contrib = part_csc @ (weights * self.inv_alpha)
            if not own_level:
                # Port repair: zero this share's level term at the level's
                # hub coordinates, then write the raw skeleton values at
                # the owned ones (all owned: the overwrite covers them).
                if owned.size < sg.hubs.size:
                    contrib[sg.hubs] = 0.0
                contrib[owned] = raw
            acc += contrib
            if counters is not None:
                used = weights != 0.0
                counters[0] += nnz_per_hub[used].sum()
                counters[1] += np.count_nonzero(used)
                counters[2] += owned.size
                counters[3] += skel_csr.indptr[u + 1] - skel_csr.indptr[u]
        self._add_own_row(acc, u, u_is_hub, counters)
        return acc, counters

    def sparse(
        self, nodes: np.ndarray, collect_stats: bool
    ) -> tuple[sp.csr_matrix, np.ndarray | None]:
        n = self.num_nodes
        order, members, hub_flags, depth_of = _chain_membership(
            self.hierarchy, nodes
        )
        ordered = nodes[order]
        counters = self._counters(nodes.size, collect_stats)
        # Level-term CSC blocks bucketed by chain depth: same-depth
        # subgraphs cover disjoint query slices, so a whole depth merges
        # by concatenation (port-repair values included as one scattered
        # add per depth) and the accumulator fold costs one sparse add
        # per depth — per entry, terms still add in chain order, exactly
        # the dense accumulation sequence.  A level's product is taken
        # ``LEVEL_CHUNK`` queries at a time, so a raw product and its
        # compacted copy coexist for one chunk, never for a whole level.
        by_depth: dict[int, list[tuple[int, sp.csc_matrix]]] = {}
        ports: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        for sid, (lo, hi, own_list) in members.items():
            ops = self.level_ops(sid)
            if ops is None:
                continue
            owned, part_csc, skel_csr, nnz_per_hub = ops
            hubs, depth = self.hierarchy.subgraphs[sid].hubs, depth_of[sid]
            for c_lo in range(lo, hi, self.LEVEL_CHUNK):
                c_hi = min(c_lo + self.LEVEL_CHUNK, hi)
                own_arr = np.asarray(own_list[c_lo - lo : c_hi - lo], dtype=bool)
                qnodes = ordered[c_lo:c_hi]
                raw = skel_csr[qnodes]  # sparse (c_hi-c_lo, |owned|) weight rows
                weights = raw
                own_rows = np.nonzero(own_arr)[0]
                if own_rows.size:
                    # Hub queries at their own level: the f_u(h) adjustment.
                    hits, pos = find_sorted(owned, qnodes[own_rows])
                    weights = subtract_at(
                        raw, own_rows[hits], pos[hits], self.alpha
                    )
                level = spgemm_scaled(part_csc, weights, self.inv_alpha)
                rest = np.nonzero(~own_arr)[0]
                if rest.size:
                    # Port repair, sparse form: the dense overwrite splits
                    # into dropping the matmul term at the level's hub
                    # coordinates and adding the raw skeleton values at the
                    # owned ones (collected per depth, added after assembly).
                    level = drop_rows_in_columns(level, hubs, ~own_arr)
                    raw_rest = raw[rest]
                    port_cols = c_lo + rest[
                        np.repeat(np.arange(rest.size), np.diff(raw_rest.indptr))
                    ]
                    ports.setdefault(depth, []).append(
                        (owned[raw_rest.indices], port_cols, raw_rest.data)
                    )
                by_depth.setdefault(depth, []).append((c_lo, level))
                if counters is not None:
                    cols = order[c_lo:c_hi]
                    used, entries = weight_row_stats(weights, nnz_per_hub)
                    counters[0, cols] += entries
                    counters[1, cols] += used
                    # Sparse-aware accounting: charge each query's actual
                    # nnz skeleton lookups at this level — the dense path
                    # scans (and is charged) the level's full hub set.
                    counters[2, cols] += np.diff(raw.indptr)
        acc = fold_depth_blocks(by_depth, ports, nodes.size, n)
        if acc is None:
            out = sp.csr_matrix((nodes.size, n))
        else:
            inv_order = np.empty_like(order)
            inv_order[order] = np.arange(order.size)
            out = acc.T.tocsr()[inv_order]
            del acc  # freed before the base-term adds copy ``out``
        own, alpha_pts = self._own_sparse(nodes, hub_flags, counters)
        out = sparse_add(out, own)
        if alpha_pts is not None:
            out = sparse_add(out, alpha_pts)
        return out, counters


@dataclass
class HGPAIndex(Servable):
    """Pre-computed hierarchy of partial vectors, skeletons and leaf PPVs.

    All vectors are stored in *global* coordinates.  ``hub_partials[h]`` is
    the adjusted ``P_h`` within the subgraph whose hub set contains ``h``;
    ``skeleton_cols[h]`` holds ``s_u[G](h)`` for every ``u`` in that same
    subgraph; ``leaf_ppv[u]`` is the local PPV of non-hub node ``u`` w.r.t.
    its leaf subgraph.
    """

    graph: DiGraph
    hierarchy: PartitionHierarchy
    alpha: float
    tol: float
    prune: float
    hub_partials: dict[int, SparseVec] = field(default_factory=dict)
    skeleton_cols: dict[int, SparseVec] = field(default_factory=dict)
    leaf_ppv: dict[int, SparseVec] = field(default_factory=dict)
    build_cost: dict[tuple[Any, ...], float] = field(default_factory=dict)
    _level_ops_cache: dict[int, StackedOps] = field(default_factory=dict, repr=False)
    _share_cache: HGPAShare | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def query(self, u: int) -> np.ndarray:
        """Exact PPV of node ``u`` (dense), via the vectorised fast path.

        Per hierarchy level this stacks the level's hub partials into one
        CSC matrix and its skeleton columns into one CSR matrix (cached),
        so a query is a handful of sparse matrix-vector products instead of
        per-hub Python loops — the layout an optimised implementation of
        Algorithm 1 would use.
        """
        if not 0 <= u < self.graph.num_nodes:
            raise QueryError(f"query node {u} out of range")
        return self._share().row(u, False)[0]

    def _share(self) -> HGPAShare:
        """The cached evaluator over every level: the index is the
        one-machine deployment, owning every hub and every own vector.

        Its level lookup stacks a level's hub partials into one CSC and
        its skeleton columns into one CSR on first use (cached in
        ``_level_ops_cache``); the lookups close over the stores, not the
        index, so the cache is no reference cycle.
        """
        share = self._share_cache
        if share is None:
            cache, subgraphs = self._level_ops_cache, self.hierarchy.subgraphs
            hub_store, skel_store = self.hub_partials, self.skeleton_cols
            leaf_store, n = self.leaf_ppv, self.graph.num_nodes

            def level_ops(sid: int) -> StackedOps:
                ops = cache.get(sid)
                if ops is None:
                    ops = cache[sid] = stack_ops(
                        subgraphs[sid].hubs, hub_store, skel_store, n
                    )
                return ops

            share = self._share_cache = HGPAShare(
                self.hierarchy,
                level_ops,
                lambda hub, u: (hub_store if hub else leaf_store)[u],
                self.alpha,
                n,
            )
        return share

    def invalidate_cache(self) -> None:
        """Drop the stacked-matrix caches (call after mutating the stores)."""
        self._level_ops_cache.clear()
        self._share_cache = None

    def _rows(
        self, nodes: Sequence[int] | np.ndarray, *, sparse: bool, collect_stats: bool
    ) -> tuple[Any, list[QueryStats]]:
        """Eq. 6 for a batch: :meth:`query`'s body per node, except for
        sparse batches of ``HGPAShare.ROW_LOOP_BELOW`` (64) rows or more,
        whose body groups queries by the subgraphs their chains traverse,
        one sparse ``CSC @ weights`` product per level group with a
        structural port repair, so on pruned indexes — ``HGPA_ad`` — the
        peak follows the PPVs' support."""
        out, counters = self._share().evaluate(
            nodes, sparse=sparse, collect_stats=collect_stats
        )
        return out, query_stats(counters)

    def updated(self, update: EdgeUpdate) -> tuple[Servable, UpdateReceipt]:
        from repro.core.updates import apply_edge_update

        return apply_edge_update(self, update)

    def query_detailed(self, u: int) -> tuple[np.ndarray, QueryStats]:
        """PPV of ``u`` plus work counters (Eq. 6 evaluation).

        For every level above ``u``'s own, the recursion substitutes the
        next level's local PPV for the true partial vector, which omits the
        first-passage ("port") mass deposited *at* that level's hubs.  The
        algebra of the hubs theorem gives the exact repair: the level term
        evaluated at its own hub coordinates must equal the local skeleton
        values ``s_u[G_m](ĥ)``, so those coordinates are overwritten.
        """
        if not 0 <= u < self.graph.num_nodes:
            raise QueryError(f"query node {u} out of range")
        acc = np.zeros(self.graph.num_nodes)
        stats = QueryStats()
        inv_alpha = 1.0 / self.alpha
        chain = self.hierarchy.chain(u)
        u_is_hub = self.hierarchy.is_hub(u)
        for sg in chain:
            if sg.hubs.size == 0:
                continue
            own_level = u_is_hub and sg is chain[-1]
            hubs = sg.hubs.tolist()
            skel_vals = np.asarray(
                [self.skeleton_cols[h].get(u) for h in hubs]
            )
            stats.skeleton_lookups += len(hubs)
            if not own_level:
                snapshot = acc[sg.hubs].copy()
            for pos, h in enumerate(hubs):
                weight = float(skel_vals[pos])
                if h == u:
                    weight -= self.alpha
                if weight == 0.0:
                    continue
                part = self.hub_partials[h]
                part.add_into(acc, weight * inv_alpha)
                stats.entries_processed += part.nnz
                stats.vectors_used += 1
            if not own_level:
                # Port repair: this level contributes exactly s_u[G_m](ĥ)
                # at its own hub coordinates.
                acc[sg.hubs] = snapshot + skel_vals
        if u_is_hub:
            own = self.hub_partials[u]
            own.add_into(acc)
            acc[u] += self.alpha  # un-adjust P_u back to p_u
            stats.entries_processed += own.nnz
        else:
            own = self.leaf_ppv[u]
            own.add_into(acc)
            stats.entries_processed += own.nnz
        stats.vectors_used += 1
        return acc, stats

    # ------------------------------------------------------------------
    def space_report(self) -> dict[str, int]:
        """Wire bytes of the stored vectors, by category."""
        return {
            "hub_partials": sum(v.wire_bytes for v in self.hub_partials.values()),
            "skeleton": sum(v.wire_bytes for v in self.skeleton_cols.values()),
            "leaf_ppv": sum(v.wire_bytes for v in self.leaf_ppv.values()),
        }

    def total_bytes(self) -> int:
        return sum(self.space_report().values())

    def total_nnz(self) -> int:
        stores = (self.hub_partials, self.skeleton_cols, self.leaf_ppv)
        return sum(v.nnz for store in stores for v in store.values())

    def offline_seconds(self) -> float:
        """Total measured pre-computation work: the summed ``build_cost``,
        solver-thread CPU seconds (the work, not a threaded build's wall)."""
        return float(sum(self.build_cost.values()))


def _chain_membership(
    hierarchy: PartitionHierarchy, nodes: np.ndarray
) -> tuple[
    np.ndarray,
    dict[int, tuple[int, int, list[bool]]],
    np.ndarray,
    dict[int, int],
]:
    """Group queries by the subgraphs their chains traverse.

    Queries are ordered lexicographically by chain, so every subgraph's
    member set becomes one *contiguous* slice of the ordered batch (a
    subgraph's members are exactly the queries whose chain starts with
    the unique root→subgraph path).  Batched query paths can then
    accumulate each level term with a plain block add instead of a
    strided scatter.

    Returns ``(order, members, hub_flags, depth_of)``: ``order[k]`` is
    the original position of the ``k``-th ordered query; ``members``
    maps subgraph id to ``(lo, hi, own-level flags)`` over ordered
    positions; ``hub_flags`` is a per-original-query hub mask;
    ``depth_of`` maps subgraph id to its chain depth (root = 0) — two
    groups of the same depth always occupy *disjoint* column slices, and
    any one query's covering groups have strictly increasing depths, so
    sparse accumulation can merge per depth and still add every entry's
    terms in chain order.  The own-level flag marks a hub query at the
    level that owns it (where Eq. 6 applies the f_u(h) adjustment
    instead of the port repair).
    """
    chains = [hierarchy.chain(int(u)) for u in nodes.tolist()]
    hub_flags = np.asarray(
        [hierarchy.is_hub(int(u)) for u in nodes.tolist()], dtype=bool
    )
    order = np.asarray(
        sorted(
            range(nodes.size),
            key=lambda i: [sg.node_id for sg in chains[i]],
        ),
        dtype=np.int64,
    )
    members: dict[int, list[Any]] = {}
    depth_of: dict[int, int] = {}
    for pos, i in enumerate(order.tolist()):
        chain = chains[i]
        for depth, sg in enumerate(chain):
            if sg.hubs.size == 0:
                continue
            own = bool(hub_flags[i]) and sg is chain[-1]
            entry = members.get(sg.node_id)
            if entry is None:
                members[sg.node_id] = [pos, pos + 1, [own]]
                depth_of[sg.node_id] = depth
            else:
                entry[1] = pos + 1
                entry[2].append(own)
    return (
        order,
        {sid: (lo, hi, owns) for sid, (lo, hi, owns) in members.items()},
        hub_flags,
        depth_of,
    )


def build_hgpa_index(
    graph: DiGraph,
    *,
    hierarchy: PartitionHierarchy | None = None,
    fanout: int = 2,
    max_levels: int | None = None,
    alpha: float = 0.15,
    tol: float = 1e-4,
    prune: float | None = None,
    seed: int = 0,
) -> HGPAIndex:
    """Pre-compute the full HGPA index.

    A pre-built :class:`PartitionHierarchy` may be supplied; otherwise one
    is constructed with the given ``fanout``/``max_levels``.  ``prune``
    defaults to ``tol`` (entries below the iteration tolerance carry no
    information); ``HGPA_ad`` uses ``prune=1e-4`` regardless of ``tol``.
    """
    if not 0.0 < alpha < 1.0:
        raise IndexBuildError(f"alpha must be in (0, 1), got {alpha}")
    if hierarchy is None:
        hierarchy = build_hierarchy(
            graph, fanout=fanout, max_levels=max_levels, seed=seed
        )
    index = HGPAIndex(
        graph=graph,
        hierarchy=hierarchy,
        alpha=alpha,
        tol=tol,
        prune=tol if prune is None else prune,
    )
    plan = [s for sg in hierarchy.subgraphs for s in subgraph_solves(index, sg)]
    run_solves(index, plan)
    return index


def subgraph_solves(index: HGPAIndex, sg: SubgraphNode) -> list[Solve]:
    """The plan for every vector subgraph ``sg`` owns: hub side and, on a
    leaf, PPVs."""
    solves: list[Solve] = []
    if sg.hubs.size:
        view = index.hierarchy.view(sg.node_id)
        hub_local = np.asarray(view.to_local(sg.hubs), dtype=np.int64)
        solves += [
            Solve("hub", index.hub_partials, view, sg.hubs, hub_local, True),
            Solve("skel", index.skeleton_cols, view, sg.hubs),
        ]
    if sg.is_leaf and sg.num_nodes:
        view = index.hierarchy.view(sg.node_id)
        empty = np.empty(0, dtype=np.int64)
        solves.append(Solve("leaf", index.leaf_ppv, view, sg.nodes, empty))
    return solves


def build_hgpa_ad_index(graph: DiGraph, **kwargs: Any) -> HGPAIndex:
    """HGPA_ad — HGPA with offline scores below ``1e-4`` discarded."""
    kwargs.setdefault("prune", 1e-4)
    return build_hgpa_index(graph, **kwargs)
