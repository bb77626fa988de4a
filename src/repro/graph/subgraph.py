"""Virtual subgraph views (Definition 3 of the paper).

A *virtual subgraph* over a node subset ``S`` behaves like the original graph
restricted to ``S`` except that every node keeps its **original** out-degree:
an edge leaving ``S`` is an edge to the (absorbing) virtual node, so the
probability of each surviving step ``u -> v`` stays ``1/out_G(u)``.

Theorem 2 of the paper: the partial vector of ``u`` w.r.t. hub set ``H``
equals ``u``'s local PPV in the virtual subgraph of the component containing
``u``.  That equivalence is what HGPA's recursion is built on, so this class
is used by every level of the hierarchy.

The virtual node is never materialised — walk mass routed to it is simply
dropped, which is exactly what the sub-stochastic local transition matrix
does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

__all__ = ["VirtualSubgraph"]


class VirtualSubgraph:
    """A node-subset view of a :class:`DiGraph` with original out-degrees.

    Parameters
    ----------
    graph:
        The parent graph.
    nodes:
        Global node ids in the subset (deduplicated and sorted internally).
    """

    __slots__ = (
        "graph",
        "nodes",
        "_indptr",
        "_indices",
        "_transition_T",
        "_transition",
    )

    def __init__(self, graph: DiGraph, nodes: Sequence[int] | np.ndarray) -> None:
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size and (nodes[0] < 0 or nodes[-1] >= graph.num_nodes):
            raise GraphError("VirtualSubgraph: node ids out of range")
        self.graph = graph
        self.nodes = nodes
        local = np.full(graph.num_nodes, -1, dtype=np.int64)
        local[nodes] = np.arange(nodes.size)  # dropped on return: views are cached
        # Induced CSR in local ids, built by slicing only the subset's CSR
        # rows (O(sum of subset degrees), not O(m) — HGPA creates thousands
        # of these views per hierarchy).
        counts = graph.indptr[nodes + 1] - graph.indptr[nodes] if nodes.size else np.zeros(0, dtype=np.int64)
        total = int(counts.sum())
        if total:
            starts = graph.indptr[nodes]
            offsets = np.zeros(nodes.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            flat_pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets[:-1], counts)
                + np.repeat(starts, counts)
            )
            targets = graph.indices[flat_pos]
            src_local = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
            keep = local[targets] >= 0
            ls, ld = src_local[keep], local[targets[keep]]
        else:
            ls = ld = np.empty(0, dtype=np.int64)
        inner = np.bincount(ls, minlength=nodes.size) if ls.size else np.zeros(nodes.size, dtype=np.int64)
        indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(inner, out=indptr[1:])
        self._indptr = indptr
        self._indices = ld  # already grouped by source because rows were sliced in order
        self._transition_T: sp.csr_matrix | None = None
        self._transition: sp.csr_matrix | None = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the subset."""
        return int(self.nodes.size)

    @property
    def num_internal_edges(self) -> int:
        """Number of directed edges with both endpoints inside the subset."""
        return int(self._indices.size)

    def contains(self, global_node: int) -> bool:
        """Whether the global node id is part of this subgraph."""
        pos = int(np.searchsorted(self.nodes, global_node))
        return pos < self.nodes.size and int(self.nodes[pos]) == global_node

    def to_local(self, global_nodes: np.ndarray | Sequence[int] | int) -> np.ndarray | int:
        """Map global node id(s) to local id(s); raises if not contained."""
        arr = np.asarray(global_nodes, dtype=np.int64)
        pos = np.searchsorted(self.nodes, arr)
        if not np.all(pos < self.nodes.size) or np.any(self.nodes[pos] != arr):
            if np.isscalar(global_nodes):
                raise GraphError(f"node {global_nodes} not in subgraph")
            raise GraphError("some nodes not in subgraph")
        return int(pos) if np.isscalar(global_nodes) else pos

    def to_global(self, local_nodes: np.ndarray | Sequence[int] | int) -> np.ndarray | int:
        """Map local id(s) back to global node id(s)."""
        if np.isscalar(local_nodes):
            return int(self.nodes[int(local_nodes)])
        return self.nodes[np.asarray(local_nodes, dtype=np.int64)]

    def local_out_degrees(self) -> np.ndarray:
        """**Original** (full-graph) out-degrees of the subset's nodes.

        This is the defining property of the virtual subgraph: the step
        probability denominator never changes when the graph is partitioned.
        """
        return self.graph.out_degrees[self.nodes]

    def internal_out_degrees(self) -> np.ndarray:
        """Number of out-edges staying inside the subset, per local node."""
        return np.diff(self._indptr)

    def internal_edges_local(self) -> tuple[np.ndarray, np.ndarray]:
        """All internal edges as parallel local-id arrays ``(src, dst)``."""
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), self.internal_out_degrees()
        )
        return src, self._indices.copy()

    # ------------------------------------------------------------------
    def transition(self) -> sp.csr_matrix:
        """Local ``W`` with ``W[u, v] = 1/out_G(u)`` for internal edges.

        Sub-stochastic: rows whose mass partly leaves the subset sum to less
        than one — that missing mass is what the virtual node absorbs.  Used
        by the skeleton iteration (Eq. 8), which propagates values *against*
        edge direction: ``F ← (1-α)·W·F + α·x_h``.
        """
        if self._transition is None:
            deg = self.local_out_degrees().astype(np.float64)
            inv = np.zeros_like(deg)
            nz = deg > 0
            inv[nz] = 1.0 / deg[nz]
            data = np.repeat(inv, self.internal_out_degrees())
            self._transition = sp.csr_matrix(
                (data, self._indices, self._indptr),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._transition

    def transition_T(self) -> sp.csr_matrix:
        """``Wᵀ`` of :meth:`transition` — used by walk-mass propagation
        (power iteration and the selective expansion of Eq. 9)."""
        if self._transition_T is None:
            # A stable sort by target lists each column of W in source
            # order: the arrays scipy's CSC -> CSR counting sort yields.
            src, dst = self.internal_edges_local()
            order = np.argsort(dst, kind="stable")
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(dst, minlength=self.num_nodes), out=indptr[1:])
            self._transition_T = sp.csr_matrix(
                (self.transition().data[order], src[order], indptr),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._transition_T

    def escape_mass(self) -> np.ndarray:
        """Per-node probability of stepping out of the subset in one move.

        Equals ``(out_G(u) - out_S(u)) / out_G(u)`` — the weight of the
        edges re-routed to the virtual node in Definition 3.
        """
        deg = self.local_out_degrees().astype(np.float64)
        internal = self.internal_out_degrees().astype(np.float64)
        esc = np.zeros_like(deg)
        nz = deg > 0
        esc[nz] = (deg[nz] - internal[nz]) / deg[nz]
        return esc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<VirtualSubgraph n={self.num_nodes} "
            f"m_internal={self.num_internal_edges} of {self.graph!r}>"
        )
