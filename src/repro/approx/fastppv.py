"""FastPPV (Zhu et al. [49]) — scheduled hub-based approximation.

The comparison baseline of Sections 6.2.9–6.2.10.  Tours are partitioned by
*hub length* (how many interior hub nodes they pass); contributions are
aggregated from the most important tour set (hub length 0 — the partial
vector) outwards, one hub expansion at a time, most-massive-first.  The
pre-computed index stores, per hub ``h``: its partial vector ``p_h`` and
its *hub frontier* (the first-passage mass it forwards to other hubs) —
the "prime subgraph" products of the original paper.

Accuracy/time are traded by ``num_hubs`` (Fast-100, Fast-1000, … in the
figures) and by the expansion budget; the un-expanded frontier mass bounds
the remaining error, so the approximation is accuracy-aware like the
original.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.decomposition import as_view, partial_vectors
from repro.core.flat_index import (
    DEFAULT_BATCH,
    run_in_batches,
    topk_in_batches,
    validate_batch,
)
from repro.core.sparse_ops import finalize_csr
from repro.core.sparsevec import SparseVec
from repro.errors import IndexBuildError, QueryError
from repro.graph.analysis import top_pagerank_nodes
from repro.graph.digraph import DiGraph

__all__ = ["FastPPVIndex", "build_fastppv_index", "FastPPVQueryInfo"]


@dataclass(frozen=True)
class FastPPVQueryInfo:
    """Diagnostics of one FastPPV query."""

    expansions: int
    residual_mass: float
    wall_seconds: float


@dataclass
class FastPPVIndex:
    """Pre-computed hub partials and hub-to-hub frontiers."""

    graph: DiGraph
    alpha: float
    tol: float
    hubs: np.ndarray
    hub_partials: dict[int, SparseVec] = field(default_factory=dict)
    hub_frontier: dict[int, SparseVec] = field(default_factory=dict)

    def total_bytes(self) -> int:
        stores = (self.hub_partials, self.hub_frontier)
        return sum(v.wire_bytes for store in stores for v in store.values())

    # ------------------------------------------------------------------
    def query(
        self,
        u: int,
        *,
        max_expansions: int | None = None,
        frontier_cutoff: float | None = None,
    ) -> np.ndarray:
        """Approximate PPV of ``u``."""
        vec, _ = self.query_detailed(
            u, max_expansions=max_expansions, frontier_cutoff=frontier_cutoff
        )
        return vec

    def query_detailed(
        self,
        u: int,
        *,
        max_expansions: int | None = None,
        frontier_cutoff: float | None = None,
    ) -> tuple[np.ndarray, FastPPVQueryInfo]:
        """Scheduled aggregation: expand hub frontiers most-massive-first.

        ``max_expansions`` bounds the number of hub expansions (``None`` =
        until every frontier entry falls below ``frontier_cutoff``, which
        defaults to ``tol/100``); the residual frontier mass is reported as
        the error bound.
        """
        n = self.graph.num_nodes
        if not 0 <= u < n:
            raise QueryError(f"query node {u} out of range")
        t0 = time.perf_counter()
        d, e = partial_vectors(
            as_view(self.graph),
            self.hubs,
            np.asarray([u]),
            alpha=self.alpha,
            tol=self.tol,
        )
        acc = d[:, 0]
        expansions, residual = self._expand_frontier(
            acc, e[:, 0], max_expansions, frontier_cutoff
        )
        info = FastPPVQueryInfo(
            expansions=expansions,
            residual_mass=residual,
            wall_seconds=time.perf_counter() - t0,
        )
        return acc, info

    def query_many(
        self,
        nodes: np.ndarray,
        *,
        max_expansions: int | None = None,
        frontier_cutoff: float | None = None,
        collect_stats: bool = True,
    ) -> tuple[np.ndarray, list[FastPPVQueryInfo]]:
        """Batched approximate PPVs.

        The query-time partial vectors of all sources are solved in one
        batched selective expansion (with per-column convergence, so each
        row equals the per-node :meth:`query` result exactly); the
        scheduled frontier expansion then runs per query.  Returns a
        dense ``(len(nodes), n)`` matrix plus per-query diagnostics
        (``collect_stats=False`` skips the per-query timing/diagnostic
        objects and returns an empty list; the matrix is identical).
        """
        n = self.graph.num_nodes
        nodes = validate_batch(nodes, n)
        if nodes.size == 0:
            return np.zeros((0, n)), []
        if nodes.size > DEFAULT_BATCH:
            # Bound the dense (n, batch) solve matrices.
            return run_in_batches(
                lambda chunk: self.query_many(
                    chunk,
                    max_expansions=max_expansions,
                    frontier_cutoff=frontier_cutoff,
                    collect_stats=collect_stats,
                ),
                nodes,
            )
        out = np.zeros((nodes.size, n))
        t0 = time.perf_counter()
        d, e = partial_vectors(
            as_view(self.graph),
            self.hubs,
            nodes,
            alpha=self.alpha,
            tol=self.tol,
            per_column=True,
        )
        solve_each = (time.perf_counter() - t0) / nodes.size
        infos: list[FastPPVQueryInfo] = []
        for j in range(nodes.size):
            t1 = time.perf_counter()
            acc = d[:, j]
            expansions, residual = self._expand_frontier(
                acc, e[:, j], max_expansions, frontier_cutoff
            )
            out[j] = acc
            if collect_stats:
                infos.append(
                    FastPPVQueryInfo(
                        expansions=expansions,
                        residual_mass=residual,
                        wall_seconds=solve_each + time.perf_counter() - t1,
                    )
                )
        return out, infos

    def query_many_sparse(
        self, nodes: np.ndarray, *, collect_stats: bool = True
    ) -> tuple[sp.csr_matrix, list[FastPPVQueryInfo]]:
        """Batched approximate PPVs as a CSR ``(len(nodes), n)`` matrix.

        FastPPV's query-time solve is inherently dense (the selective
        expansion works on full columns), so the sparse form is a
        post-solve conversion for pipeline uniformity — exact zeros are
        dropped, every kept value is bitwise the dense row's.  The
        memory wins of the sparse pipeline come from the pruned exact
        indexes; this keeps FastPPV servable behind the same
        ``query_many_sparse`` capability.
        """
        dense, infos = self.query_many(nodes, collect_stats=collect_stats)
        return finalize_csr(sp.csr_matrix(dense), dense.shape), infos

    def query_topk(
        self, u: int, k: int, *, threshold: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of the approximate PPV of ``u``: ``(ids, scores)``.

        Best first, ties broken by smaller id; ``k`` larger than the
        graph returns all ``n`` nodes.  ``threshold`` drops entries with
        ``score <= threshold`` before the k-cut (tail padded with id
        ``-1`` / score ``0.0``).
        """
        ids, scores, _ = self.query_many_topk(
            np.asarray([u]), k, threshold=threshold
        )
        return ids[0], scores[0]

    def query_many_topk(
        self,
        nodes: np.ndarray,
        k: int,
        *,
        batch: int = DEFAULT_BATCH,
        threshold: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, list[FastPPVQueryInfo]]:
        """Batched approximate top-``k`` without materialising full PPVs.

        Each ``batch``-sized chunk is solved and expanded via
        :meth:`query_many`, then reduced to its per-row top-k before the
        next chunk runs, bounding dense intermediates at ``(batch, n)``.
        ``threshold`` applies the score cut of
        :func:`repro.core.flat_index.topk_rows` per row.
        """
        n = self.graph.num_nodes
        nodes = validate_batch(nodes, n)
        return topk_in_batches(self.query_many, nodes, k, n, batch, threshold)

    def _expand_frontier(
        self,
        acc: np.ndarray,
        residual_col: np.ndarray,
        max_expansions: int | None,
        frontier_cutoff: float | None,
    ) -> tuple[int, float]:
        """Scheduled most-massive-first hub expansion into ``acc``."""
        if frontier_cutoff is None:
            frontier_cutoff = self.tol * 0.01
        # Frontier: pre-stop mass waiting at each hub (continuations of
        # tours whose hub length is about to grow by one).
        frontier: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for h in self.hubs.tolist():
            mass = float(residual_col[h])
            if mass > frontier_cutoff:
                frontier[h] = mass
                heapq.heappush(heap, (-mass, h))
        expansions = 0
        budget = np.inf if max_expansions is None else max_expansions
        while heap and expansions < budget:
            neg_mass, h = heapq.heappop(heap)
            mass = frontier.get(h, 0.0)
            if mass <= frontier_cutoff or -neg_mass != mass:
                continue  # stale entry
            frontier[h] = 0.0
            expansions += 1
            # A walker of pre-stop mass `mass` sits at h: its stopped share
            # is already in acc via the port deposit of p_u / previous
            # expansions... it contributes mass·(p_h − α·x_h) plus onward
            # frontier mass·E_h.
            part = self.hub_partials[h]
            part.add_into(acc, mass)
            fwd = self.hub_frontier[h]
            for h2, m2 in zip(fwd.idx.tolist(), fwd.val.tolist()):
                new_mass = frontier.get(h2, 0.0) + mass * m2
                frontier[h2] = new_mass
                if new_mass > frontier_cutoff:
                    heapq.heappush(heap, (-new_mass, h2))
        return expansions, float(sum(frontier.values()))


def build_fastppv_index(
    graph: DiGraph,
    num_hubs: int,
    *,
    alpha: float = 0.15,
    tol: float = 1e-4,
    prune: float | None = None,
    batch: int = 256,
) -> FastPPVIndex:
    """Pre-compute the FastPPV index with the top-``num_hubs`` PageRank hubs."""
    if num_hubs < 1:
        raise IndexBuildError("num_hubs must be >= 1")
    hubs = np.unique(top_pagerank_nodes(graph, num_hubs, alpha=alpha))
    index = FastPPVIndex(graph=graph, alpha=alpha, tol=tol, hubs=hubs)
    cutoff = tol if prune is None else prune
    view = as_view(graph)
    for lo in range(0, hubs.size, batch):
        chunk = hubs[lo : lo + batch]
        d, e = partial_vectors(view, hubs, chunk, alpha=alpha, tol=tol)
        for j, h in enumerate(chunk.tolist()):
            col = d[:, j].copy()
            col[h] -= alpha  # adjusted P_h, as in the exact algorithms
            index.hub_partials[h] = SparseVec.from_dense(col, prune=cutoff)
            fwd = np.zeros(graph.num_nodes)
            fwd[hubs] = e[hubs, j]
            index.hub_frontier[h] = SparseVec.from_dense(fwd, prune=cutoff)
    return index
