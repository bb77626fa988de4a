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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.decomposition import as_view, partial_vectors
from repro.core.flat_index import DEFAULT_BATCH, Servable, validate_batch
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
class FastPPVIndex(Servable):
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

    def _rows(
        self, nodes: Sequence[int] | np.ndarray, *, sparse: bool, collect_stats: bool
    ) -> tuple[np.ndarray | sp.csr_matrix, list[FastPPVQueryInfo]]:
        """Batched approximate PPVs, unbudgeted (:meth:`query`'s defaults).

        The query-time partial vectors of ``DEFAULT_BATCH`` sources at a
        time (bounding the dense ``(n, batch)`` solve matrices) are solved
        in one batched selective expansion, with per-column convergence so
        each row equals the per-node :meth:`query` exactly; the scheduled
        frontier expansion then runs per query.  Stats are per-query
        :class:`FastPPVQueryInfo`.  The solve is inherently dense, so the
        sparse form is a post-solve conversion that drops exact zeros —
        every kept value is the dense row's — for pipeline uniformity.
        """
        n = self.graph.num_nodes
        nodes = validate_batch(nodes, n)
        out = np.zeros((nodes.size, n))
        infos: list[FastPPVQueryInfo] = []
        for lo in range(0, nodes.size, DEFAULT_BATCH):
            chunk = nodes[lo : lo + DEFAULT_BATCH]
            t0 = time.perf_counter()
            d, e = partial_vectors(
                as_view(self.graph),
                self.hubs,
                chunk,
                alpha=self.alpha,
                tol=self.tol,
                per_column=True,
            )
            solve_each = (time.perf_counter() - t0) / chunk.size
            for j in range(chunk.size):
                t1 = time.perf_counter()
                acc = d[:, j]
                expansions, residual = self._expand_frontier(
                    acc, e[:, j], None, None
                )
                out[lo + j] = acc
                if collect_stats:
                    infos.append(
                        FastPPVQueryInfo(
                            expansions=expansions,
                            residual_mass=residual,
                            wall_seconds=solve_each + time.perf_counter() - t1,
                        )
                    )
        if sparse:
            return finalize_csr(sp.csr_matrix(out), out.shape), infos
        return out, infos

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
) -> FastPPVIndex:
    """Pre-compute the FastPPV index with the top-``num_hubs`` PageRank
    hubs, 256 per solve, pruning stored entries at ``tol``."""
    if num_hubs < 1:
        raise IndexBuildError("num_hubs must be >= 1")
    hubs = np.unique(top_pagerank_nodes(graph, num_hubs, alpha=alpha))
    index = FastPPVIndex(graph=graph, alpha=alpha, tol=tol, hubs=hubs)
    view = as_view(graph)
    for lo in range(0, hubs.size, 256):
        chunk = hubs[lo : lo + 256]
        d, e = partial_vectors(view, hubs, chunk, alpha=alpha, tol=tol)
        for j, h in enumerate(chunk.tolist()):
            col = d[:, j].copy()
            col[h] -= alpha  # adjusted P_h, as in the exact algorithms
            index.hub_partials[h] = SparseVec.from_dense(col, prune=tol)
            fwd = np.zeros(graph.num_nodes)
            fwd[hubs] = e[hubs, j]
            index.hub_frontier[h] = SparseVec.from_dense(fwd, prune=tol)
    return index
