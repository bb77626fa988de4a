"""Shared flat-hub PPV index: the machinery behind PPV-JW and GPA.

Both algorithms pre-compute, for one global hub set ``H``:

* adjusted hub partial vectors ``P_h = p_h − α·x_h``,
* skeleton columns ``s_·(h)`` (one vector per hub, value at every node),
* partial vectors ``p_u`` of every non-hub node,

and answer queries with the hubs theorem (Eq. 4):

    ``r_u = (1/α) Σ_h (s_u(h) − α·f_u(h)) · P_h + p_u``

They differ only in *where the vectors' support lives*: PPV-JW picks hubs by
PageRank, so partial vectors can span the whole graph; GPA picks hubs as a
partition separator, which confines every non-hub partial vector to its own
subgraph — the space win of Section 3.2.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.decomposition import as_view, partial_vectors, skeleton_columns
from repro.core.sparse_ops import (
    finalize_csr,
    point_matrix,
    rows_matrix,
    sparse_add,
    spgemm_scaled,
    subtract_at,
    topk_rows_sparse,
    weight_row_stats,
)
from repro.core.sparsevec import SparseVec
from repro.kernels.dispatch import KernelsLike, resolve_kernels
from repro.errors import QueryError
from repro.metrics.ranking import top_k_nodes
from repro.graph.digraph import DiGraph
from repro.graph.subgraph import VirtualSubgraph

__all__ = [
    "QueryStats",
    "FlatPPVIndex",
    "DEFAULT_BATCH",
    "BUILD_BATCH",
    "stack_columns",
    "csr_row_dense",
    "find_sorted",
    "hub_weights",
    "validate_batch",
    "run_in_batches",
    "topk_rows",
    "topk_rows_reference",
    "topk_in_batches",
    "build_vectors",
]

DEFAULT_BATCH = 256

BUILD_BATCH = 128
"""Columns one precompute solve iterates at once.  Per-column results do
not depend on how columns are grouped, so the width only bounds memory: a
solve keeps a handful of dense ``(n, batch)`` blocks alive."""


@dataclass
class QueryStats:
    """Work counters for one query — the cost-model currency.

    ``entries_processed`` counts every stored vector entry touched by an
    axpy (the float-op proxy); ``vectors_used`` counts the pre-computed
    vectors combined; ``skeleton_lookups`` counts hub-weight fetches.
    """

    entries_processed: int = 0
    vectors_used: int = 0
    skeleton_lookups: int = 0

    def merge(self, other: "QueryStats") -> None:
        self.entries_processed += other.entries_processed
        self.vectors_used += other.vectors_used
        self.skeleton_lookups += other.skeleton_lookups


def stack_columns(cols: list[SparseVec], n: int) -> sp.csc_matrix:
    """Stack sparse vectors as the columns of one ``(n, len(cols))`` CSC."""
    if not cols:
        return sp.csc_matrix((n, 0))
    return sp.csc_matrix(
        (
            np.concatenate([v.val for v in cols]),
            np.concatenate([v.idx for v in cols]),
            np.concatenate([[0], np.cumsum([v.nnz for v in cols])]),
        ),
        shape=(n, len(cols)),
    )


def csr_row_dense(csr: sp.csr_matrix, row: int) -> np.ndarray:
    """One CSR row as a dense vector (the skeleton-weight slice)."""
    lo, hi = csr.indptr[row], csr.indptr[row + 1]
    out = np.zeros(csr.shape[1])
    out[csr.indices[lo:hi]] = csr.data[lo:hi]
    return out


def find_sorted(
    haystack: np.ndarray, needles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership probe into a sorted array.

    Returns ``(rows, pos)``: ``rows`` indexes the needles present in
    ``haystack`` and ``pos`` holds every needle's insertion point, so
    ``pos[rows]`` gives the positions of the hits.  (The clip below only
    makes the equality test safe at the array end; the ``pos <`` bound
    is what rejects needles beyond the last element.)
    """
    needles = np.asarray(needles)
    pos = np.searchsorted(haystack, needles)
    if haystack.size == 0:
        return np.empty(0, dtype=np.int64), pos
    clipped = np.minimum(pos, haystack.size - 1)
    rows = np.nonzero((pos < haystack.size) & (haystack[clipped] == needles))[0]
    return rows, pos


def validate_batch(
    nodes: Sequence[int] | np.ndarray, num_nodes: int
) -> np.ndarray:
    """Normalize and range-check a ``query_many`` node batch.

    Only genuine integer ids are accepted — coercing floats would
    silently truncate ``3.7`` to node 3 and return the wrong PPV.
    """
    nodes = np.atleast_1d(np.asarray(nodes))
    if nodes.ndim != 1:
        raise QueryError("query_many expects a 1-D array of node ids")
    if nodes.size and nodes.dtype.kind not in "iu":
        raise QueryError(
            f"query_many expects integer node ids, got dtype {nodes.dtype}"
        )
    nodes = nodes.astype(np.int64, copy=False)
    if nodes.size and not (0 <= nodes.min() and nodes.max() < num_nodes):
        raise QueryError("query node out of range")
    return nodes


def run_in_batches(
    query_many_fn: Callable[[np.ndarray], tuple[np.ndarray, list[Any]]],
    nodes: np.ndarray,
    batch: int = DEFAULT_BATCH,
) -> tuple[np.ndarray, list[Any]]:
    """Evaluate a ``query_many``-style callable one ``batch`` at a time.

    Bounds the dense intermediates of the wrapped engine at
    ``batch × n`` floats per buffer; results and per-query metadata are
    concatenated transparently.  An empty batch is delegated to the
    wrapped engine so the result keeps its ``(0, n)`` shape — callers
    that concatenate rows or index columns must never see ``(0, 0)``.
    """
    if nodes.size == 0:
        out, meta = query_many_fn(nodes)
        return out, list(meta)
    outs, metas = [], []
    for lo in range(0, nodes.size, batch):
        out, meta = query_many_fn(nodes[lo : lo + batch])
        outs.append(out)
        metas.extend(meta)
    return np.vstack(outs), metas


def topk_rows(
    dense: np.ndarray,
    k: int,
    *,
    threshold: float | None = None,
    kernels: KernelsLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a ``(rows, n)`` matrix: ``(ids, scores)`` pairs.

    One batched selection over the whole chunk, preserving the
    :func:`repro.metrics.top_k_nodes` tie contract exactly (best first,
    ties by smaller id, also at the k boundary, so the result is
    deterministic even on vectors full of equal entries, e.g. pruned
    PPVs' exact zeros — :func:`topk_rows_reference` is the per-row
    oracle).  ``k`` is clamped to the row length.

    The chunk-wide evaluation: one ``argpartition`` finds each row's kth
    score; entries strictly above it are in by value, and the tied group
    at the boundary is resolved by a cumulative count over ascending
    ids — exactly the smallest tied ids fill the remaining slots.  A
    final stable sort of the k selected columns per row (descending
    score; stability keeps the ascending-id tie order) yields the
    contract ordering without any per-row Python.

    ``threshold`` drops entries with ``score <= threshold`` before the
    k-cut; the arrays keep their ``(rows, k)`` shape, with surviving
    entries as a prefix and the tail padded with id ``-1`` / score
    ``0.0``.  (Because scores are sorted descending, dropping the weak
    entries first and cutting at ``k`` leaves exactly that prefix.)
    """
    rows, n = dense.shape
    k = min(k, n)
    if k <= 0 or rows == 0:
        return (
            np.empty((rows, max(k, 0)), dtype=np.int64),
            np.empty((rows, max(k, 0))),
        )
    kern = resolve_kernels(kernels).topk_dense
    if kern is not None:
        ids, scores = kern(
            np.ascontiguousarray(dense, dtype=np.float64), k
        )
        if threshold is not None:
            dropped = scores <= threshold
            ids[dropped] = -1
            scores[dropped] = 0.0
        return ids, scores
    part = np.argpartition(-dense, k - 1, axis=1)
    kth = np.take_along_axis(dense, part[:, k - 1 : k], axis=1)
    greater = dense > kth
    num_greater = greater.sum(axis=1, keepdims=True)
    tied = dense == kth
    # Among the tied group, the smallest ids take the remaining slots.
    # (int32 cumsum: counts are bounded by n < 2^31, and the temporary is
    # the largest allocation here — half the footprint of the default.)
    take_tied = tied & (
        np.cumsum(tied, axis=1, dtype=np.int32) <= (k - num_greater)
    )
    sel = greater | take_tied  # exactly k True per row
    cols = np.nonzero(sel)[1].reshape(rows, k)  # ascending ids per row
    vals = np.take_along_axis(dense, cols, axis=1)
    order = np.argsort(-vals, axis=1, kind="stable")
    ids = np.take_along_axis(cols, order, axis=1)
    scores = np.take_along_axis(vals, order, axis=1)
    if threshold is not None:
        dropped = scores <= threshold
        ids[dropped] = -1
        scores[dropped] = 0.0
    return ids, scores


def topk_rows_reference(
    dense: np.ndarray, k: int, *, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row :func:`repro.metrics.top_k_nodes` — the pre-vectorised
    implementation, kept as the correctness oracle for :func:`topk_rows`."""
    rows, n = dense.shape
    k = min(k, n)
    if k <= 0 or rows == 0:
        return (
            np.empty((rows, max(k, 0)), dtype=np.int64),
            np.empty((rows, max(k, 0))),
        )
    ids = np.empty((rows, k), dtype=np.int64)
    scores = np.empty((rows, k))
    for r in range(rows):
        ids[r] = top_k_nodes(dense[r], k)
        scores[r] = dense[r][ids[r]]
    if threshold is not None:
        dropped = scores <= threshold
        ids[dropped] = -1
        scores[dropped] = 0.0
    return ids, scores


def topk_in_batches(
    query_many_fn: Callable[[np.ndarray], tuple[Any, list[Any]]],
    nodes: np.ndarray,
    k: int,
    num_nodes: int,
    batch: int = DEFAULT_BATCH,
    threshold: float | None = None,
    kernels: KernelsLike = None,
) -> tuple[np.ndarray, np.ndarray, list[Any]]:
    """Chunked top-k reduction over a ``query_many``-style callable.

    Evaluates ``batch`` queries at a time and reduces each chunk to its
    per-row top-k immediately, so the full ``(len(nodes), n)`` matrix
    is never materialised — only the ``(len(nodes), k)`` ids/scores and
    one chunk live at once.  This is the shared engine behind every
    index family's ``query_many_topk`` and the serving adapters for the
    distributed runtimes.  A ``query_many_fn`` returning a *sparse*
    chunk (a ``query_many_sparse`` path) is reduced with the exact
    sparse top-k instead — no dense chunk is ever built.  ``threshold``
    applies the :func:`topk_rows` score cut (``score <= threshold``
    dropped, tail padded with id ``-1`` / score ``0.0``).
    """
    if k <= 0:
        raise QueryError("k must be positive")
    k_eff = min(k, num_nodes)
    ids = np.empty((nodes.size, k_eff), dtype=np.int64)
    scores = np.empty((nodes.size, k_eff))
    metas: list[Any] = []
    step = max(1, batch)
    for lo in range(0, nodes.size, step):
        sl = slice(lo, min(lo + step, nodes.size))
        chunk, meta = query_many_fn(nodes[sl])
        reduce = topk_rows_sparse if sp.issparse(chunk) else topk_rows
        ids[sl], scores[sl] = reduce(
            chunk, k_eff, threshold=threshold, kernels=kernels
        )
        metas.extend(meta)
    return ids, scores, metas


def hub_weights(
    skel_csr: sp.csr_matrix, hubs: np.ndarray, u: int, alpha: float
) -> np.ndarray:
    """Eq. 4/Eq. 5 hub weights ``s_u(h) − α·f_u(h)`` over stacked columns.

    ``skel_csr`` holds one skeleton column per hub of ``hubs`` (any
    subset: a whole hub set, one hierarchy level, one machine's share).
    """
    weights = csr_row_dense(skel_csr, u)
    rows, pos = find_sorted(hubs, np.asarray([u]))
    if rows.size:
        weights[pos[0]] -= alpha
    return weights


@dataclass
class FlatPPVIndex:
    """Pre-computed vectors for a flat hub set (PPV-JW / GPA query side)."""

    graph: DiGraph
    alpha: float
    tol: float
    prune: float
    hubs: np.ndarray
    hub_partials: dict[int, SparseVec] = field(default_factory=dict)
    skeleton_cols: dict[int, SparseVec] = field(default_factory=dict)
    node_partials: dict[int, SparseVec] = field(default_factory=dict)
    build_cost: dict[tuple[Any, ...], float] = field(default_factory=dict)
    #: Kernel bundle / backend name the index's hot loops dispatch to
    #: (``None`` = the process default from the capability probe).
    kernels: KernelsLike = None
    _ops_cache: tuple[Any, ...] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def is_hub(self, u: int) -> bool:
        pos = np.searchsorted(self.hubs, u)
        return bool(pos < self.hubs.size and self.hubs[pos] == u)

    def invalidate_cache(self) -> None:
        """Drop the stacked-matrix cache (call after mutating the stores)."""
        self._ops_cache = None

    def _ops(self) -> tuple[Any, ...]:
        """Cached (stacked hub-partial CSC, stacked skeleton CSR, nnz/hub).

        The hub partials become the columns of one ``(n, |H|)`` CSC matrix
        and the skeleton columns one CSR matrix of the same shape, so a
        query is a skeleton-row slice plus a single ``CSC @ weights``
        product instead of a per-hub Python loop.
        """
        if self._ops_cache is None:
            n = self.graph.num_nodes
            hubs = self.hubs.tolist()
            part_csc = stack_columns([self.hub_partials[h] for h in hubs], n)
            skel_csr = stack_columns(
                [self.skeleton_cols[h] for h in hubs], n
            ).tocsr()
            self._ops_cache = (part_csc, skel_csr, np.diff(part_csc.indptr))
        return self._ops_cache

    def _hub_weights(self, u: int) -> np.ndarray:
        """Eq. 4 hub weights ``s_u(h) − α·f_u(h)`` for every hub."""
        _, skel_csr, _ = self._ops()
        return hub_weights(skel_csr, self.hubs, u, self.alpha)

    def _add_own_term(
        self, u: int, acc: np.ndarray, stats: QueryStats | None
    ) -> None:
        """The ``p_u`` base term of Eq. 4 (plus hub un-adjustment)."""
        if self.is_hub(u):
            own = self.hub_partials[u]
            own.add_into(acc)  # P_u back to p_u: re-add the α·x_u diagonal
            acc[u] += self.alpha
        else:
            own = self.node_partials[u]
            own.add_into(acc)
        if stats is not None:
            stats.entries_processed += own.nnz
            stats.vectors_used += 1

    def query(self, u: int) -> np.ndarray:
        """Exact PPV of node ``u`` (dense)."""
        vec, _ = self.query_detailed(u)
        return vec

    def query_detailed(self, u: int) -> tuple[np.ndarray, QueryStats]:
        """PPV of ``u`` plus work counters, via the vectorised fast path."""
        if not 0 <= u < self.graph.num_nodes:
            raise QueryError(f"query node {u} out of range")
        stats = QueryStats()
        if self.hubs.size:
            part_csc, _, nnz_per_hub = self._ops()
            weights = self._hub_weights(u)
            acc = part_csc @ (weights * (1.0 / self.alpha))
            used = weights != 0.0
            stats.skeleton_lookups = int(self.hubs.size)
            stats.vectors_used = int(np.count_nonzero(used))
            stats.entries_processed = int(nnz_per_hub[used].sum())
        else:
            acc = np.zeros(self.graph.num_nodes)
        self._add_own_term(u, acc, stats)
        return acc, stats

    def query_many(
        self,
        nodes: Sequence[int] | np.ndarray,
        *,
        batch: int | None = DEFAULT_BATCH,
        collect_stats: bool = True,
    ) -> tuple[np.ndarray, list[QueryStats]]:
        """Batched exact PPVs: one sparse matmul per ``batch`` queries.

        Returns a dense ``(len(nodes), n)`` matrix whose row ``k`` is the
        PPV of ``nodes[k]``, plus per-query work counters.  ``batch``
        bounds the dense intermediate at ``batch × n`` floats (``None``
        processes the whole request in one product).
        ``collect_stats=False`` skips the per-query counter bookkeeping
        (the serving hot path) and returns an empty metadata list; the
        result matrix is identical.
        """
        n = self.graph.num_nodes
        nodes = validate_batch(nodes, n)
        out = np.zeros((nodes.size, n))
        stats = [QueryStats() for _ in range(nodes.size)] if collect_stats else []
        if nodes.size == 0:
            return out, stats
        step = nodes.size if batch is None else max(1, batch)
        inv_alpha = 1.0 / self.alpha
        part_csc, skel_csr, nnz_per_hub = self._ops()
        for lo in range(0, nodes.size, step):
            sl = slice(lo, min(lo + step, nodes.size))
            chunk = nodes[sl]
            if self.hubs.size:
                weights = skel_csr[chunk].toarray()
                hub_rows, pos = find_sorted(self.hubs, chunk)
                weights[hub_rows, pos[hub_rows]] -= self.alpha
                out[sl] = (part_csc @ (weights.T * inv_alpha)).T
                if collect_stats:
                    used = weights != 0.0
                    counts = used.sum(axis=1)
                    entries = used.astype(np.int64) @ nnz_per_hub
                    for k in range(chunk.size):
                        s = stats[lo + k]
                        s.skeleton_lookups = int(self.hubs.size)
                        s.vectors_used = int(counts[k])
                        s.entries_processed = int(entries[k])
            for k, u in enumerate(chunk.tolist()):
                self._add_own_term(
                    u, out[lo + k], stats[lo + k] if collect_stats else None
                )
        return out, stats

    def query_many_sparse(
        self,
        nodes: Sequence[int] | np.ndarray,
        *,
        batch: int | None = DEFAULT_BATCH,
        collect_stats: bool = True,
    ) -> tuple[sp.csr_matrix, list[QueryStats]]:
        """Batched exact PPVs as a CSR ``(len(nodes), n)`` matrix.

        The sparse twin of :meth:`query_many`: the hub combination is a
        sparse×sparse product (``part_csc @ sparse_weights``) and own
        terms are sparse row adds, so no ``batch × n`` dense
        intermediate ever exists — on pruned indexes the peak footprint
        is proportional to the result's true support.  Agrees with the
        dense path exactly (``toarray()`` equality; same accumulation
        order, see :mod:`repro.core.sparse_ops`).  Work counters match
        the dense path except ``skeleton_lookups``, which charges the
        actual nnz skeleton entries this path reads rather than the full
        hub-set scan of the dense path.
        """
        n = self.graph.num_nodes
        nodes = validate_batch(nodes, n)
        stats = [QueryStats() for _ in range(nodes.size)] if collect_stats else []
        if nodes.size == 0:
            return sp.csr_matrix((0, n)), stats
        step = nodes.size if batch is None else max(1, batch)
        inv_alpha = 1.0 / self.alpha
        part_csc, skel_csr, nnz_per_hub = self._ops()
        chunks = []
        for lo in range(0, nodes.size, step):
            sl = slice(lo, min(lo + step, nodes.size))
            chunk = nodes[sl]
            if self.hubs.size:
                raw = skel_csr[chunk]
                hub_rows, pos = find_sorted(self.hubs, chunk)
                weights = subtract_at(raw, hub_rows, pos[hub_rows], self.alpha)
                level = spgemm_scaled(
                    part_csc, weights, inv_alpha, kernels=self.kernels
                )
                rows = level.T.tocsr()
                if collect_stats:
                    counts, entries = weight_row_stats(weights, nnz_per_hub)
                    # Sparse-aware accounting: this path never touches the
                    # zero skeleton weights, so charge each query its
                    # actual nnz skeleton lookups — the dense path scans
                    # (and is charged) the full hub set.
                    looked = np.diff(raw.indptr)
                    for k in range(chunk.size):
                        s = stats[lo + k]
                        s.skeleton_lookups = int(looked[k])
                        s.vectors_used = int(counts[k])
                        s.entries_processed = int(entries[k])
            else:
                rows = sp.csr_matrix((chunk.size, n))
            own, alpha_pts = self._own_term_matrix(
                chunk, stats[sl] if collect_stats else None
            )
            rows = sparse_add(rows, own, kernels=self.kernels)
            if alpha_pts is not None:
                rows = sparse_add(rows, alpha_pts, kernels=self.kernels)
            chunks.append(rows)
        out = chunks[0] if len(chunks) == 1 else sp.vstack(chunks, format="csr")
        return finalize_csr(out, (nodes.size, n)), stats

    def _own_term_matrix(
        self, chunk: np.ndarray, stats: list[QueryStats] | None
    ) -> tuple[sp.csr_matrix, sp.csr_matrix | None]:
        """Sparse own-term rows of a chunk plus the hub ``+α`` points.

        The α un-adjustment is a *separate* matrix so the per-entry
        addition order matches the dense path exactly:
        ``(matmul + own) + α``, never ``matmul + (own + α)``.
        """
        n = self.graph.num_nodes
        vecs: list[SparseVec] = []
        alpha_rows: list[int] = []
        alpha_cols: list[int] = []
        for k, u in enumerate(chunk.tolist()):
            if self.is_hub(u):
                own = self.hub_partials[u]
                alpha_rows.append(k)
                alpha_cols.append(u)
            else:
                own = self.node_partials[u]
            vecs.append(own)
            if stats is not None:
                stats[k].entries_processed += own.nnz
                stats[k].vectors_used += 1
        own_mat = rows_matrix(vecs, n)
        alpha_pts = None
        if alpha_rows:
            alpha_pts = point_matrix(
                np.asarray(alpha_rows),
                np.asarray(alpha_cols),
                np.full(len(alpha_rows), self.alpha),
                (chunk.size, n),
            )
        return own_mat, alpha_pts

    def query_topk(
        self, u: int, k: int, *, threshold: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of the exact PPV of ``u``: ``(ids, scores)``, best first.

        Ties break by smaller id (the :func:`repro.metrics.top_k_nodes`
        order); ``k`` larger than the graph returns all ``n`` nodes.
        ``threshold`` drops entries with ``score <= threshold`` before the
        k-cut (tail padded with id ``-1`` / score ``0.0``).
        """
        ids, scores, _ = self.query_many_topk(
            np.asarray([u]), k, threshold=threshold
        )
        return ids[0], scores[0]

    def query_many_topk(
        self,
        nodes: Sequence[int] | np.ndarray,
        k: int,
        *,
        batch: int = DEFAULT_BATCH,
        threshold: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, list[QueryStats]]:
        """Batched top-``k`` queries without materialising full PPVs.

        Returns ``(ids, scores, stats)`` where ``ids``/``scores`` are
        ``(len(nodes), min(k, n))`` arrays, row ``j`` holding the best-k
        entries of ``nodes[j]``'s PPV.  Dense intermediates are bounded at
        one ``(batch, n)`` chunk — the full ``(len(nodes), n)`` matrix of
        :meth:`query_many` is never built.  ``threshold`` applies the
        :func:`topk_rows` score cut per row.
        """
        n = self.graph.num_nodes
        nodes = validate_batch(nodes, n)
        return topk_in_batches(
            lambda chunk: self.query_many(chunk, batch=None),
            nodes,
            k,
            n,
            batch,
            threshold,
            kernels=self.kernels,
        )

    def query_reference(self, u: int) -> tuple[np.ndarray, QueryStats]:
        """Eq. 4 evaluated hub-by-hub — the pre-vectorisation reference.

        Kept as the correctness oracle for the fast path and as the
        baseline the batch-query benchmark measures against.
        """
        if not 0 <= u < self.graph.num_nodes:
            raise QueryError(f"query node {u} out of range")
        acc = np.zeros(self.graph.num_nodes)
        stats = QueryStats()
        inv_alpha = 1.0 / self.alpha
        for h in self.hubs.tolist():
            weight = self.skeleton_cols[h].get(u)
            stats.skeleton_lookups += 1
            if h == u:
                weight -= self.alpha  # the f_u(h) adjustment of Eq. 4
            if weight == 0.0:
                continue
            part = self.hub_partials[h]
            part.add_into(acc, weight * inv_alpha)
            stats.entries_processed += part.nnz
            stats.vectors_used += 1
        self._add_own_term(u, acc, stats)
        return acc, stats

    # ------------------------------------------------------------------
    def space_report(self) -> dict[str, int]:
        """Wire bytes of the stored vectors, by category."""
        return {
            "hub_partials": sum(v.wire_bytes for v in self.hub_partials.values()),
            "skeleton": sum(v.wire_bytes for v in self.skeleton_cols.values()),
            "node_partials": sum(v.wire_bytes for v in self.node_partials.values()),
        }

    def total_bytes(self) -> int:
        return sum(self.space_report().values())

    def total_nnz(self) -> int:
        stores = (self.hub_partials, self.skeleton_cols, self.node_partials)
        return sum(v.nnz for store in stores for v in store.values())


def build_vectors(
    index: Any,
    kind: str,
    store: dict[int, SparseVec],
    view: VirtualSubgraph,
    sources: np.ndarray,
    hub_local: np.ndarray | None = None,
    *,
    adjust: bool = False,
    batch: int = BUILD_BATCH,
) -> None:
    """Solve, sparsify and store one vector per node of ``sources`` on ``view``.

    The one precompute loop of every index family (an object with
    ``alpha``/``tol``/``prune``/``kernels``/``build_cost``), full builds
    and incremental updates alike.  Without ``hub_local`` the vectors are
    skeleton columns ``s_·(h)``; with it, partial vectors blocked by those
    local hub ids (empty = full local PPVs), stored as ``P_h = p_h − α·x_h``
    when ``adjust``.  Each goes to ``store[u]`` with its share of the solve
    time under ``index.build_cost[(kind, u)]``.  Solvers run in per-column
    convergence mode, so the vectors are independent of ``batch`` —
    recomputing any subset reproduces a full rebuild exactly.
    """
    local = np.asarray(view.to_local(sources), dtype=np.int64)
    for lo in range(0, sources.size, batch):
        chunk = local[lo : lo + batch]
        t0 = time.perf_counter()
        if hub_local is None:
            cols = skeleton_columns(
                view, chunk, alpha=index.alpha, tol=index.tol, per_column=True
            )
        else:
            cols, _ = partial_vectors(
                view, hub_local, chunk,
                alpha=index.alpha, tol=index.tol, per_column=True,
                kernels=index.kernels,
            )
        per_col = (time.perf_counter() - t0) / chunk.size
        if adjust:
            cols[chunk, np.arange(chunk.size)] -= index.alpha
        for j, u in enumerate(sources[lo : lo + batch].tolist()):
            col = cols[:, j]
            keep = np.nonzero(np.abs(col) > index.prune)[0]
            store[u] = SparseVec(view.nodes[keep], col[keep], _trusted=True)
            index.build_cost[(kind, u)] = per_col


def full_view(graph: DiGraph) -> VirtualSubgraph:
    """The whole graph as a view (identity local/global mapping)."""
    return as_view(graph)
