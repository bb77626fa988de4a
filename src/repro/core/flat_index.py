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

import ctypes
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.core.decomposition import as_view, partial_vectors, skeleton_columns
from repro.core.sparse_ops import (
    _select_topk,
    _span_candidates,
    _threshold_cut,
    finalize_csr,
    point_matrix,
    sparse_add,
    spgemm_scaled,
    subtract_at,
    topk_rows_sparse,
    weight_row_stats,
)
from repro.core.sparsevec import SparseVec
from repro.core.stacked import rows_matrix, stack_columns
from repro.errors import QueryError, ServingError
from repro.metrics.ranking import top_k_nodes
from repro.graph.digraph import DiGraph
from repro.graph.subgraph import VirtualSubgraph

if TYPE_CHECKING:
    from repro.core.updates import EdgeUpdate, UpdateReceipt

__all__ = [
    "QueryStats",
    "StackedOps",
    "OwnLookup",
    "HubShare",
    "FlatShare",
    "FlatPPVIndex",
    "Servable",
    "DEFAULT_BATCH",
    "BUILD_BATCH",
    "stack_ops",
    "query_stats",
    "csr_row_dense",
    "find_sorted",
    "validate_batch",
    "run_in_batches",
    "topk_rows",
    "topk_rows_reference",
    "topk_in_batches",
    "Solve",
    "run_solves",
    "flat_solves",
]

DEFAULT_BATCH = 256

SOLVER_THREADS = 2
"""Threads one :func:`run_solves` call solves on."""

BUILD_BATCH = 128
"""Precompute columns in flight.  :func:`run_solves` keeps one chunk of
``BUILD_BATCH // SOLVER_THREADS`` (64) columns in flight on each of its
``SOLVER_THREADS`` (2) threads, so live solver memory is what one
128-column solve held: a handful of dense ``(n, 64)`` blocks per thread.
Columns do not depend on their grouping, so the width only bounds memory."""

_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc only
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int


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
    dense: np.ndarray, k: int, *, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a ``(rows, n)`` matrix: ``(ids, scores)`` pairs.

    One batched selection over the whole chunk, preserving the
    :func:`repro.metrics.top_k_nodes` tie contract exactly (best first,
    ties by smaller id, also at the k boundary — :func:`topk_rows_reference`
    is the per-row oracle).  ``k`` is clamped to the row length.

    Each row is cut into spans of ``TOPK_SPAN`` (32) columns, and its
    *floor* is the kth largest span maximum, a lower bound on its kth
    score.  The candidates are the entries at or above the floor — a few
    dozen per PPV row, every boundary tie included — and one ``lexsort``
    by ``(row, −score, id)`` takes each row's first k of them.

    ``threshold`` drops entries with ``score <= threshold``; the arrays
    keep their ``(rows, k)`` shape, with surviving entries as a prefix and
    the tail padded with id ``-1`` / score ``0.0``.
    """
    rows, n = dense.shape
    k = max(0, min(k, n))
    vals = dense.ravel()
    row, pos = _span_candidates(vals, np.arange(rows + 1) * n, k)
    return _select_topk((rows, k), (row, pos - row * n, vals[pos]), threshold)


def topk_rows_reference(
    dense: np.ndarray, k: int, *, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row :func:`repro.metrics.top_k_nodes` — the pre-vectorised
    implementation, kept as the correctness oracle for :func:`topk_rows`."""
    rows, n = dense.shape
    k = max(0, min(k, n))
    ids = np.empty((rows, k), dtype=np.int64)
    scores = np.empty((rows, k))
    for r in range(rows):
        ids[r] = top_k_nodes(dense[r], k)
        scores[r] = dense[r][ids[r]]
    return _threshold_cut(ids, scores, threshold)


def topk_in_batches(
    query_many_fn: Callable[[np.ndarray], tuple[Any, list[Any]]],
    nodes: np.ndarray,
    k: int,
    num_nodes: int,
    batch: int = DEFAULT_BATCH,
    threshold: float | None = None,
) -> tuple[np.ndarray, np.ndarray, list[Any]]:
    """Chunked top-k reduction over a ``query_many``-style callable.

    Evaluates ``batch`` queries at a time and cuts each chunk to its
    per-row top-k at once — :func:`topk_rows`, or :func:`topk_rows_sparse`
    for a CSR chunk, both selecting among span-floor candidates — so only
    one chunk and the ``(len(nodes), k)`` ids/scores ever live.  This is
    every engine's ``query_many_topk`` and each shard's top-k;
    ``threshold`` applies the :func:`topk_rows` score cut.
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
        ids[sl], scores[sl] = reduce(chunk, k_eff, threshold=threshold)
        metas.extend(meta)
    return ids, scores, metas


class Servable:
    """The read surface every engine serves through, written once.

    An engine — an index family, FastPPV, a distributed runtime — supplies
    one body, ``_rows(nodes, *, sparse, collect_stats)``, mapping a node
    batch to ``(rows, metadata)``: a ``(len(nodes), n)`` dense array or
    canonical CSR (``toarray()`` equal to the dense rows), plus per-query
    stats when ``collect_stats`` (else ``[]``).  The batch verbs and top-k
    (a reduction of those rows, chunk by chunk) follow from it.
    ``num_nodes`` is the graph's node count; a runtime carries its own.
    """

    graph: DiGraph

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def _rows(
        self, nodes: Sequence[int] | np.ndarray, *, sparse: bool, collect_stats: bool
    ) -> tuple[Any, list[Any]]:
        raise NotImplementedError

    def query_many(
        self, nodes: Sequence[int] | np.ndarray, *, collect_stats: bool = True
    ) -> tuple[np.ndarray, list[Any]]:
        """Batched PPVs: row ``k`` of the dense ``(len(nodes), n)`` matrix
        answers ``nodes[k]``, plus per-query stats (``collect_stats=False``
        — the serving path — returns ``[]`` and the same matrix)."""
        return self._rows(nodes, sparse=False, collect_stats=collect_stats)

    def query_many_sparse(
        self, nodes: Sequence[int] | np.ndarray, *, collect_stats: bool = True
    ) -> tuple[sp.csr_matrix, list[Any]]:
        """:meth:`query_many` as a CSR ``(len(nodes), n)`` matrix, equal to
        the dense rows exactly.  Stats follow the engine's sparse body
        (an exact index charges ``skeleton_lookups`` by the stored
        skeleton entries it reads, not the full hub-set scan)."""
        return self._rows(nodes, sparse=True, collect_stats=collect_stats)

    def query_topk(
        self, u: int, k: int, *, threshold: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of the PPV of ``u``: ``(ids, scores)``, best first,
        ties by smaller id; ``k`` larger than the graph returns all ``n``
        nodes.  ``threshold`` drops entries with ``score <= threshold``
        before the k-cut (tail padded with id ``-1`` / score ``0.0``)."""
        ids, scores, _ = self.query_many_topk(
            np.asarray([u]), k, threshold=threshold, collect_stats=False
        )
        return ids[0], scores[0]

    def query_many_topk(
        self,
        nodes: Sequence[int] | np.ndarray,
        k: int,
        *,
        batch: int = DEFAULT_BATCH,
        threshold: float | None = None,
        collect_stats: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, list[Any]]:
        """Batched top-``k`` without materialising full PPVs: ``(ids,
        scores, stats)``, ``(len(nodes), min(k, n))`` arrays whose row
        ``j`` holds the best-k entries of ``nodes[j]``'s PPV.  Each
        ``batch``-row chunk of :meth:`query_many` is reduced by
        :func:`topk_rows` (``threshold`` applies its score cut) before the
        next is evaluated, so one ``(batch, n)`` block is the peak."""
        nodes = validate_batch(nodes, self.num_nodes)
        return topk_in_batches(
            lambda chunk: self.query_many(chunk, collect_stats=collect_stats),
            nodes,
            k,
            self.num_nodes,
            batch,
            threshold,
        )

    def updated(self, update: EdgeUpdate) -> tuple[Servable, UpdateReceipt]:
        """The engine after ``update`` and its receipt: an exact index
        answers with its functional successor, a runtime with itself,
        redeployed in place.  Engines without an update path raise."""
        raise ServingError(
            f"{type(self).__name__} cannot apply incremental edge updates"
        )


StackedOps = tuple[np.ndarray, sp.csc_matrix, sp.csr_matrix, np.ndarray]
"""``(owned hubs, stacked partial CSC, stacked skeleton CSR, nnz per hub)``:
the hub partials of ``owned`` as the columns of one ``(n, |owned|)`` CSC and
their skeleton columns as one CSR of the same shape, so a hub combination is
a skeleton-row slice plus one ``CSC @ weights`` product."""

OwnLookup = Callable[[bool, int], SparseVec | None]
"""``own(is_hub, u)``: the query node's own vector (``P_u`` for a hub, the
node partial / leaf PPV otherwise), or ``None`` where this share does not
hold it."""


def stack_ops(
    hubs: np.ndarray,
    hub_partials: dict[int, SparseVec],
    skeleton_cols: dict[int, SparseVec],
    n: int,
) -> StackedOps:
    """Stack the vectors of ``hubs`` (sorted) into one ops tuple."""
    ids = hubs.tolist()
    part_csc = stack_columns([hub_partials[h] for h in ids], n)
    skel_csr = stack_columns([skeleton_cols[h] for h in ids], n).tocsr()
    return hubs, part_csc, skel_csr, np.diff(part_csc.indptr)


def query_stats(counters: np.ndarray | None) -> list[QueryStats]:
    """Per-query :class:`QueryStats` from a share's ``(3, batch)`` counter
    block (rows in field order); ``None`` — stats not collected — is ``[]``."""
    if counters is None:
        return []
    return [QueryStats(*column) for column in counters.T.tolist()]


class HubShare:
    """One share of an index family's hub sum: the read side of Eq. 4 / Eq. 6.

    The distributed query (Eq. 5, Theorem 4) is the centralized one with
    the hub sum split across machines, so there is one evaluator per
    family and every caller is a share of it: the index owns every hub
    and every own vector, a machine owns a slice, and a share's rows sum
    over the shares to the index's rows.  Subclasses supply ``row``, the
    algebra for one node (a skeleton-row slice and one ``CSC @ vector``
    product), and a ``sparse`` batch body; they may supply a ``dense``
    one, which otherwise is :meth:`loop`.  A batch body maps a node batch
    to ``(rows, counters)``: the share's ``(batch, n)`` result block in
    query order — a C-contiguous array, or a CSR that never densifies —
    and, when ``collect_stats``, a ``(3, batch)`` int64 block of
    ``entries_processed`` / ``vectors_used`` / ``skeleton_lookups`` (else
    ``None``).  The two forms agree bitwise, and the caller's requested
    result form picks.  Batches under ``ROW_LOOP_BELOW`` rows, a measured
    per-family threshold, run :meth:`loop` in either form.
    """

    ROW_LOOP_BELOW = 2  # only one-row reads; see benchmarks/bench_batch_rows.py

    def __init__(self, num_nodes: int, own: OwnLookup, alpha: float) -> None:
        self.num_nodes = int(num_nodes)
        self.own = own
        self.alpha = alpha
        self.inv_alpha = 1.0 / alpha

    def row(
        self, u: int, collect_stats: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """This share of one query: the dense ``n``-vector and, when
        ``collect_stats``, four int64 counters — the three ``dense``
        reports for the node, then the stored skeleton entries read,
        which is what ``sparse`` charges as its lookups."""
        raise NotImplementedError

    def loop(
        self, nodes: np.ndarray, sparse: bool, collect_stats: bool
    ) -> tuple[Any, np.ndarray | None]:
        """:meth:`row` per node, stacked into the requested form (dense
        rows land in one preallocated block) — the bodies' bits and
        counters without their fixed cost."""
        n = self.num_nodes
        counters = self._counters(nodes.size, collect_stats)
        picked = [0, 1, 3 if sparse else 2]
        out: Any = None if sparse else np.empty((nodes.size, n))
        vecs: list[SparseVec] = []
        for k, u in enumerate(nodes.tolist()):
            vec, row_counters = self.row(u, collect_stats)
            if sparse:
                vecs.append(SparseVec.from_dense(vec))
            else:
                out[k] = vec
            if counters is not None and row_counters is not None:
                counters[:, k] = row_counters[picked]
        return (rows_matrix(vecs, n) if sparse else out), counters

    def dense(
        self, nodes: np.ndarray, collect_stats: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        return self.loop(nodes, False, collect_stats)

    def sparse(
        self, nodes: np.ndarray, collect_stats: bool
    ) -> tuple[sp.csr_matrix, np.ndarray | None]:
        raise NotImplementedError

    def evaluate(
        self,
        nodes: Sequence[int] | np.ndarray,
        *,
        sparse: bool,
        collect_stats: bool,
    ) -> tuple[Any, np.ndarray | None]:
        """Validate, evaluate ``DEFAULT_BATCH`` queries at a time (which
        bounds the intermediates at that many ``n``-float rows per
        buffer), stack the rows.

        A sparse result is canonical: sorted, explicit zeros dropped.
        Fewer than ``ROW_LOOP_BELOW`` nodes run :meth:`loop`.
        """
        n = self.num_nodes
        nodes = validate_batch(nodes, n)
        if 0 < nodes.size < self.ROW_LOOP_BELOW:
            return self.loop(nodes, sparse, collect_stats)
        body = self.sparse if sparse else self.dense
        step = DEFAULT_BATCH
        out: Any
        counters: np.ndarray | None
        if nodes.size <= step:
            out, counters = body(nodes, collect_stats)
        else:
            # Dense chunks land in one preallocated result: the peak is
            # one result plus one chunk, not two results.
            out = None if sparse else np.empty((nodes.size, n))
            parts: list[sp.csr_matrix] = []
            counted: list[np.ndarray] = []
            for lo in range(0, nodes.size, step):
                rows, chunk_counters = body(nodes[lo : lo + step], collect_stats)
                if sparse:
                    parts.append(rows)
                else:
                    out[lo : lo + step] = rows
                if chunk_counters is not None:
                    counted.append(chunk_counters)
            if sparse:
                out = sp.vstack(parts, format="csr")
            counters = np.concatenate(counted, axis=1) if counted else None
        if sparse:
            out = finalize_csr(out, (nodes.size, n))
        return out, counters

    def _counters(self, size: int, collect_stats: bool) -> np.ndarray | None:
        return np.zeros((3, size), dtype=np.int64) if collect_stats else None

    def _own_vectors(
        self,
        nodes: np.ndarray,
        hub_flags: np.ndarray,
        counters: np.ndarray | None,
    ) -> Iterator[SparseVec | None]:
        """The batch's own vectors this share holds, counted, in order."""
        for k, (hub, u) in enumerate(zip(hub_flags.tolist(), nodes.tolist())):
            vec = self.own(hub, u)
            if vec is not None and counters is not None:
                counters[0, k] += vec.nnz
                counters[1, k] += 1
            yield vec

    def _add_own_row(
        self, acc: np.ndarray, u: int, hub: bool, counters: np.ndarray | None
    ) -> None:
        """:meth:`_add_own_dense` for one query."""
        vec = self.own(hub, u)
        if vec is not None:
            vec.add_into(acc)
            if hub:
                acc[u] += self.alpha
            if counters is not None:
                counters[0] += vec.nnz
                counters[1] += 1

    def _add_own_dense(
        self,
        out: np.ndarray,
        nodes: np.ndarray,
        hub_flags: np.ndarray,
        counters: np.ndarray | None,
    ) -> None:
        """The base term: ``p_u``, with ``P_u`` un-adjusted by ``+α·x_u``."""
        for k, vec in enumerate(self._own_vectors(nodes, hub_flags, counters)):
            if vec is not None:
                vec.add_into(out[k])
                if hub_flags[k]:
                    out[k, nodes[k]] += self.alpha

    def _own_sparse(
        self,
        nodes: np.ndarray,
        hub_flags: np.ndarray,
        counters: np.ndarray | None,
    ) -> tuple[sp.csr_matrix, sp.csr_matrix | None]:
        """Sparse base term: own-vector rows plus the hub ``+α`` points.

        The α un-adjustment is a *separate* matrix so the per-entry
        addition order matches the dense path exactly:
        ``(matmul + own) + α``, never ``matmul + (own + α)``.
        """
        vecs = list(self._own_vectors(nodes, hub_flags, counters))
        held = np.asarray([vec is not None for vec in vecs], dtype=bool)
        hub_rows = np.nonzero(held & hub_flags)[0]
        alpha_pts = None
        if hub_rows.size:
            alpha_pts = point_matrix(
                hub_rows,
                nodes[hub_rows],
                np.full(hub_rows.size, self.alpha),
                (nodes.size, self.num_nodes),
            )
        return rows_matrix(vecs, self.num_nodes), alpha_pts


class FlatShare(HubShare):
    """Eq. 4 over the hubs of ``ops``; ``all_hubs`` is the global hub set
    (a query node that is someone else's hub still has no node partial)."""

    def __init__(
        self,
        ops: StackedOps,
        all_hubs: np.ndarray,
        own: OwnLookup,
        alpha: float,
    ) -> None:
        super().__init__(ops[1].shape[0], own, alpha)
        self.ops = ops
        self.all_hubs = all_hubs

    def _hub_flags(self, nodes: np.ndarray) -> np.ndarray:
        flags = np.zeros(nodes.size, dtype=bool)
        flags[find_sorted(self.all_hubs, nodes)[0]] = True
        return flags

    def row(
        self, u: int, collect_stats: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        owned, part_csc, skel_csr, nnz_per_hub = self.ops
        counters = np.zeros(4, dtype=np.int64) if collect_stats else None
        one = np.asarray([u])
        if owned.size:
            weights = csr_row_dense(skel_csr, u)
            hits, pos = find_sorted(owned, one)
            if hits.size:
                weights[pos[0]] -= self.alpha  # the f_u(h) adjustment
            acc = part_csc @ (weights * self.inv_alpha)
            if counters is not None:
                used = weights != 0.0
                counters[0] = nnz_per_hub[used].sum()
                counters[1] = np.count_nonzero(used)
                counters[2] = owned.size
                counters[3] = skel_csr.indptr[u + 1] - skel_csr.indptr[u]
        else:
            acc = np.zeros(self.num_nodes)
        hub = bool(find_sorted(self.all_hubs, one)[0].size)
        self._add_own_row(acc, u, hub, counters)
        return acc, counters

    def dense(
        self, nodes: np.ndarray, collect_stats: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        owned, part_csc, skel_csr, nnz_per_hub = self.ops
        counters = self._counters(nodes.size, collect_stats)
        out = np.zeros((nodes.size, self.num_nodes))
        if owned.size and nodes.size:
            weights = skel_csr[nodes].toarray()
            hub_rows, pos = find_sorted(owned, nodes)
            weights[hub_rows, pos[hub_rows]] -= self.alpha
            out[:] = (part_csc @ (weights.T * self.inv_alpha)).T
            if counters is not None:
                used = weights != 0.0
                counters[0] = used.astype(np.int64) @ nnz_per_hub
                counters[1] = used.sum(axis=1)
                counters[2] = owned.size
        self._add_own_dense(out, nodes, self._hub_flags(nodes), counters)
        return out, counters

    def sparse(
        self, nodes: np.ndarray, collect_stats: bool
    ) -> tuple[sp.csr_matrix, np.ndarray | None]:
        owned, part_csc, skel_csr, nnz_per_hub = self.ops
        counters = self._counters(nodes.size, collect_stats)
        if owned.size and nodes.size:
            raw = skel_csr[nodes]
            hub_rows, pos = find_sorted(owned, nodes)
            weights = subtract_at(raw, hub_rows, pos[hub_rows], self.alpha)
            out = spgemm_scaled(part_csc, weights, self.inv_alpha).T.tocsr()
            if counters is not None:
                counters[1], counters[0] = weight_row_stats(weights, nnz_per_hub)
                # Sparse-aware accounting: this path never touches the
                # zero skeleton weights, so charge each query its actual
                # nnz skeleton lookups — the dense path scans (and is
                # charged) the full hub set.
                counters[2] = np.diff(raw.indptr)
        else:
            out = sp.csr_matrix((nodes.size, self.num_nodes))
        own, alpha_pts = self._own_sparse(nodes, self._hub_flags(nodes), counters)
        out = sparse_add(out, own)
        if alpha_pts is not None:
            out = sparse_add(out, alpha_pts)
        return out, counters


@dataclass
class FlatPPVIndex(Servable):
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
    _ops_cache: FlatShare | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def is_hub(self, u: int) -> bool:
        pos = np.searchsorted(self.hubs, u)
        return bool(pos < self.hubs.size and self.hubs[pos] == u)

    def invalidate_cache(self) -> None:
        """Drop the stacked-matrix cache (call after mutating the stores)."""
        self._ops_cache = None

    def _share(self) -> FlatShare:
        """The cached evaluator over the whole hub set: the index is the
        one-machine deployment, owning every hub and every own vector.

        Built with the stacked ops on first use; the own lookup closes
        over the stores, not the index, so the cache is no reference
        cycle.
        """
        share = self._ops_cache
        if share is None:
            hub_store, node_store = self.hub_partials, self.node_partials
            share = self._ops_cache = FlatShare(
                stack_ops(
                    self.hubs,
                    hub_store,
                    self.skeleton_cols,
                    self.graph.num_nodes,
                ),
                self.hubs,
                lambda hub, u: (hub_store if hub else node_store)[u],
                self.alpha,
            )
        return share

    def _ops(self) -> tuple[sp.csc_matrix, sp.csr_matrix, np.ndarray]:
        """Cached (stacked hub-partial CSC, stacked skeleton CSR, nnz/hub)."""
        return self._share().ops[1:]

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
        acc, counters = self._share().row(u, True)
        assert counters is not None
        return acc, QueryStats(*counters[:3].tolist())

    def _rows(
        self, nodes: Sequence[int] | np.ndarray, *, sparse: bool, collect_stats: bool
    ) -> tuple[Any, list[QueryStats]]:
        """Eq. 4 for a batch: one sparse matmul per ``DEFAULT_BATCH``
        queries, dense or sparse×sparse (no ``batch × n`` dense
        intermediate; on pruned indexes the peak follows the result's
        support), see :meth:`HubShare.evaluate`."""
        out, counters = self._share().evaluate(
            nodes, sparse=sparse, collect_stats=collect_stats
        )
        return out, query_stats(counters)

    def updated(self, update: EdgeUpdate) -> tuple[Servable, UpdateReceipt]:
        from repro.core.updates import apply_edge_update

        return apply_edge_update(self, update)

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


class Solve(NamedTuple):
    """A vector per node of ``sources``, solved on ``view`` into ``store``:
    skeleton columns without ``hub_local``, else partial vectors blocked
    by those local hub ids (empty = local PPVs), stored as
    ``P_h = p_h − α·x_h`` when ``adjust``."""

    kind: str
    store: dict[int, SparseVec]
    view: VirtualSubgraph
    sources: np.ndarray
    hub_local: np.ndarray | None = None
    adjust: bool = False


def _solve_chunk(
    index: Any, solve: Solve, sources: np.ndarray
) -> tuple[np.ndarray, float]:
    """The columns of ``sources`` and each one's thread CPU seconds."""
    view, alpha, tol = solve.view, index.alpha, index.tol
    chunk = np.asarray(view.to_local(sources), dtype=np.int64)
    t0 = time.thread_time()
    if solve.hub_local is None:
        cols = skeleton_columns(view, chunk, alpha=alpha, tol=tol, per_column=True)
    else:
        cols = partial_vectors(
            view, solve.hub_local, chunk, alpha=alpha, tol=tol, per_column=True
        )[0]
    per_col = (time.thread_time() - t0) / chunk.size
    if solve.adjust:
        cols[chunk, np.arange(chunk.size)] -= index.alpha
    return cols, per_col


def run_solves(index: Any, solves: Sequence[Solve], batch: int = BUILD_BATCH) -> None:
    """Run one build's or update's plan on ``SOLVER_THREADS`` threads,
    storing every vector strictly in plan order.

    The one precompute loop of every index family (an object with
    ``alpha``/``tol``/``prune``/``build_cost``).  Each solve is cut into
    chunks of ``batch // SOLVER_THREADS`` columns, one chunk per thread in
    flight: the sparse products and ufuncs release the GIL for most of
    their work.  Columns converge one by one, so no vector depends on the
    chunks or the threads; recomputing any subset reproduces a full
    rebuild exactly.  ``build_cost[(kind, u)]`` is ``u``'s share of its
    chunk's thread CPU seconds: one solve's cost, whatever ran beside it.
    The executor lives for this call only: no thread outlives a plan, and
    a forked pool worker inherits none.
    """
    width = max(1, batch // SOLVER_THREADS)
    if _mallopt is not None:
        # One malloc arena for all threads: serving reuses what solves free, as
        # with one thread (own arenas put e2e process_fanout peak RSS 17-33% up).
        _mallopt(-8, 1)  # M_ARENA_MAX
    for s in solves:  # lazy operators, built before two threads race for one
        if s.sources.size:
            (s.view.transition if s.hub_local is None else s.view.transition_T)()

    def store(solve: Solve, sources: np.ndarray, future: Future[Any]) -> None:
        cols, per_col = future.result()
        for u, col in zip(sources.tolist(), cols.T):
            keep = np.nonzero(np.abs(col) > index.prune)[0]
            solve.store[u] = SparseVec(solve.view.nodes[keep], col[keep], _trusted=True)
            index.build_cost[(solve.kind, u)] = per_col

    with ThreadPoolExecutor(SOLVER_THREADS) as pool:
        pending: deque[tuple[Solve, np.ndarray, Future[Any]]] = deque()
        for s in solves:
            for lo in range(0, s.sources.size, width):
                part = s.sources[lo : lo + width]
                pending.append((s, part, pool.submit(_solve_chunk, index, s, part)))
                if len(pending) == SOLVER_THREADS:
                    store(*pending.popleft())
        for item in pending:
            store(*item)
    # glibc's mmap threshold rises to the largest block freed; a one-thread
    # solve of ``batch`` columns left it there, keeping MB-sized serving blocks
    # off mmap (below it e2e distributed_wire page-faulted ~500 000 times a
    # run, qps 0.6-0.85x).  One untouched block puts it back at no RSS.
    np.empty(max([s.view.num_nodes * min(s.sources.size, batch) for s in solves] + [0]))


def flat_solves(
    index: FlatPPVIndex, hub_src: np.ndarray, skel_src: np.ndarray, part_src: np.ndarray
) -> list[Solve]:
    """The plan that (re)solves these hub partials, skeleton columns and
    node partials of a flat index: a build is an update in which every
    source is stale.  A GPA part's node partials are local PPVs of its
    virtual subgraph extended with the blocking hubs (Theorem 2); every
    other vector lives on the whole graph.
    """
    graph, hubs = index.graph, index.hubs
    whole = as_view(graph)
    solves = [
        Solve("hub", index.hub_partials, whole, hub_src, hubs, True),
        Solve("skel", index.skeleton_cols, whole, skel_src),
    ]
    partition = getattr(index, "partition", None)
    if partition is None:
        return solves + [Solve("part", index.node_partials, whole, part_src, hubs)]
    for nodes in partition.part_nodes:
        mine = np.intersect1d(part_src, nodes)
        if mine.size:
            view = VirtualSubgraph(graph, np.concatenate([nodes, hubs]))
            local = np.asarray(view.to_local(hubs), dtype=np.int64)
            solves.append(Solve("part", index.node_partials, view, mine, local))
    return solves
