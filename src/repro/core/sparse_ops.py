"""Sparse query-result machinery shared by every engine's sparse path.

Pruned indexes (HGPA_ad, ``prune=tol``) produce PPVs whose support is a
tiny fraction of ``n``, yet the dense batch paths materialise full
``(batch, n)`` matrices.  The helpers here let every ``query_many_sparse``
implementation stay sparse end to end — adjusted skeleton weights as a
sparse matrix, per-level/ per-machine CSC result blocks, own-term row
matrices, and an exact sparse per-row top-k — while agreeing *bitwise*
with the dense paths.

Exactness rests on two properties, both asserted by the equivalence
suite:

* scipy's CSC @ CSC product accumulates each output entry over the same
  ascending-index term order as the CSC @ dense product the dense paths
  use (skipped terms are exact zeros, which cannot change an IEEE sum);
* sparse matrix addition applies the same per-entry ``a + b`` the dense
  paths apply with ``+=``, so chaining blocks in the dense accumulation
  order reproduces the dense result exactly.
"""

from __future__ import annotations

from typing import Any

from collections.abc import Callable

import numpy as np
import scipy.sparse as sp

from repro.core.sparsevec import SparseVec

__all__ = [
    "assemble_columns",
    "fold_depth_blocks",
    "point_matrix",
    "subtract_at",
    "scaled_transpose_csc",
    "spgemm_scaled",
    "sparse_add",
    "drop_rows_in_columns",
    "row_sparsevec",
    "topk_rows_sparse",
    "sparse_in_batches",
    "finalize_csr",
]


def point_matrix(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    fmt: str = "csr",
) -> sp.spmatrix:
    """Scattered point entries as a sparse matrix (COO build, no dups)."""
    coo = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=shape
    )
    return coo.asformat(fmt)


def subtract_at(
    w: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray, value: float
) -> sp.csr_matrix:
    """``w`` with ``value`` subtracted at the given positions.

    The sparse mirror of ``weights[rows, cols] -= value`` on a dense
    copy: existing entries become ``s - value`` by the same single
    subtraction, absent entries become ``0 - value`` exactly as the
    dense path's ``0.0 - value``.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        return w
    corr = point_matrix(
        rows, np.asarray(cols), np.full(rows.size, value), w.shape
    )
    return w - corr


def scaled_transpose_csc(w: sp.csr_matrix, factor: float) -> sp.csc_matrix:
    """``(w * factor).T`` as CSC on ``w``'s arrays.

    A CSR's (data, indices, indptr) reinterpreted with swapped shape *is*
    its transpose in CSC, so this costs one scaled data buffer and one
    matrix object.  Structure (and therefore the matmul term order) is
    untouched.  Every path, dense or sparse, centralized or distributed,
    scales by *multiplying* with ``1/α`` — ``x / α`` rounds differently
    for most α, and the sparse paths promise bitwise agreement.
    """
    g, h = w.shape
    return sp.csc_matrix((w.data * factor, w.indices, w.indptr), shape=(h, g))


def spgemm_scaled(
    part_csc: sp.csc_matrix, w: sp.csr_matrix, factor: float
) -> sp.csc_matrix:
    """``part_csc @ (w * factor).T`` as a *canonical* (sorted) CSC — the
    level-term product every sparse batch path computes per subgraph.

    scipy emits each output column in touch order; sorting here once
    means no caller sorts again.
    """
    out = part_csc @ scaled_transpose_csc(w, factor)
    out.sort_indices()
    return out


def sparse_add(a: sp.spmatrix, b: sp.spmatrix) -> sp.spmatrix:
    """``a + b`` — the level-merge / accumulator fold of the sparse batch
    paths, named so the fold has one place to time and to change."""
    return a + b


def assemble_columns(
    blocks: list[tuple[int, sp.csc_matrix]], total_cols: int, n: int
) -> sp.csc_matrix:
    """Column-disjoint CSC blocks placed into one ``(n, total_cols)`` CSC.

    ``blocks`` is a list of ``(lo, (n, g) matrix)`` pairs occupying the
    column ranges ``lo:lo+g``; ranges must not overlap (gaps are fine —
    they become empty columns).  Pure concatenation, no arithmetic: this
    is how the HGPA sparse path merges all level terms of one hierarchy
    *depth* in a single step, so the accumulator fold costs one sparse
    add per depth instead of one per subgraph.
    """
    blocks = sorted(blocks, key=lambda t: t[0])
    indptr = np.zeros(total_cols + 1, dtype=np.int64)
    idx_parts, data_parts = [], []
    nnz = 0
    for lo, mat in blocks:
        g = mat.shape[1]
        indptr[lo + 1 : lo + g + 1] = nnz + mat.indptr[1:]
        nnz += int(mat.indptr[-1])
        idx_parts.append(mat.indices)
        data_parts.append(mat.data)
    np.maximum.accumulate(indptr, out=indptr)  # carry through the gaps
    if not idx_parts:
        return sp.csc_matrix((n, total_cols))
    if len(idx_parts) == 1:  # one block: keep its buffers, copy nothing
        data, indices = data_parts[0], idx_parts[0]
    else:
        data, indices = np.concatenate(data_parts), np.concatenate(idx_parts)
    return sp.csc_matrix((data, indices, indptr), shape=(n, total_cols))


def fold_depth_blocks(
    by_depth: dict[int, list[tuple[int, sp.csc_matrix]]],
    ports: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]],
    total_cols: int,
    n: int,
) -> sp.csc_matrix | None:
    """Merge depth-bucketed level-term blocks into one ``(n, total_cols)``
    CSC accumulator — the shared core of both HGPA sparse batch paths.

    Each depth's column-disjoint blocks are assembled by concatenation,
    canonicalized once, topped with that depth's port-repair values (one
    scattered add of ``(rows, cols, vals)`` triples — the skeleton values
    re-added where the matmul contribution was zeroed), and folded into
    the accumulator in ascending depth order.  Any one query's covering
    subgraphs have strictly increasing depths, so per entry the fold adds
    terms in chain order — exactly the dense accumulation sequence, which
    is what keeps the sparse results bitwise-equal to the dense paths.
    Returns ``None`` when there are no blocks at all.  Both dicts are
    consumed: each depth's blocks and ports are freed once merged.
    """
    acc: sp.csc_matrix | None = None
    for depth in sorted(by_depth):
        mat = assemble_columns(by_depth.pop(depth), total_cols, n)
        mat.sort_indices()  # canonicalize the raw matmul blocks once
        depth_ports = ports.pop(depth, None)
        if depth_ports:
            mat = sparse_add(
                mat,
                point_matrix(
                    np.concatenate([p[0] for p in depth_ports]),
                    np.concatenate([p[1] for p in depth_ports]),
                    np.concatenate([p[2] for p in depth_ports]),
                    (n, total_cols),
                    fmt="csc",
                ),
            )
        acc = mat if acc is None else sparse_add(acc, mat)
    return acc


def drop_rows_in_columns(
    block: sp.csc_matrix, rows: np.ndarray, col_mask: np.ndarray
) -> sp.csc_matrix:
    """``block`` without the stored entries whose row is in ``rows`` and
    whose column is flagged in ``col_mask``, as a compacted copy.

    The sparse half of the HGPA port repair: the dense path *overwrites*
    those coordinates, which splits into "drop the matmul contribution"
    (here) plus "add the skeleton values" (a :func:`point_matrix` add,
    which drops the zeros a zeroing would leave).  Boolean masks only: on
    a batch's root level the block is the sparse path's largest array.
    """
    rows = np.asarray(rows)
    if block.nnz == 0 or rows.size == 0:
        return block
    is_row = np.zeros(block.shape[0], dtype=bool)
    is_row[rows] = True
    keep = is_row[block.indices]
    keep &= np.repeat(col_mask, np.diff(block.indptr))
    np.logical_not(keep, out=keep)
    kept = np.zeros(keep.size + 1, dtype=block.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return sp.csc_matrix(
        (block.data[keep], block.indices[keep], kept[block.indptr]),
        shape=block.shape,
    )


def row_sparsevec(mat: sp.csr_matrix, row: int) -> SparseVec:
    """Row ``row`` of a canonical CSR as a :class:`SparseVec`.

    Explicit zeros are dropped, matching ``SparseVec.from_dense`` on the
    dense equivalent (same nnz, hence same wire bytes); buffers are
    copied so the matrix is not pinned.
    """
    lo, hi = mat.indptr[row], mat.indptr[row + 1]
    idx = mat.indices[lo:hi]
    val = mat.data[lo:hi]
    keep = val != 0.0
    return SparseVec(
        idx[keep].astype(np.int64, copy=True), val[keep].copy(), _trusted=True
    )


#: Entries per span of the top-k floor: dense columns, or CSR stored entries.
TOPK_SPAN = 32


def _span_candidates(
    vals: np.ndarray, indptr: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, position)`` of the entries of ``vals`` that can enter their
    row's top-k, row ``r`` owning ``vals[indptr[r]:indptr[r + 1]]``.

    A row's *floor* is the kth largest maximum of its :data:`TOPK_SPAN`
    -entry spans: the k best spans each hold a distinct entry at or above
    it, so the row's kth score is no lower, and the entries at or above
    the floor (all inside spans whose maximum is too) include every entry
    of the top-k, boundary ties too.  Fewer than k spans: floor ``-inf``.
    """
    rows = indptr.size - 1
    nspans = -(-np.diff(indptr) // TOPK_SPAN)
    width = int(nspans.max(initial=0))
    if k <= 0 or width == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    valid = np.arange(width) < nspans[:, None]
    starts = indptr[:-1, None] + np.arange(width) * TOPK_SPAN
    grid = np.full((rows, width), -np.inf)
    grid[valid] = np.maximum.reduceat(vals, starts[valid])
    floor = np.full(rows, -np.inf)
    if width >= k:
        floor = np.partition(grid, width - k, axis=1)[:, width - k]
    row, span = np.nonzero((grid >= floor[:, None]) & valid)
    pos = starts[row, span][:, None] + np.arange(TOPK_SPAN)
    keep = pos < indptr[row + 1, None]
    keep &= np.take(vals, pos, mode="clip") >= floor[row, None]
    return np.broadcast_to(row[:, None], pos.shape)[keep], pos[keep]


def _select_topk(
    shape: tuple[int, int], cands: tuple[np.ndarray, ...], threshold: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first ``k`` candidates ``(row, id, score)`` by ``(row,
    -score, id)``, as ``shape = (rows, k)`` ids and scores (every row
    holds ``k`` candidates), then the :func:`_threshold_cut`."""
    row, ids, scores = cands
    order = np.lexsort((ids, -scores, row))
    first = np.searchsorted(row[order], np.arange(shape[0]))
    pick = order[first[:, None] + np.arange(shape[1])]
    return _threshold_cut(ids[pick], scores[pick], threshold)


def _threshold_cut(
    ids: np.ndarray, scores: np.ndarray, threshold: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Blank entries with ``score <= threshold`` to id ``-1`` / score
    ``0.0`` in place; scores are sorted, so the survivors stay a prefix."""
    if threshold is not None:
        dropped = scores <= threshold
        ids[dropped] = -1
        scores[dropped] = 0.0
    return ids, scores


def topk_rows_sparse(
    mat: sp.spmatrix, k: int, *, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a sparse ``(rows, n)`` matrix — exact mirror of
    the dense :func:`repro.core.flat_index.topk_rows` contract, without
    densifying the chunk.

    Candidates are the stored entries at or above each row's span floor
    (:func:`_span_candidates`).  A row with fewer than ``k`` positive
    stored entries also takes its ``k`` smallest *absent* ids at score
    ``0.0`` (any other absent id is preceded by ``k`` equal-scored
    candidates with smaller ids); only those rows run a Python loop.
    """
    mat = mat.tocsr()
    mat.sum_duplicates()
    rows, n = mat.shape
    k = max(0, min(k, n))
    indptr = mat.indptr.astype(np.int64)
    data = mat.data[: indptr[-1]]
    row, pos = _span_candidates(data, indptr, k)
    parts = [(row, mat.indices[pos].astype(np.int64), data[pos])]
    positive = np.concatenate(([0], np.cumsum(data > 0)))
    for r in np.flatnonzero(positive[indptr[1:]] - positive[indptr[:-1]] < k):
        idx = mat.indices[indptr[r] : indptr[r + 1]]
        limit = min(n, idx.size + k)
        missing = np.setdiff1d(np.arange(limit), idx[idx < limit])[:k]
        parts.append((np.full(missing.size, r), missing, np.zeros(missing.size)))
    cands = tuple(np.concatenate(p) for p in zip(*parts))
    return _select_topk((rows, k), cands, threshold)


def sparse_in_batches(
    query_many_sparse_fn: Callable[[np.ndarray], tuple[sp.csr_matrix, list[Any]]],
    nodes: np.ndarray,
    batch: int,
) -> tuple[sp.csr_matrix, list[Any]]:
    """Evaluate a ``query_many_sparse``-style callable one batch at a
    time, row-stacking the CSR chunks (the sparse ``run_in_batches``)."""
    if nodes.size == 0:
        out, meta = query_many_sparse_fn(nodes)
        return out, list(meta)
    outs, metas = [], []
    for lo in range(0, nodes.size, batch):
        out, meta = query_many_sparse_fn(nodes[lo : lo + batch])
        outs.append(out)
        metas.extend(meta)
    return sp.vstack(outs, format="csr"), metas


def finalize_csr(mat: sp.spmatrix, shape: tuple[int, int]) -> sp.csr_matrix:
    """Canonical CSR result: sorted indices, explicit zeros dropped.

    Dropping explicit zeros changes no value but makes row nnz equal the
    support a dense row would sparsify to — which is what the serving
    wire accounting (``16 + 12·nnz`` bytes per row) charges.
    """
    out = mat.tocsr()
    if out.shape != shape:  # pragma: no cover - defensive
        out = sp.csr_matrix(out, shape=shape)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out
