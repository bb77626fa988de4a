"""The one flat layout of a set of stored vectors.

The index of every engine here is a set of stored sparse vectors — hub
partials, skeleton columns, own vectors — and every place that holds a
set of them whole lays it out the same way: the vectors back to back in
two flat buffers, ``idx`` and ``val``, with vector ``j`` at the half-open
slice ``indptr[j]:indptr[j+1]``.  That is the column layout of a CSC and
the row layout of a CSR, so the stacked query ops (see
:func:`repro.core.flat_index.stack_ops`) are this layout handed to scipy,
and the stores are views back into it.  This module is the only code
that packs or unpacks the layout:

* :func:`pack_vectors` / :func:`unpack_vectors` — a sequence of vectors
  to flat ``(indptr, idx, val)`` buffers and back, as read-only
  zero-copy views;
* :func:`stack_columns` / :func:`rows_matrix` — the packed buffers as the
  columns of a CSC or the rows of a CSR;
* :func:`pack_store` / :func:`unpack_store` — an id→vector store as sorted
  ids plus packed vectors (the HGPA archive's stores, the ``own_`` arrays
  of a worker arena), and :func:`column_store`, a stacked CSC read back
  as one;
* :func:`csc_from_arrays` / :func:`csr_from_arrays` — a matrix rebuilt
  around existing buffers, so a worker maps an arena's arrays into the
  same matrices without copying.

Nothing here touches shared memory or files; :mod:`repro.exec.shm` and
:mod:`repro.core.persistence` name the buffers and move them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.sparsevec import SparseVec

__all__ = [
    "pack_vectors",
    "unpack_vectors",
    "stack_columns",
    "rows_matrix",
    "pack_store",
    "unpack_store",
    "column_store",
    "csc_from_arrays",
    "csr_from_arrays",
]

def pack_vectors(
    vecs: Sequence[SparseVec | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate sparse vectors into ``(indptr, idx, val)`` flat arrays.

    Vector ``j`` occupies ``indptr[j]:indptr[j+1]`` of ``idx``/``val``; a
    ``None`` packs as an empty vector that adds no dtype (only a batch's
    own-term rows hold ``None``s, and the CSR constructor settles their
    dtype).  ``indptr`` is int64, ``idx`` has the vectors' own index dtype.
    """
    counts = [0 if v is None else v.nnz for v in vecs]
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    held = [v for v in vecs if v is not None]
    if not held:
        return indptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return (
        indptr,
        np.concatenate([v.idx for v in held]),
        np.concatenate([v.val for v in held]),
    )


def unpack_vectors(
    indptr: np.ndarray, idx: np.ndarray, val: np.ndarray
) -> list[SparseVec]:
    """The packed vectors as read-only *views* of the flat buffers — the
    inverse of :func:`pack_vectors`, copying nothing."""
    bounds = indptr.tolist()
    return [
        SparseVec(idx[lo:hi], val[lo:hi], _trusted=True)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def stack_columns(cols: Sequence[SparseVec], n: int) -> sp.csc_matrix:
    """The packed vectors as the columns of one ``(n, len(cols))`` CSC.

    scipy keeps the packed ``val`` as the matrix's ``data`` and narrows
    the index arrays to int32 where the values fit, so a column's
    ``indices``/``data`` slices are the vector's entries.
    """
    indptr, idx, val = pack_vectors(cols)
    return sp.csc_matrix((val, idx, indptr), shape=(n, len(cols)))


def rows_matrix(vecs: Sequence[SparseVec | None], n: int) -> sp.csr_matrix:
    """The packed vectors as the rows of one ``(len(vecs), n)`` CSR.

    ``None`` entries become empty rows — the own-term matrix of a batch
    where some queries contribute no vector (e.g. a machine that owns
    none of the batch's own vectors).
    """
    if not any(v is not None and v.nnz for v in vecs):
        return sp.csr_matrix((len(vecs), n))  # nothing to pack
    indptr, idx, val = pack_vectors(vecs)
    return sp.csr_matrix((val, idx, indptr), shape=(len(vecs), n))


def pack_store(
    store: Mapping[int, SparseVec],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """An id→vector store as ``(ids, indptr, idx, val)``: the ids sorted
    (int64), so the layout is deterministic, and their vectors packed."""
    ids = np.asarray(sorted(store), dtype=np.int64)
    return (ids, *pack_vectors([store[u] for u in ids.tolist()]))


def unpack_store(
    ids: np.ndarray, indptr: np.ndarray, idx: np.ndarray, val: np.ndarray
) -> dict[int, SparseVec]:
    """The inverse of :func:`pack_store`, as views of the flat buffers."""
    return dict(zip(ids.tolist(), unpack_vectors(indptr, idx, val)))


def column_store(ids: np.ndarray, csc: sp.csc_matrix) -> dict[int, SparseVec]:
    """A stacked CSC's columns by id, as views of its ``indices`` and
    ``data``: how a machine and a worker alike hold the hub partials
    their stacked ops already carry, at no memory of their own."""
    return unpack_store(ids, csc.indptr, csc.indices, csc.data)


def _from_arrays(
    cls: type[Any],
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
) -> sp.spmatrix:
    """Rebuild a compressed matrix *around* existing buffers.

    The scipy constructors copy (and may downcast) index arrays; going
    through an empty matrix and assigning the attributes keeps the given
    arrays — typically read-only shared-memory views — as the matrix's
    actual storage.  The stacked builders emit per-column-sorted indices
    (SparseVec order), so the sorted flag is asserted rather than
    recomputed: a later ``sort_indices()`` no-ops instead of attempting
    an in-place sort of a read-only buffer.
    """
    mat = cls(shape)
    mat.data = data
    mat.indices = indices
    mat.indptr = indptr
    mat.has_sorted_indices = True
    return mat


def csc_from_arrays(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
) -> sp.csc_matrix:
    """Zero-copy CSC over existing (possibly read-only) buffers."""
    return _from_arrays(sp.csc_matrix, data, indices, indptr, shape)


def csr_from_arrays(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """Zero-copy CSR over existing (possibly read-only) buffers."""
    return _from_arrays(sp.csr_matrix, data, indices, indptr, shape)
