"""Top-k kernel contract, dense and sparse.

The numpy top-k selectors (:func:`repro.core.flat_index.topk_rows` and
:func:`repro.core.sparse_ops.topk_rows_sparse`) pick each row's top-k
among span-floor candidates (the entries at or above the kth largest
maximum of the row's ``TOPK_SPAN``-entry spans) and must agree exactly
with the per-row oracle :func:`repro.core.flat_index.topk_rows_reference`:
on the contractual edge cases (empty batches, the exclusive threshold
boundary, int32/int64 CSR index arrays) and, as a hypothesis property,
on tie-heavy matrices wide enough for the floor to cut — negatives and
``-0.0``, explicit stored zeros, duplicate and unsorted CSR entries, rows
with fewer than k positive entries, and a threshold of ``None``, ``0.0``
or exactly a boundary score.  The ``backend`` parameter names the
implementation under test; ``python`` is the in-tree numpy one.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flat_index import topk_rows, topk_rows_reference
from repro.core.sparse_ops import TOPK_SPAN, topk_rows_sparse


#: Implementation name -> (dense selector, sparse selector).
BACKENDS = {"python": (topk_rows, topk_rows_sparse)}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestTopkEquivalence:
    def test_threshold_boundary_is_exclusive(self, backend):
        dense_fn, sparse_fn = BACKENDS[backend]
        dense = np.asarray([[0.5, 0.2, 0.1, 0.0]])
        ref = topk_rows_reference(dense, 3, threshold=0.2)
        # score <= threshold is dropped: the boundary score 0.2 goes.
        for ids, scores in (
            dense_fn(dense, 3, threshold=0.2),
            sparse_fn(sp.csr_matrix(dense), 3, threshold=0.2),
        ):
            np.testing.assert_array_equal(ids, [[0, -1, -1]])
            np.testing.assert_array_equal(scores, [[0.5, 0.0, 0.0]])
            np.testing.assert_array_equal(ids, ref[0])
            np.testing.assert_array_equal(scores, ref[1])

    def test_empty_batch(self, backend):
        dense_fn, sparse_fn = BACKENDS[backend]
        ids, scores = dense_fn(np.zeros((0, 6)), 3)
        assert ids.shape == (0, 3) and scores.shape == (0, 3)
        ids, scores = sparse_fn(sp.csr_matrix((0, 6)), 3)
        assert ids.shape == (0, 3) and scores.shape == (0, 3)

    def test_sparse_index_dtype_invariance(self, backend):
        _, sparse_fn = BACKENDS[backend]
        mat = sp.random(
            5, 30, density=0.3, format="csr", rng=np.random.default_rng(5)
        )
        ref = topk_rows_reference(mat.toarray(), 7)
        for dtype in (np.int32, np.int64):
            cast = sp.csr_matrix(
                (mat.data, mat.indices.astype(dtype), mat.indptr.astype(dtype)),
                shape=mat.shape,
            )
            ids, scores = sparse_fn(cast, 7)
            np.testing.assert_array_equal(ids, ref[0])
            np.testing.assert_array_equal(scores, ref[1])


def _messy_csr(dense, rng, index_dtype):
    """``dense`` as a non-canonical CSR: some zeros stored explicitly (as
    ``0.0`` or ``-0.0``), some entries split into two exact halves, and
    each row's entries shuffled."""
    rows, n = dense.shape
    r, c = np.nonzero((dense != 0) | (rng.random(dense.shape) < 0.1))
    v = dense[r, c]
    v = np.where((v == 0) & (rng.random(v.size) < 0.5), -0.0, v)
    split = rng.random(v.size) < 0.2
    r = np.concatenate([r, r[split]])
    c = np.concatenate([c, c[split]])
    v = np.concatenate([np.where(split, v / 2, v), v[split] / 2])
    order = np.lexsort((rng.random(r.size), r))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=rows))))
    return sp.csr_matrix(
        (v[order], c[order].astype(index_dtype), indptr.astype(index_dtype)),
        shape=(rows, n),
    )


@st.composite
def _topk_cases(draw):
    rows = draw(st.integers(0, 5))
    n = draw(st.integers(0, 9 * TOPK_SPAN + 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.02, 0.3, 1.0]))
    if draw(st.booleans()):  # quantised: ties everywhere, negatives too
        vals = rng.integers(-3, 6, (rows, n)) / 8
    else:
        vals = rng.random((rows, n)) - draw(st.sampled_from([0.0, 0.5]))
    dense = np.where(rng.random((rows, n)) < density, vals, 0.0)
    dense[rng.random((rows, n)) < 0.05] = -0.0
    k = draw(st.one_of(st.integers(1, 12), st.integers(0, n + 2)))
    return dense, k, rng


class TestTopkProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        case=_topk_cases(),
        index_dtype=st.sampled_from([np.int32, np.int64]),
        cut=st.sampled_from(["none", "zero", "boundary"]),
    )
    def test_selectors_match_reference(self, case, index_dtype, cut):
        dense, k, rng = case
        threshold = {"none": None, "zero": 0.0}.get(cut)
        if cut == "boundary":
            scores = topk_rows_reference(dense, k)[1]
            threshold = float(scores[0, -1]) if scores.size else None
        ref_ids, ref_scores = topk_rows_reference(dense, k, threshold=threshold)
        for ids, scores in (
            topk_rows(dense, k, threshold=threshold),
            topk_rows_sparse(
                _messy_csr(dense, rng, index_dtype), k, threshold=threshold
            ),
        ):
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, ref_ids)
            np.testing.assert_array_equal(scores, ref_scores)
