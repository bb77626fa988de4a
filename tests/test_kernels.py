"""Top-k kernel contract edge cases, dense and sparse.

The numpy top-k selectors (:func:`repro.core.flat_index.topk_rows` and
:func:`repro.core.sparse_ops.topk_rows_sparse`) must agree exactly with
the per-row oracle :func:`repro.core.flat_index.topk_rows_reference` on
the contractual edge cases: empty batches, the exclusive threshold
boundary, and int32/int64 CSR index arrays. The ``backend`` parameter
names the implementation under test; ``python`` is the in-tree numpy one.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.flat_index import topk_rows, topk_rows_reference
from repro.core.sparse_ops import topk_rows_sparse


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
