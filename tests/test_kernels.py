"""The fast-kernel dispatch seam: capability probe, fallback, exactness.

Three layers of guarantees:

* **Probe/dispatch** — ``probe()`` runs once and caches, env overrides
  are honoured, unavailable/unknown backends silently downgrade to
  scipy with the reason recorded (never an exception), and the report
  is JSON-serialisable (it rides in every bench payload).
* **Fallback** — with numba absent or ``REPRO_KERNELS=scipy``,
  ``implementation(op)`` returns the *original* baseline callables and
  every wrapper runs its inline path: a missing accelerator changes
  nothing but speed.
* **Exactness** — the ``python`` backend runs the njit-able kernel
  sources uncompiled, so every compiled code path is asserted exactly
  equal to its scipy/numpy oracle without numba in the container:
  bitwise on dense results, ``(indptr, indices, data)``-identical on
  sparse ones, across fuzzed inputs and the contractual edge cases
  (empty batches, all-ties rows, threshold boundaries, all-zero pruned
  rows, int32/int64 index dtypes).
"""

import importlib.util
import json
import operator

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.decomposition import as_view, partial_vectors
from repro.core.flat_index import topk_rows, topk_rows_reference
from repro.core.gpa import build_gpa_index
from repro.core.hgpa import build_hgpa_index
from repro.core.power_iteration import power_iteration_ppv
from repro.core.sparse_ops import sparse_add, spgemm_scaled, topk_rows_sparse
from repro.errors import ConvergenceError, QueryError
from repro.graph import DiGraph
from repro.kernels import (
    Kernels,
    active_kernels,
    get_kernels,
    probe,
    resolve_kernels,
)
from repro.kernels.capability import ENV_VAR, VALID_BACKENDS
from repro.kernels.pykernels import KERNEL_OPS

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

#: Backends whose results must match the scipy baseline exactly.
FAST_BACKENDS = ["python"] + (["numba"] if HAVE_NUMBA else [])

PROP_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture
def fresh_probe(monkeypatch):
    """Run a test against a refreshed probe, restoring the cache after."""
    yield monkeypatch
    monkeypatch.delenv(ENV_VAR, raising=False)
    probe(refresh=True)


def _random_csr(rng, rows, cols, density=0.1, zero_rows=()) -> sp.csr_matrix:
    mat = sp.random(rows, cols, density=density, format="csr", rng=rng)
    mat.sort_indices()
    mat.sum_duplicates()
    if len(zero_rows) and rows:
        lil = mat.tolil()
        for r in zero_rows:
            lil.rows[r % rows] = []
            lil.data[r % rows] = []
        mat = lil.tocsr()
        mat.sort_indices()
    return mat


def _ring_graph(n=12) -> DiGraph:
    src = np.arange(n)
    dst = (src + 1) % n
    extra_src = np.arange(0, n, 3)
    extra_dst = (extra_src + n // 2) % n
    g = DiGraph.from_arrays(
        n, np.concatenate([src, extra_src]), np.concatenate([dst, extra_dst])
    )
    return g.with_dangling_policy("self_loop")


# ---------------------------------------------------------------------------
class TestProbe:
    def test_probe_is_cached_until_refreshed(self):
        first = probe()
        assert probe() is first
        refreshed = probe(refresh=True)
        assert refreshed is not first
        assert probe() is refreshed

    def test_env_forces_backend(self, fresh_probe):
        fresh_probe.setenv(ENV_VAR, "python")
        report = probe(refresh=True)
        assert report.requested == "python"
        assert report.backend == "python"

    def test_unknown_env_value_falls_back_to_auto(self, fresh_probe):
        fresh_probe.setenv(ENV_VAR, "quantum")
        report = probe(refresh=True)
        assert report.requested == "auto"
        assert report.backend in VALID_BACKENDS
        assert any("quantum" in note for note in report.notes)

    @pytest.mark.skipif(HAVE_NUMBA, reason="exercises the numba-absent path")
    def test_numba_requested_but_absent_downgrades_with_reason(
        self, fresh_probe
    ):
        fresh_probe.setenv(ENV_VAR, "numba")
        report = probe(refresh=True)
        assert report.backend == "scipy"
        assert any("unavailable" in note for note in report.notes)
        cap = report.capability("numba")
        assert cap is not None and not cap.available and cap.reason

    @pytest.mark.skipif(HAVE_NUMBA, reason="exercises the numba-absent path")
    def test_auto_without_numba_is_scipy(self, fresh_probe):
        fresh_probe.delenv(ENV_VAR, raising=False)
        assert probe(refresh=True).backend == "scipy"

    def test_report_is_json_serialisable(self):
        payload = json.loads(json.dumps(probe().as_dict()))
        assert set(payload) == {"requested", "backend", "capabilities", "notes"}
        assert {c["name"] for c in payload["capabilities"]} >= {"numba", "cupy"}

    def test_probe_never_raises_on_detection(self):
        # The probe contract: downgrades are recorded, not raised.
        report = probe(refresh=True)
        assert report.backend in ("scipy", "numba", "python")
        probe(refresh=True)


# ---------------------------------------------------------------------------
class TestDispatch:
    def test_scipy_bundle_is_empty_and_falls_back_to_baselines(self):
        bundle = get_kernels("scipy")
        assert bundle.backend == "scipy"
        for op in KERNEL_OPS:
            assert getattr(bundle, op) is None
        assert bundle.implementation("topk_dense") is topk_rows
        assert bundle.implementation("topk_sparse") is topk_rows_sparse
        assert bundle.implementation("spgemm_csc") is operator.matmul
        assert bundle.implementation("cs_add") is operator.add
        assert bundle.implementation("power_solve") is power_iteration_ppv
        assert bundle.implementation("percol_solve") is partial_vectors

    def test_python_bundle_accelerates_every_op(self):
        bundle = get_kernels("python")
        assert bundle.backend == "python"
        for op in KERNEL_OPS:
            fn = getattr(bundle, op)
            assert callable(fn)
            assert bundle.implementation(op) is fn

    def test_bundles_are_cached_per_backend(self):
        assert get_kernels("python") is get_kernels("python")
        assert get_kernels("scipy") is get_kernels("scipy")

    def test_unknown_backend_downgrades_to_scipy_with_note(self):
        bundle = get_kernels("fpga")
        assert bundle.backend == "scipy"
        assert any("fpga" in note for note in bundle.report.notes)
        for op in KERNEL_OPS:
            assert getattr(bundle, op) is None

    def test_unknown_op_raises_library_error(self):
        with pytest.raises(QueryError):
            get_kernels("scipy").implementation("fft")

    def test_resolve_kernels_accepts_all_three_forms(self):
        bundle = get_kernels("python")
        assert resolve_kernels(bundle) is bundle
        assert resolve_kernels("python") is bundle
        assert isinstance(resolve_kernels(None), Kernels)
        assert resolve_kernels(None) is active_kernels()

    @pytest.mark.skipif(HAVE_NUMBA, reason="exercises the numba-absent path")
    def test_numba_bundle_without_numba_downgrades(self):
        bundle = get_kernels("numba")
        assert bundle.backend == "scipy"
        assert any("unavailable" in note for note in bundle.report.notes)

    @pytest.mark.skipif(HAVE_NUMBA, reason="exercises the numba-absent path")
    def test_default_dispatch_without_numba_is_baseline(self, fresh_probe):
        """The headline fallback: numba absent -> auto dispatch IS scipy,
        and forcing REPRO_KERNELS=scipy is indistinguishable."""
        for env in (None, "scipy"):
            if env is None:
                fresh_probe.delenv(ENV_VAR, raising=False)
            else:
                fresh_probe.setenv(ENV_VAR, env)
            probe(refresh=True)
            bundle = active_kernels()
            assert bundle.backend == "scipy"
            assert bundle.implementation("topk_dense") is topk_rows
            assert bundle.implementation("percol_solve") is partial_vectors


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", FAST_BACKENDS)
class TestTopkEquivalence:
    def test_matches_reference_oracle(self, backend):
        rng = np.random.default_rng(3)
        dense = rng.random((7, 40))
        for k in (1, 5, 40, 99):
            ids, scores = topk_rows(dense, k, kernels=backend)
            ref_ids, ref_scores = topk_rows_reference(dense, k)
            np.testing.assert_array_equal(ids, ref_ids)
            np.testing.assert_array_equal(scores, ref_scores)

    def test_all_ties_rows_break_by_smaller_id(self, backend):
        dense = np.full((3, 9), 0.25)
        ids, scores = topk_rows(dense, 4, kernels=backend)
        np.testing.assert_array_equal(
            ids, np.tile(np.arange(4, dtype=np.int64), (3, 1))
        )
        ref = topk_rows_reference(dense, 4)
        np.testing.assert_array_equal(ids, ref[0])
        np.testing.assert_array_equal(scores, ref[1])

    def test_threshold_boundary_is_exclusive(self, backend):
        dense = np.asarray([[0.5, 0.2, 0.1, 0.0]])
        # score <= threshold is dropped: the boundary score 0.2 goes.
        ids, scores = topk_rows(dense, 3, threshold=0.2, kernels=backend)
        np.testing.assert_array_equal(ids, [[0, -1, -1]])
        np.testing.assert_array_equal(scores, [[0.5, 0.0, 0.0]])
        ref = topk_rows_reference(dense, 3, threshold=0.2)
        np.testing.assert_array_equal(ids, ref[0])
        np.testing.assert_array_equal(scores, ref[1])

    def test_empty_batch(self, backend):
        ids, scores = topk_rows(np.zeros((0, 6)), 3, kernels=backend)
        assert ids.shape == (0, 3) and scores.shape == (0, 3)

    def test_sparse_matches_dense_twin(self, backend):
        rng = np.random.default_rng(4)
        mat = _random_csr(rng, 9, 50, density=0.2, zero_rows=(0, 4))
        for k, threshold in ((1, None), (6, None), (50, None), (6, 0.1)):
            ids, scores = topk_rows_sparse(
                mat, k, threshold=threshold, kernels=backend
            )
            ref = topk_rows_reference(mat.toarray(), k, threshold=threshold)
            np.testing.assert_array_equal(ids, ref[0])
            np.testing.assert_array_equal(scores, ref[1])

    def test_sparse_all_zero_pruned_rows(self, backend):
        """Fully-pruned PPV rows: ties on 0.0 resolve to the smallest ids."""
        mat = sp.csr_matrix((3, 8))
        ids, scores = topk_rows_sparse(mat, 4, kernels=backend)
        np.testing.assert_array_equal(
            ids, np.tile(np.arange(4, dtype=np.int64), (3, 1))
        )
        assert (scores == 0.0).all()

    def test_sparse_index_dtype_invariance(self, backend):
        rng = np.random.default_rng(5)
        mat = _random_csr(rng, 5, 30, density=0.3)
        for dtype in (np.int32, np.int64):
            cast = sp.csr_matrix(
                (
                    mat.data,
                    mat.indices.astype(dtype),
                    mat.indptr.astype(dtype),
                ),
                shape=mat.shape,
            )
            ids, scores = topk_rows_sparse(cast, 7, kernels=backend)
            ref = topk_rows_reference(mat.toarray(), 7)
            np.testing.assert_array_equal(ids, ref[0])
            np.testing.assert_array_equal(scores, ref[1])

    @settings(**PROP_SETTINGS)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(0, 8),
        cols=st.integers(1, 60),
        k=st.integers(1, 70),
    )
    def test_fuzz_sparse_topk(self, backend, seed, rows, cols, k):
        rng = np.random.default_rng(seed)
        mat = _random_csr(rng, rows, cols, density=0.25)
        ids, scores = topk_rows_sparse(mat, k, kernels=backend)
        ref = topk_rows_reference(mat.toarray(), k)
        np.testing.assert_array_equal(ids, ref[0])
        np.testing.assert_array_equal(scores, ref[1])


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", FAST_BACKENDS)
class TestSparseOpsEquivalence:
    def test_spgemm_bitwise_vs_scipy(self, backend):
        rng = np.random.default_rng(6)
        part = sp.random(9, 30, density=0.3, format="csc", rng=rng)
        part.sort_indices()
        w = _random_csr(rng, 25, 30, density=0.2)
        base = spgemm_scaled(part, w, 1.0 / 0.15, kernels="scipy")
        fast = spgemm_scaled(part, w, 1.0 / 0.15, kernels=backend)
        np.testing.assert_array_equal(fast.indptr, base.indptr)
        np.testing.assert_array_equal(fast.indices, base.indices)
        np.testing.assert_array_equal(fast.data, base.data)
        assert fast.has_sorted_indices and fast.has_canonical_format

    def test_add_bitwise_vs_scipy(self, backend):
        rng = np.random.default_rng(8)
        for fmt in ("csr", "csc"):
            a = _random_csr(rng, 8, 40, density=0.2).asformat(fmt)
            b = _random_csr(rng, 8, 40, density=0.2).asformat(fmt)
            a.sort_indices()
            b.sort_indices()
            base = a + b
            fast = sparse_add(a, b, kernels=backend)
            assert fast.format == fmt
            np.testing.assert_array_equal(fast.indptr, base.indptr)
            np.testing.assert_array_equal(fast.indices, base.indices)
            np.testing.assert_array_equal(fast.data, base.data)

    def test_add_drops_exact_zero_results(self, backend):
        a = sp.csr_matrix(np.asarray([[1.5, 0.0, -2.0]]))
        b = sp.csr_matrix(np.asarray([[-1.5, 3.0, 2.0]]))
        out = sparse_add(a, b, kernels=backend)
        ref = a + b
        assert out.nnz == ref.nnz == 1
        np.testing.assert_array_equal(out.toarray(), ref.toarray())

    def test_add_non_canonical_falls_back_exactly(self, backend):
        # Unsorted indices: the kernel gate must refuse and scipy serve.
        a = sp.csr_matrix(
            (np.asarray([2.0, 1.0]), np.asarray([2, 0]), np.asarray([0, 2])),
            shape=(1, 3),
        )
        assert not a.has_sorted_indices
        b = sp.csr_matrix(np.asarray([[0.5, 0.0, 0.5]]))
        out = sparse_add(a, b, kernels=backend)
        np.testing.assert_array_equal(
            out.toarray(), np.asarray([[1.5, 0.0, 2.5]])
        )

    def test_add_mixed_formats_fall_back(self, backend):
        a = sp.csr_matrix(np.asarray([[1.0, 0.0], [0.0, 2.0]]))
        b = sp.csc_matrix(np.asarray([[0.0, 1.0], [1.0, 0.0]]))
        out = sparse_add(a, b, kernels=backend)
        np.testing.assert_array_equal(
            out.toarray(), np.asarray([[1.0, 1.0], [1.0, 2.0]])
        )

    def test_empty_operands(self, backend):
        empty = sp.csr_matrix((3, 7))
        other = _random_csr(np.random.default_rng(9), 3, 7, density=0.3)
        out = sparse_add(empty, other, kernels=backend)
        np.testing.assert_array_equal(out.toarray(), other.toarray())
        prod = spgemm_scaled(
            sp.csc_matrix((2, 5)),
            _random_csr(np.random.default_rng(10), 4, 5, density=0.3),
            2.0,
            kernels=backend,
        )
        assert prod.shape == (2, 4) and prod.nnz == 0

    @settings(**PROP_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_fuzz_spgemm_and_add(self, backend, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 8))
        mid = int(rng.integers(1, 20))
        cols = int(rng.integers(1, 20))
        part = sp.random(rows, mid, density=0.3, format="csc", rng=rng)
        part.sort_indices()
        w = _random_csr(rng, cols, mid, density=0.3)
        base = spgemm_scaled(part, w, 1.0 / 0.15, kernels="scipy")
        fast = spgemm_scaled(part, w, 1.0 / 0.15, kernels=backend)
        np.testing.assert_array_equal(fast.indptr, base.indptr)
        np.testing.assert_array_equal(fast.indices, base.indices)
        np.testing.assert_array_equal(fast.data, base.data)
        a = _random_csr(rng, rows, cols, density=0.4)
        b = _random_csr(rng, rows, cols, density=0.4)
        ref = a + b
        out = sparse_add(a, b, kernels=backend)
        np.testing.assert_array_equal(out.indptr, ref.indptr)
        np.testing.assert_array_equal(out.indices, ref.indices)
        np.testing.assert_array_equal(out.data, ref.data)


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", FAST_BACKENDS)
class TestSolverEquivalence:
    def test_power_iteration_bitwise(self, backend):
        graph = _ring_graph(14)
        for u in (0, 5, 13):
            base = power_iteration_ppv(graph, u, kernels="scipy")
            fast = power_iteration_ppv(graph, u, kernels=backend)
            np.testing.assert_array_equal(fast, base)

    def test_power_iteration_nonconvergence_parity(self, backend):
        graph = _ring_graph(10)
        with pytest.raises(ConvergenceError):
            power_iteration_ppv(graph, 0, tol=1e-300, max_iter=2, kernels=backend)
        with pytest.raises(ConvergenceError):
            power_iteration_ppv(graph, 0, tol=1e-300, max_iter=2, kernels="scipy")

    def test_percol_solve_bitwise(self, backend):
        graph = _ring_graph(16)
        view = as_view(graph)
        hubs = np.asarray([2, 7, 11])
        sources = np.asarray([0, 3, 7, 15])
        base_d, base_e = partial_vectors(
            view, hubs, sources, per_column=True, kernels="scipy"
        )
        fast_d, fast_e = partial_vectors(
            view, hubs, sources, per_column=True, kernels=backend
        )
        np.testing.assert_array_equal(fast_d, base_d)
        np.testing.assert_array_equal(fast_e, base_e)

    def test_percol_empty_source_batch(self, backend):
        graph = _ring_graph(8)
        d, e = partial_vectors(
            as_view(graph),
            np.asarray([1]),
            np.asarray([], dtype=np.int64),
            per_column=True,
            kernels=backend,
        )
        assert d.shape == (8, 0) and e.shape == (8, 0)

    def test_percol_nonconvergence_parity(self, backend):
        graph = _ring_graph(10)
        view = as_view(graph)
        hubs = np.asarray([], dtype=np.int64)
        sources = np.asarray([0])
        with pytest.raises(ConvergenceError):
            partial_vectors(
                view, hubs, sources, per_column=True, tol=1e-300,
                max_iter=2, kernels=backend,
            )
        with pytest.raises(ConvergenceError):
            partial_vectors(
                view, hubs, sources, per_column=True, tol=1e-300,
                max_iter=2, kernels="scipy",
            )

    @settings(**PROP_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_fuzz_solvers_on_random_graphs(self, backend, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        m = int(rng.integers(n, 4 * n))
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        graph = DiGraph.from_arrays(n, src[keep], dst[keep])
        graph = graph.with_dangling_policy("self_loop")
        u = int(rng.integers(0, n))
        np.testing.assert_array_equal(
            power_iteration_ppv(graph, u, kernels=backend),
            power_iteration_ppv(graph, u, kernels="scipy"),
        )
        hubs = np.unique(rng.integers(0, n, 3))
        base_d, base_e = partial_vectors(
            as_view(graph), hubs, np.asarray([u]), per_column=True,
            kernels="scipy",
        )
        fast_d, fast_e = partial_vectors(
            as_view(graph), hubs, np.asarray([u]), per_column=True,
            kernels=backend,
        )
        np.testing.assert_array_equal(fast_d, base_d)
        np.testing.assert_array_equal(fast_e, base_e)


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", FAST_BACKENDS)
class TestEndToEnd:
    """One switch flips the whole stack, and nothing moves: full indexes
    built on a fast backend answer bitwise-identically to scipy ones."""

    def _graph(self):
        rng = np.random.default_rng(21)
        n, m = 60, 240
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        g = DiGraph.from_arrays(n, src[keep], dst[keep])
        return g.with_dangling_policy("self_loop")

    @staticmethod
    def _answers(fresh_probe, backend, build, nodes, k):
        """Index build, sparse batch and top-k with the whole process
        switched to ``backend`` — the one switch there is."""
        fresh_probe.setenv(ENV_VAR, backend)
        assert probe(refresh=True).backend == backend
        index = build()
        mat, _ = index.query_many_sparse(nodes)
        ids, scores, _ = index.query_many_topk(nodes, k)
        return mat.toarray(), ids, scores

    def test_gpa_index_equality(self, backend, fresh_probe):
        graph = self._graph()
        nodes = np.arange(0, graph.num_nodes, 7)
        build = lambda: build_gpa_index(graph, 3, seed=1)  # noqa: E731
        base = self._answers(fresh_probe, "scipy", build, nodes, 5)
        fast = self._answers(fresh_probe, backend, build, nodes, 5)
        for got, want in zip(fast, base):
            np.testing.assert_array_equal(got, want)

    def test_hgpa_index_equality(self, backend, fresh_probe):
        graph = self._graph()
        nodes = np.arange(0, graph.num_nodes, 11)
        build = lambda: build_hgpa_index(graph, max_levels=3, seed=1)  # noqa: E731
        base = self._answers(fresh_probe, "scipy", build, nodes, 4)
        fast = self._answers(fresh_probe, backend, build, nodes, 4)
        for got, want in zip(fast, base):
            np.testing.assert_array_equal(got, want)
