"""Unit tests for the Jeh–Widom decomposition primitives (Eqs. 8–10)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    as_view,
    expected_iterations,
    partial_vectors,
    skeleton_columns,
    skeleton_single_hub,
    skeleton_vectors_dp,
)
from repro.errors import ConvergenceError
from repro.graph import DiGraph, VirtualSubgraph

from conftest import dense_ppv_matrix

ALPHA = 0.15
TOL = 1e-12


@pytest.fixture(scope="module")
def truth(request):
    return None


class TestPartialVectors:
    def test_no_hubs_gives_local_ppv(self, tiny_graph):
        view = as_view(tiny_graph)
        d, _ = partial_vectors(view, np.array([], dtype=np.int64), np.arange(5), tol=TOL)
        np.testing.assert_allclose(d, dense_ppv_matrix(tiny_graph), atol=1e-9)

    def test_hubs_theorem_identity(self, tiny_graph):
        """r_u == p_u + (1/α)·Σ_h (s_u(h) − α f) · (p_h − α x_h)  (Eq. 4)."""
        truth = dense_ppv_matrix(tiny_graph)
        hubs = np.array([1, 2])
        view = as_view(tiny_graph)
        d, _ = partial_vectors(view, hubs, np.arange(5), tol=TOL)
        s = skeleton_columns(view, hubs, tol=1e-10)
        for u in range(5):
            r = d[:, u].copy()
            for j, h in enumerate(hubs.tolist()):
                weight = s[u, j] - (ALPHA if u == h else 0.0)
                adjusted = d[:, h].copy()
                adjusted[h] -= ALPHA
                r += (weight / ALPHA) * adjusted
            np.testing.assert_allclose(r, truth[:, u], atol=1e-7)

    def test_hub_source_self_mass(self, tiny_graph):
        """p_h(h) ≥ α: the zero-length tour always contributes."""
        hubs = np.array([2])
        d, _ = partial_vectors(as_view(tiny_graph), hubs, hubs, tol=TOL)
        assert d[2, 0] >= ALPHA - 1e-12

    def test_blocked_beyond_hub(self):
        # 0 -> 1 -> 2 with hub 1: no partial mass reaches 2.
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        d, e = partial_vectors(as_view(g), np.array([1]), np.array([0]), tol=TOL)
        assert d[2, 0] == 0.0
        assert d[1, 0] == pytest.approx(ALPHA * (1 - ALPHA))  # first passage
        assert e[1, 0] == pytest.approx(1 - ALPHA)

    def test_restricted_to_subgraph(self, tiny_graph):
        view = VirtualSubgraph(tiny_graph, [3, 4])
        d, _ = partial_vectors(view, np.array([], dtype=np.int64), np.array([0]), tol=TOL)
        assert d.shape == (2, 1)
        assert d[0, 0] == pytest.approx(ALPHA)  # node 3: own mass only

    def test_columns_independent_of_batching(self, small_graph):
        view = as_view(small_graph)
        hubs = np.array([5, 10])
        batch, _ = partial_vectors(view, hubs, np.array([0, 1, 2]), tol=1e-9)
        for j, u in enumerate([0, 1, 2]):
            single, _ = partial_vectors(view, hubs, np.array([u]), tol=1e-9)
            np.testing.assert_allclose(batch[:, j], single[:, 0], atol=1e-12)

    def test_empty_sources(self, tiny_graph):
        d, e = partial_vectors(as_view(tiny_graph), np.array([0]), np.array([], dtype=np.int64))
        assert d.shape == (5, 0) and e.shape == (5, 0)

    def test_max_iter(self, tiny_graph):
        with pytest.raises(ConvergenceError):
            partial_vectors(as_view(tiny_graph), np.array([], dtype=np.int64),
                            np.array([0]), tol=1e-12, max_iter=2)


class TestSkeleton:
    def test_equals_ppv_column(self, tiny_graph):
        """Theorem 6: F converges to s_u(h) = r_u(h) for every u."""
        truth = dense_ppv_matrix(tiny_graph)
        hubs = np.array([0, 2, 4])
        f = skeleton_columns(as_view(tiny_graph), hubs, tol=1e-10)
        for j, h in enumerate(hubs.tolist()):
            np.testing.assert_allclose(f[:, j], truth[h, :], atol=1e-8)

    def test_single_hub_matches_batched(self, small_graph):
        view = as_view(small_graph)
        hubs = np.array([3, 17, 90])
        f = skeleton_columns(view, hubs, tol=1e-9)
        for j, h in enumerate(hubs.tolist()):
            col = skeleton_single_hub(view, h, tol=1e-9)
            np.testing.assert_allclose(col, f[:, j], atol=1e-12)

    def test_original_dp_agrees(self, tiny_graph):
        """Eq. 10 (the memory-hungry original) computes the same values."""
        hubs = np.array([1, 3])
        view = as_view(tiny_graph)
        a = skeleton_columns(view, hubs, tol=1e-10)
        b = skeleton_vectors_dp(view, hubs, tol=1e-10)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_local_skeleton_within_subgraph(self, tiny_graph):
        """Skeletons on a view are local PPV values of that view."""
        view = VirtualSubgraph(tiny_graph, [2, 3, 4])
        f = skeleton_columns(view, np.array([view.to_local(2)]), tol=1e-10)
        sub = tiny_graph.induced([2, 3, 4])  # same wiring, but degrees differ
        assert f[view.to_local(2), 0] >= ALPHA
        # value from node 3 (local): walk 3->4->2 with original degrees
        expected = ALPHA * (1 - ALPHA) ** 2  # deg(3)=deg(4)=1
        assert f[view.to_local(3), 0] >= expected - 1e-9

    def test_empty_hubs(self, tiny_graph):
        f = skeleton_columns(as_view(tiny_graph), np.array([], dtype=np.int64))
        assert f.shape == (5, 0)

    def test_max_iter(self, tiny_graph):
        with pytest.raises(ConvergenceError):
            skeleton_columns(as_view(tiny_graph), np.array([0]), tol=1e-12, max_iter=1)


class TestExpectedIterations:
    def test_monotone_in_tol(self):
        assert expected_iterations(0.15, 1e-6) > expected_iterations(0.15, 1e-2)

    def test_monotone_in_alpha(self):
        assert expected_iterations(0.05, 1e-4) > expected_iterations(0.5, 1e-4)

    def test_tol_one(self):
        assert expected_iterations(0.15, 1.0) == 1


# ----------------------------------------------------------------------
# Exactness of the batched solvers: every stored vector is bitwise what
# the one-column references produce, however the columns are grouped.

PROP_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
NO_NODES = np.empty(0, dtype=np.int64)


@st.composite
def solver_cases(draw):
    """(view, hub set, sources): a random graph — whole, or a virtual
    subgraph of it — and a request from one column to wider than a build batch
    (sources then repeat, which must not matter either)."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.integers(2, 30))
    m = int(rng.integers(n, 4 * n))
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = src != dst
    graph = DiGraph.from_arrays(n, src[keep], dst[keep])
    graph = graph.with_dangling_policy("self_loop")
    if draw(st.booleans()):
        members = np.unique(rng.integers(0, n, max(2, n // 2)))
        view = VirtualSubgraph(graph, members)
    else:
        view = as_view(graph)
    local_n = view.num_nodes
    hubs = np.unique(rng.integers(0, local_n, draw(st.integers(0, 5))))
    width = draw(st.sampled_from([1, 2, 5, 40, 129, 260]))
    sources = rng.integers(0, local_n, width)
    if hubs.size and draw(st.booleans()):
        sources[0] = hubs[0]  # a hub as its own source
    return view, hubs, sources


def _cut(width, rng):
    """A random split of ``range(width)`` into consecutive groups."""
    inner = rng.integers(1, width, int(rng.integers(0, 4))) if width > 1 else []
    edges = [0, *np.unique(inner).tolist(), width]
    return list(zip(edges[:-1], edges[1:]))


def _reference_partial_vectors(view, hubs, sources, *, tol, max_iter=100_000):
    """Eq. 9 as the textbook loop, stopping on the worst column."""
    n = view.num_nodes
    wt = view.transition_T()
    mask = np.ones(n, dtype=bool)
    mask[hubs] = False
    mask = mask[:, None]
    cols = np.arange(sources.size)
    d = np.zeros((n, sources.size))
    d[sources, cols] = ALPHA
    start = np.zeros((n, sources.size))
    start[sources, cols] = 1.0
    e = (1.0 - ALPHA) * (wt @ start)
    for _ in range(max_iter):
        expand = np.where(mask, e, 0.0)
        if expand.max() <= tol:
            return d + ALPHA * e, e
        d += ALPHA * expand
        e = np.where(mask, 0.0, e) + (1.0 - ALPHA) * (wt @ expand)
    raise ConvergenceError("reference: no convergence")


def _reference_skeleton_columns(view, hubs, *, tol, max_iter=100_000):
    """Eq. 8 as the textbook loop, stopping on the worst column."""
    w = view.transition()
    f = np.zeros((view.num_nodes, hubs.size))
    for _ in range(max_iter):
        nxt = (1.0 - ALPHA) * (w @ f)
        nxt[hubs, np.arange(hubs.size)] += ALPHA
        delta = np.abs(nxt - f).max()
        f = nxt
        if delta <= tol * ALPHA:
            return f
    raise ConvergenceError("reference: no convergence")


class TestSolverExactness:
    @settings(**PROP_SETTINGS)
    @given(case=solver_cases(), tol=st.sampled_from([1e-3, 1e-6]))
    def test_skeleton_columns_equal_single_hub_solves(self, case, tol):
        view, _, hubs = case  # any node may be asked for its column
        f = skeleton_columns(view, hubs, tol=tol, per_column=True)
        solved = {}
        for j, h in enumerate(hubs.tolist()):
            if h not in solved:
                solved[h] = skeleton_single_hub(view, h, tol=tol)
            np.testing.assert_array_equal(f[:, j], solved[h])

    @settings(**PROP_SETTINGS)
    @given(case=solver_cases(), tol=st.sampled_from([1e-3, 1e-6]))
    def test_partial_vectors_equal_single_source_solves(self, case, tol):
        view, hubs, sources = case
        d, e = partial_vectors(view, hubs, sources, tol=tol, per_column=True)
        # A lone source is its own worst column, so the textbook loop is
        # its reference; it is slow, so it checks a sample of a wide request.
        for j in np.unique(np.linspace(0, sources.size - 1, 12).astype(int)):
            ref_d, ref_e = _reference_partial_vectors(
                view, hubs, sources[j : j + 1], tol=tol
            )
            np.testing.assert_array_equal(d[:, j : j + 1], ref_d)
            np.testing.assert_array_equal(e[:, j : j + 1], ref_e)
        solved = {}
        for j, u in enumerate(sources.tolist()):
            if u not in solved:
                solved[u] = partial_vectors(
                    view, hubs, np.asarray([u]), tol=tol, per_column=True
                )
            np.testing.assert_array_equal(d[:, j], solved[u][0][:, 0])
            np.testing.assert_array_equal(e[:, j], solved[u][1][:, 0])

    @settings(**PROP_SETTINGS)
    @given(case=solver_cases(), seed=st.integers(0, 1000))
    def test_any_grouping_of_columns_gives_identical_columns(self, case, seed):
        view, hubs, sources = case
        tol = 1e-5
        d, e = partial_vectors(view, hubs, sources, tol=tol, per_column=True)
        f = skeleton_columns(view, sources, tol=tol, per_column=True)
        for lo, hi in _cut(sources.size, np.random.default_rng(seed)):
            gd, ge = partial_vectors(
                view, hubs, sources[lo:hi], tol=tol, per_column=True
            )
            np.testing.assert_array_equal(gd, d[:, lo:hi])
            np.testing.assert_array_equal(ge, e[:, lo:hi])
            gf = skeleton_columns(view, sources[lo:hi], tol=tol, per_column=True)
            np.testing.assert_array_equal(gf, f[:, lo:hi])

    @settings(**PROP_SETTINGS)
    @given(case=solver_cases(), tol=st.sampled_from([1e-3, 1e-6]))
    def test_global_mode_equals_the_textbook_loops(self, case, tol):
        """``per_column=False`` (FastPPV's build and single query, which
        read ``E``; the ablation bench) stops on the worst column."""
        view, hubs, sources = case
        d, e = partial_vectors(view, hubs, sources, tol=tol)
        ref_d, ref_e = _reference_partial_vectors(view, hubs, sources, tol=tol)
        np.testing.assert_array_equal(d, ref_d)
        np.testing.assert_array_equal(e, ref_e)
        np.testing.assert_array_equal(
            skeleton_columns(view, sources, tol=tol),
            _reference_skeleton_columns(view, sources, tol=tol),
        )

    def test_global_mode_waits_for_a_far_column(self, small_graph):
        """The worst column may be the last of a wide request: it still
        decides when every other column stops."""
        view = as_view(small_graph)
        hubs = np.array([5, 10, 50])
        tol = 1e-4
        moved = 0
        for x, y in [(0, 77), (77, 0), (3, 150), (150, 3)]:
            sources = np.r_[np.full(200, x), y]
            d, e = partial_vectors(view, hubs, sources, tol=tol)
            ref_d, ref_e = _reference_partial_vectors(view, hubs, sources, tol=tol)
            np.testing.assert_array_equal(d, ref_d)
            np.testing.assert_array_equal(e, ref_e)
            f = skeleton_columns(view, sources, tol=tol)
            np.testing.assert_array_equal(
                f, _reference_skeleton_columns(view, sources, tol=tol)
            )
            alone, _ = partial_vectors(view, hubs, sources[:1], tol=tol)
            moved += not np.array_equal(d[:, 0], alone[:, 0])
        assert moved  # some far column did hold the first one back

    @pytest.mark.parametrize("per_column", [False, True])
    def test_convergence_error_at_the_same_max_iter(self, small_graph, per_column):
        """A column that needs k rounds passes at ``max_iter=k`` and
        raises at ``k - 1`` — in a batch exactly as on its own."""
        view = as_view(small_graph)
        hubs = np.array([5, 10, 50])
        sources = np.array([0, 5, 77])
        tol = 1e-3

        def raises(fn):
            try:
                fn()
            except ConvergenceError:
                return True
            return False

        for max_iter in range(1, 60):
            single = [
                raises(lambda: skeleton_single_hub(view, h, tol=tol, max_iter=max_iter))
                for h in sources.tolist()
            ]
            batched = raises(lambda: skeleton_columns(
                view, sources, tol=tol, max_iter=max_iter, per_column=per_column
            ))
            assert batched == any(single)
            textbook = any(
                raises(lambda: _reference_partial_vectors(
                    view, hubs, sources[j : j + 1], tol=tol, max_iter=max_iter
                ))
                for j in range(sources.size)
            )
            solver = raises(lambda: partial_vectors(
                view, hubs, sources, tol=tol, max_iter=max_iter,
                per_column=per_column,
            ))
            assert solver == textbook
            if not (batched or solver):
                break
        else:
            raise AssertionError("never converged")
        assert max_iter > 2  # the loop saw both outcomes

    @pytest.mark.parametrize("per_column", [False, True])
    def test_degenerate_shapes(self, tiny_graph, per_column):
        view = as_view(tiny_graph)
        empty = VirtualSubgraph(tiny_graph, NO_NODES)
        for v, n in ((view, 5), (empty, 0)):
            d, e = partial_vectors(v, NO_NODES, NO_NODES, per_column=per_column)
            assert d.shape == e.shape == (n, 0)
            assert skeleton_columns(v, NO_NODES, per_column=per_column).shape == (n, 0)
        # No hubs: the full local PPV; every node a hub: only step 0 moves.
        d, e = partial_vectors(view, NO_NODES, np.arange(5), per_column=per_column)
        assert d.shape == e.shape == (5, 5)
        d, e = partial_vectors(
            view, np.arange(5), np.array([2]), per_column=per_column
        )
        np.testing.assert_array_equal(e[:, 0], 0.85 * view.transition_T()[:, [2]].toarray()[:, 0])
        np.testing.assert_array_equal(d[:, 0], ALPHA * e[:, 0] + ALPHA * (np.arange(5) == 2))
