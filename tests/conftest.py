"""Shared fixtures: small deterministic graphs and pre-built exact indexes.

Exactness tests run all algorithms at ``TIGHT_TOL`` and compare against
power iteration; the iteration/pruning error then sits far below
``EXACT_ATOL``, so any structural mistake (not a tolerance artefact) fails
loudly.
"""

from __future__ import annotations

import dataclasses
import glob
import multiprocessing as mp

import numpy as np
import pytest

from repro.core import (
    build_gpa_index,
    build_hgpa_index,
    build_jw_index,
    power_iteration_ppv,
)
from repro.graph import (
    DiGraph,
    hierarchical_community_digraph,
    ring_digraph,
    star_digraph,
)

TIGHT_TOL = 1e-10
EXACT_ATOL = 5e-8


@pytest.fixture(autouse=True, scope="session")
def no_exec_leaks():
    """Suite-wide guard: the execution seam must leave no worker process
    and no shared-memory segment behind once the tests are done."""
    yield
    leaked = glob.glob("/dev/shm/repro-shm-*")
    assert not leaked, f"leaked shared-memory segments: {leaked}"
    children = mp.active_children()
    assert not children, f"leaked worker processes: {children}"


@pytest.fixture(scope="session")
def tiny_graph() -> DiGraph:
    """Five nodes, hand-checkable (the debug graph of Section 2's example)."""
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 3)]
    return DiGraph.from_edges(5, edges)


@pytest.fixture(scope="session")
def small_graph() -> DiGraph:
    """200-node community graph with no dangling nodes."""
    g = hierarchical_community_digraph(200, depth=3, avg_out_degree=3, seed=3)
    return g.with_dangling_policy("self_loop")


@pytest.fixture(scope="session")
def medium_graph() -> DiGraph:
    """800-node community graph for partition/distributed tests."""
    g = hierarchical_community_digraph(800, avg_out_degree=4, seed=5)
    return g.with_dangling_policy("self_loop")


@pytest.fixture(scope="session")
def ring10() -> DiGraph:
    return ring_digraph(10)


@pytest.fixture(scope="session")
def star7() -> DiGraph:
    return star_digraph(7)


@pytest.fixture(scope="session")
def reference_ppv(small_graph):
    """Memoised exact PPVs of the small graph."""
    cache: dict[int, np.ndarray] = {}

    def get(u: int) -> np.ndarray:
        if u not in cache:
            cache[u] = power_iteration_ppv(small_graph, u, tol=TIGHT_TOL)
        return cache[u]

    return get


@pytest.fixture(scope="session")
def hgpa_small(small_graph):
    return build_hgpa_index(small_graph, tol=TIGHT_TOL, seed=0)


@pytest.fixture(scope="session")
def gpa_small(small_graph):
    return build_gpa_index(small_graph, 4, tol=TIGHT_TOL, seed=0)


@pytest.fixture(scope="session")
def jw_small(small_graph):
    return build_jw_index(small_graph, num_hubs=20, tol=TIGHT_TOL)


def dense_ppv_matrix(graph: DiGraph, alpha: float = 0.15) -> np.ndarray:
    """Ground-truth PPV matrix by direct linear solve (columns = PPVs)."""
    n = graph.num_nodes
    w = np.zeros((n, n))
    for u in range(n):
        succ = graph.successors(u)
        if succ.size:
            w[u, succ] = 1.0 / succ.size
    return alpha * np.linalg.inv(np.eye(n) - (1 - alpha) * w.T)


def _meta_fields(meta) -> dict:
    """A ``QueryStats`` / ``QueryReport`` as a dict, measured walls aside."""
    fields = dataclasses.asdict(meta)
    fields.pop("wall_seconds", None)
    return fields


def sixty_four_nodes(hubs, n: int, seed: int = 41) -> np.ndarray:
    """A 64-node batch whose probed positions (every fifth) include hub
    queries — the rows with the ``f_u(h)`` adjustment and no port repair
    at their own level."""
    nodes = np.random.default_rng(seed).integers(0, n, 64)
    nodes[[0, 5, 10]] = np.asarray(hubs)[:3]
    return nodes


def assert_one_row_equals_batches(engine, nodes, *, meta=True) -> None:
    """A node's answer must not depend on whether it arrived alone.

    One-row requests take the single-row body (``HubShare.row``), larger
    ones the batch bodies or, below the family's ``ROW_LOOP_BELOW``
    (64 for HGPA), a loop of ``row``: for both result forms the one-row
    answer has to equal — bitwise, CSR arrays included — the node's row
    inside a 2-row, a 63-row and a 64-row batch, and (``meta``) so does
    every field of its ``QueryStats`` / ``QueryReport`` except the
    measured wall.  63 and 64 rows straddle the HGPA constant.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    assert nodes.size == 64
    for verb in ("query_many", "query_many_sparse"):
        ask = getattr(engine, verb)
        big, big_meta = ask(nodes)
        mid, mid_meta = ask(nodes[:63])
        for k in range(0, 64, 5):
            one, one_meta = ask(nodes[k : k + 1])
            pair, pair_meta = ask(nodes[[k, (k + 9) % 64]])
            assert one.shape == (1, big.shape[1])
            batches = [(pair, pair_meta, 0), (mid, mid_meta, k), (big, big_meta, k)]
            for got, got_meta, row in batches:
                if verb == "query_many":
                    assert np.array_equal(one[0], got[row])
                else:
                    lo, hi = got.indptr[row], got.indptr[row + 1]
                    assert one.indptr.tolist() == [0, hi - lo]
                    assert np.array_equal(one.indices, got.indices[lo:hi])
                    assert np.array_equal(one.data, got.data[lo:hi])
                if meta:
                    assert len(one_meta) == 1
                    assert _meta_fields(one_meta[0]) == _meta_fields(got_meta[row])
