"""PPV-JW: the brute-force extension of Jeh–Widom (Section 2.3).

Hub nodes are the ``k`` highest-PageRank nodes ("most random walks have a
high probability to visit these nodes").  Partial vectors of *every* node
are computed on the whole graph with only those hubs blocking, so nothing
confines their support — the ``O(|V|²)`` worst-case space the paper's GPA
exists to avoid.  Included as the exactness oracle and the space baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.flat_index import BUILD_BATCH, FlatPPVIndex, flat_solves, run_solves
from repro.errors import IndexBuildError
from repro.graph.analysis import top_pagerank_nodes
from repro.graph.digraph import DiGraph

__all__ = ["JWIndex", "build_jw_index"]


class JWIndex(FlatPPVIndex):
    """Flat index with PageRank-chosen hubs (no partitioning)."""


def build_jw_index(
    graph: DiGraph,
    *,
    num_hubs: int | None = None,
    hubs: np.ndarray | None = None,
    alpha: float = 0.15,
    tol: float = 1e-4,
    batch: int = BUILD_BATCH,
) -> JWIndex:
    """Pre-compute the PPV-JW index.

    Exactly one of ``num_hubs`` (top-PageRank selection) or an explicit
    ``hubs`` array must be given.  Stored entries are pruned at ``tol`` —
    entries below the iteration tolerance carry no information.
    """
    if (num_hubs is None) == (hubs is None):
        raise IndexBuildError("give exactly one of num_hubs or hubs")
    if hubs is None:
        hubs = top_pagerank_nodes(graph, int(num_hubs), alpha=alpha)
    hubs = np.unique(np.asarray(hubs, dtype=np.int64))
    index = JWIndex(
        graph=graph,
        alpha=alpha,
        tol=tol,
        prune=tol,
        hubs=hubs,
    )
    non_hubs = np.setdiff1d(np.arange(graph.num_nodes, dtype=np.int64), hubs)
    run_solves(index, flat_solves(index, hubs, hubs, non_hubs), batch)
    return index
