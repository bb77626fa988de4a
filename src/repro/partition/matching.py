"""Coarsening phase of the multilevel partitioner.

Implements the sorted heavy-edge matching (SHEM) of METIS [26]: vertices are
visited in increasing-degree order and matched to the unmatched neighbour
connected by the heaviest edge.  Matched pairs collapse into coarse vertices
whose vertex weight is the pair's total, and parallel coarse edges sum their
weights — so the cut of any coarse partition equals the cut of its projection
to the fine graph.
"""

from __future__ import annotations

import numpy as np

from repro.partition.ugraph import UGraph, ugraph_from_coo

__all__ = ["heavy_edge_matching", "coarsen", "CoarseLevel"]


def heavy_edge_matching(ug: UGraph, rng: np.random.Generator) -> np.ndarray:
    """Return ``match`` with ``match[u] = v`` for matched pairs, ``u`` if single.

    Ties between equally heavy edges are broken by visit order; the visit
    order itself is degree-sorted with random jitter so repeated runs explore
    different matchings.
    """
    n = ug.num_nodes
    match = [-1] * n
    order = np.argsort(ug.degrees() + rng.random(n), kind="stable")
    indptr, indices, ew = ug.indptr.tolist(), ug.indices.tolist(), ug.eweights.tolist()
    for u in order.tolist():
        if match[u] >= 0:
            continue
        best, best_w = -1, 0.0
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if v != u and match[v] < 0 and ew[k] > best_w:
                best, best_w = v, ew[k]
        if best >= 0:
            match[u] = best
            match[best] = u
        else:
            match[u] = u
    return np.asarray(match, dtype=np.int64)


class CoarseLevel:
    """One coarsening step: the coarse graph plus the fine→coarse map."""

    __slots__ = ("ugraph", "coarse_of")

    def __init__(self, ugraph: UGraph, coarse_of: np.ndarray) -> None:
        self.ugraph = ugraph
        self.coarse_of = coarse_of


def coarsen(ug: UGraph, match: np.ndarray) -> CoarseLevel:
    """Collapse matched pairs into coarse vertices."""
    n = ug.num_nodes
    # A pair's id is the rank of its smaller endpoint: ids are handed out in
    # the order pairs are first met by a scan over 0..n-1.
    reps, coarse_of = np.unique(np.minimum(np.arange(n), match), return_inverse=True)
    n_coarse = reps.size
    src = np.repeat(np.arange(n, dtype=np.int64), ug.degrees())
    cs, cd = coarse_of[src], coarse_of[ug.indices]
    vw = np.zeros(n_coarse, dtype=np.int64)
    np.add.at(vw, coarse_of, ug.vweights)
    # ugraph_from_coo symmetrises, but (cs, cd) is already symmetric, so halve
    # the weights to keep edge weights equal to fine-graph multiplicities.
    coarse = ugraph_from_coo(n_coarse, cs, cd, ug.eweights / 2.0, vweights=vw)
    return CoarseLevel(coarse, coarse_of)
