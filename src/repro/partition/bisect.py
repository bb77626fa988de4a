"""Multilevel two-way partitioning (coarsen → initial partition → refine).

This is the workhorse behind both the flat GPA partition and every split of
the HGPA hierarchy.  It follows the METIS recipe [26]: heavy-edge-matching
coarsening down to a small graph, several greedy region-growing initial
bisections on the coarsest graph, then FM refinement at every uncoarsening
level.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.partition.matching import CoarseLevel, coarsen, heavy_edge_matching
from repro.partition.refine import fm_refine
from repro.partition.ugraph import UGraph

__all__ = ["multilevel_bisect", "region_grow_bisect"]


def region_grow_bisect(
    ug: UGraph,
    *,
    target_frac: float = 0.5,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy graph-growing bisection: BFS from a random seed until part 0
    reaches the target weight; unreachable leftovers join the lighter part."""
    n = ug.num_nodes
    labels = np.ones(n, dtype=np.int64)
    if n == 0:
        return labels
    target_w0 = target_frac * ug.total_vweight
    indptr, indices, vweights = ug.indptr.tolist(), ug.indices.tolist(), ug.vweights.tolist()
    seen = [False] * n
    w0 = 0.0
    order = rng.permutation(n).tolist()
    cursor = 0
    queue: deque[int] = deque()
    while w0 < target_w0:
        if not queue:
            # Find a fresh (possibly disconnected) seed.
            while cursor < n and seen[order[cursor]]:
                cursor += 1
            if cursor >= n:
                break
            queue.append(order[cursor])
            seen[order[cursor]] = True
        u = queue.popleft()
        labels[u] = 0
        w0 += float(vweights[u])
        for v in indices[indptr[u] : indptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return labels


def multilevel_bisect(
    ug: UGraph,
    *,
    target_frac: float = 0.5,
    balance: float = 0.05,
    seed: int = 0,
    coarsen_to: int = 48,
    num_initial: int = 4,
    max_coarsen_levels: int = 40,
) -> np.ndarray:
    """Bisect ``ug`` into labels {0, 1} with part 0 near ``target_frac``.

    Returns a label per vertex.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    levels: list[CoarseLevel] = []
    current = ug
    # --- Coarsening ---------------------------------------------------
    while current.num_nodes > coarsen_to and len(levels) < max_coarsen_levels:
        match = heavy_edge_matching(current, rng)
        level = coarsen(current, match)
        if level.ugraph.num_nodes >= current.num_nodes:
            break  # matching made no progress (e.g. edgeless graph)
        levels.append(level)
        current = level.ugraph
    # --- Initial partitions on the coarsest graph ---------------------
    best_labels: np.ndarray | None = None
    best_cut = np.inf
    for _ in range(max(1, num_initial)):
        cand = region_grow_bisect(current, target_frac=target_frac, rng=rng)
        cand = fm_refine(current, cand, target_frac=target_frac, balance=balance)
        cut = current.cut_weight(cand)
        if cut < best_cut:
            best_cut, best_labels = cut, cand.copy()
    labels = best_labels if best_labels is not None else np.zeros(current.num_nodes, dtype=np.int64)
    # --- Uncoarsen + refine -------------------------------------------
    for i in range(len(levels) - 1, -1, -1):
        labels = labels[levels[i].coarse_of]
        finer = ug if i == 0 else levels[i - 1].ugraph
        labels = fm_refine(finer, labels, target_frac=target_frac, balance=balance)
    return labels

