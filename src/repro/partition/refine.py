"""Fiduccia–Mattheyses (FM) refinement for two-way partitions.

Classic single-vertex-move hill climbing with a gain heap and best-prefix
rollback: each pass tentatively moves every vertex at most once (negative
gains allowed, to escape local minima), then keeps the prefix of moves with
the lowest cut that still satisfies the balance constraint.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.ugraph import UGraph

__all__ = ["fm_refine", "partition_weights"]


def partition_weights(ug: UGraph, labels: np.ndarray) -> tuple[float, float]:
    """Vertex-weight totals of parts 0 and 1."""
    w1 = float(ug.vweights[labels == 1].sum())
    return float(ug.total_vweight) - w1, w1


def _gains(ug: UGraph, labels: np.ndarray) -> np.ndarray:
    """gain(u) = external weight − internal weight (cut delta of moving u)."""
    n = ug.num_nodes
    src = np.repeat(np.arange(n, dtype=np.int64), ug.degrees())
    same = labels[src] == labels[ug.indices]
    # Weights are integers or halves, so this signed sum is exact in any order.
    return np.bincount(src, weights=np.where(same, -ug.eweights, ug.eweights), minlength=n)


def fm_refine(
    ug: UGraph,
    labels: np.ndarray,
    *,
    target_frac: float = 0.5,
    balance: float = 0.05,
    max_passes: int = 8,
) -> np.ndarray:
    """Refine a 2-way partition in place and return it.

    ``target_frac`` is the desired fraction of total vertex weight in part 0;
    part-0 weight may drift by ``balance * total`` (at least one max vertex
    weight, so single-vertex moves always stay feasible).
    """
    labels = np.asarray(labels, dtype=np.int64)
    total = float(ug.total_vweight)
    if total == 0 or ug.num_nodes < 2:
        return labels
    max_vw = float(ug.vweights.max())
    slack = max(balance * total, max_vw)
    target_w0 = target_frac * total

    # Python lists, not numpy scalars, in the heap loop: the same floats in
    # the same order, so pops, ties, moves and rollback are unchanged.
    indptr, indices = ug.indptr.tolist(), ug.indices.tolist()
    eweights, vweights = ug.eweights.tolist(), ug.vweights.tolist()
    for _ in range(max_passes):
        gains = _gains(ug, labels).tolist()
        w0, _ = partition_weights(ug, labels)
        lab = labels.tolist()
        heap: list[tuple[float, int]] = [(-g, u) for u, g in enumerate(gains)]
        heapq.heapify(heap)
        locked = [False] * ug.num_nodes
        moves: list[int] = []
        cum = 0.0
        best_cum, best_prefix = 0.0, 0
        while heap:
            neg_gain, u = heapq.heappop(heap)
            if locked[u] or -neg_gain != gains[u]:
                continue  # stale heap entry
            # Balance check: would moving u keep part 0 within the slack?
            delta_w0 = -float(vweights[u]) if lab[u] == 0 else float(vweights[u])
            if abs((w0 + delta_w0) - target_w0) > slack and abs(w0 - target_w0) <= slack:
                continue  # move would break an already feasible balance
            # Apply the move.
            locked[u] = True
            cum += gains[u]
            w0 += delta_w0
            lab[u] = 1 - lab[u]
            moves.append(u)
            if cum > best_cum + 1e-12 and abs(w0 - target_w0) <= slack:
                best_cum, best_prefix = cum, len(moves)
            # Update neighbour gains (2 * w towards/away from the cut).
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if locked[v] or v == u:
                    continue
                if lab[v] == lab[u]:
                    gains[v] -= 2.0 * eweights[k]  # u joined v's side: edge left the cut
                else:
                    gains[v] += 2.0 * eweights[k]
                heapq.heappush(heap, (-gains[v], v))
        # Roll back every move after the best prefix.
        for u in moves[best_prefix:]:
            lab[u] = 1 - lab[u]
        labels[:] = lab
        if best_cum <= 1e-12:
            break
    return labels
