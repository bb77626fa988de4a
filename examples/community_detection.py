#!/usr/bin/env python
"""Local community detection via PPR sweep cuts.

Another motivating application of the paper ([3, 21]): given a seed node,
compute its exact PPV, order nodes by degree-normalised PPV score, and
sweep for the prefix with the best conductance — the classic
Andersen–Chung–Lang recipe, here running on exact vectors from an HGPA
index instead of approximate push vectors.

Run:  python examples/community_detection.py
"""

from __future__ import annotations

import numpy as np

from repro.core import build_hgpa_index
from repro.graph import DiGraph, hierarchical_community_digraph


def conductance(graph: DiGraph, members: np.ndarray) -> float:
    """Cut(S, V∖S) / min(vol(S), vol(V∖S)) on the symmetrised graph."""
    inside = np.zeros(graph.num_nodes, dtype=bool)
    inside[members] = True
    src, dst = graph.edge_arrays()
    cut = int((inside[src] != inside[dst]).sum())
    vol_s = int(graph.out_degrees[members].sum())
    vol_rest = graph.num_edges - vol_s
    denom = max(1, min(vol_s, vol_rest))
    return cut / denom


def sweep_cut(graph: DiGraph, ppv: np.ndarray, max_size: int = 400):
    """Best-conductance prefix of the degree-normalised PPV ordering."""
    deg = np.maximum(1, graph.out_degrees)
    order = np.argsort(-(ppv / deg))
    best, best_phi = order[:1], np.inf
    for size in range(2, min(max_size, graph.num_nodes)):
        members = order[:size]
        phi = conductance(graph, members)
        if phi < best_phi:
            best, best_phi = members, phi
    return best, best_phi


def main() -> None:
    depth = 4  # 16 planted communities of ~75 nodes
    graph = hierarchical_community_digraph(
        1200, depth=depth, avg_out_degree=6, cross_fraction=0.08, seed=23,
    ).with_dangling_policy("self_loop")
    block = 1200 // 2**depth
    print(f"graph: {graph} with {2**depth} planted communities of ≈{block}")

    index = build_hgpa_index(graph, tol=1e-5, seed=0)

    rng = np.random.default_rng(1)
    recovered = []
    for seed_node in rng.integers(0, graph.num_nodes, 5).tolist():
        ppv = index.query(seed_node)
        members, phi = sweep_cut(graph, ppv)
        # The planted structure is hierarchical: a sweep may recover the
        # seed's community at any level (leaf, pair of leaves, ...).  Score
        # the best-matching ancestor block.
        best_level, best_purity = 0, 0.0
        for level in range(1, depth + 1):
            width = 1200 // 2**level
            purity = float(np.mean(members // width == seed_node // width))
            if purity > best_purity:
                best_level, best_purity = level, purity
        recovered.append(best_purity)
        print(
            f"seed {seed_node:4d} (leaf community {seed_node // block:2d}): "
            f"|S|={members.size:4d}  conductance={phi:.3f}  "
            f"purity={best_purity:.2f} @ level {best_level}"
        )
    mean_purity = float(np.mean(recovered))
    print(f"\nmean best-level purity over seeds: {mean_purity:.2f}")
    assert mean_purity > 0.5, "sweep cuts should recover planted communities"


if __name__ == "__main__":
    main()
