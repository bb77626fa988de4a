#!/usr/bin/env python
"""Link prediction with exact Personalized PageRank.

One of the paper's motivating applications ([4] in its introduction):
rank candidate neighbours of a node by their PPV score.  This example
hides a sample of existing edges, scores candidates with an exact HGPA
index, and reports hits@k against the hidden edges — showing why the
*full* exact vector matters (top-k-only methods can't re-rank arbitrary
candidate sets).

Run:  python examples/link_prediction.py
"""

from __future__ import annotations

import numpy as np

from repro.core import build_hgpa_index
from repro.graph import DiGraph, hierarchical_community_digraph


def hide_edges(graph: DiGraph, fraction: float, rng: np.random.Generator):
    """Remove a random sample of edges; return (training graph, hidden)."""
    src, dst = graph.edge_arrays()
    m = src.size
    hidden_mask = rng.random(m) < fraction
    # Keep every node with at least one outgoing edge.
    keep = ~hidden_mask
    train = DiGraph.from_arrays(graph.num_nodes, src[keep], dst[keep])
    hidden = list(zip(src[hidden_mask].tolist(), dst[hidden_mask].tolist()))
    return train.with_dangling_policy("self_loop"), hidden


def main() -> None:
    rng = np.random.default_rng(7)
    graph = hierarchical_community_digraph(
        1200, avg_out_degree=5, seed=11, name="social"
    ).with_dangling_policy("self_loop")
    train, hidden = hide_edges(graph, fraction=0.1, rng=rng)
    print(f"graph: {graph}, hidden test edges: {len(hidden)}")

    index = build_hgpa_index(train, tol=1e-5, seed=0)
    print(f"index built: {index.hierarchy.hub_nodes().size} hubs, "
          f"{index.total_bytes() / 1e6:.1f} MB")

    # Evaluate: for each hidden edge (u, v), does v appear in u's top-k
    # PPV ranking among non-neighbours?
    by_source: dict[int, set[int]] = {}
    for u, v in hidden:
        by_source.setdefault(u, set()).add(v)

    hits, total = {5: 0, 20: 0, 50: 0}, 0
    sources = list(by_source)[:150]
    for u in sources:
        ppv = index.query(u)
        # Exclude existing neighbours and the query itself.
        ppv[train.successors(u)] = -1.0
        ppv[u] = -1.0
        ranked = np.argsort(-ppv)
        targets = by_source[u]
        total += len(targets)
        for k in hits:
            top = set(ranked[:k].tolist())
            hits[k] += len(targets & top)

    print(f"\nlink prediction over {len(sources)} source nodes, "
          f"{total} hidden edges:")
    for k, h in hits.items():
        print(f"  hits@{k:<3d} = {h / total:.3f}")
    baseline = 50 / train.num_nodes
    print(f"  (random hits@50 would be ≈ {baseline:.3f})")
    assert hits[50] / total > 5 * baseline, "PPR should beat random easily"


if __name__ == "__main__":
    main()
