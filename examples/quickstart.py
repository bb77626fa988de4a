#!/usr/bin/env python
"""Quickstart: build an HGPA index and answer exact PPV queries.

Walks the whole pipeline on the Email stand-in dataset:

1. load a graph,
2. build the hierarchical index (one-off pre-computation),
3. answer single-node and preference-set queries,
4. verify exactness against power iteration,
5. deploy the same index on a simulated 6-machine cluster.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import datasets
from repro.core import (
    build_hgpa_index,
    power_iteration_ppv,
    ppv_for_preference_set,
)
from repro.distributed import DistributedHGPA
from repro.metrics import l_inf, top_k_nodes


def main() -> None:
    # 1. A graph. Any DiGraph works; stand-ins mirror the paper's datasets.
    graph = datasets.load("email")
    print(f"graph: {graph}")

    # 2. Pre-compute the HGPA index (Section 4 of the paper).
    index = build_hgpa_index(graph, tol=1e-6, seed=0)
    hier = index.hierarchy
    print(
        f"hierarchy: {hier.depth} levels, {len(hier.subgraphs)} subgraphs, "
        f"{hier.hub_nodes().size} hub nodes, "
        f"index size {index.total_bytes() / 1e6:.1f} MB"
    )

    # 3a. Exact single-node PPV.
    query = 42
    ppv = index.query(query)
    top = top_k_nodes(ppv, 5)
    print(f"\nPPV({query}) top-5 nodes: "
          + ", ".join(f"{v} ({ppv[v]:.4f})" for v in top.tolist()))

    # 3b. Preference sets via linearity: personalise to several nodes at once.
    pref = {42: 2.0, 7: 1.0}
    mixed = ppv_for_preference_set(index.query, pref)
    print(f"PPV({pref}) top-5 nodes: {top_k_nodes(mixed, 5).tolist()}")

    # 4. Exactness check (Theorems 1 and 3).
    reference = power_iteration_ppv(graph, query, tol=1e-6)
    print(f"\nL_inf vs power iteration: {l_inf(ppv, reference):.2e}")

    # 5. The same index on a simulated share-nothing cluster.
    cluster = DistributedHGPA(index, num_machines=6)
    dist_ppv, report = cluster.query(query)
    assert np.abs(dist_ppv - ppv).max() < 1e-9
    print(
        f"distributed query: {report.communication_kb:.1f} KB over one round, "
        f"{len(report.per_machine_bytes)} machine vectors, "
        f"modeled runtime {report.runtime_seconds * 1000:.2f} ms"
    )


if __name__ == "__main__":
    main()
