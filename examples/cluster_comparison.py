#!/usr/bin/env python
"""Distributed PPV: HGPA's one-round protocol vs BSP engine baselines.

Reproduces the paper's headline comparison (Section 6.2.8) interactively:
the same query answered by

* HGPA on a simulated 6-machine share-nothing cluster (one communication
  round, Theorem 4),
* power iteration on a Pregel+-style vertex-centric engine (one
  communication round *per superstep*),
* power iteration on a Blogel-style block-centric engine.

Run:  python examples/cluster_comparison.py
"""

from __future__ import annotations

from repro import datasets
from repro.core import build_hgpa_index
from repro.distributed import DistributedHGPA
from repro.engines import BlogelPPR, PregelPPR
from repro.metrics import l_inf

MACHINES = 6
TOL = 1e-4


def main() -> None:
    graph = datasets.load("web")
    query = int(datasets.query_nodes(graph, 1)[0])
    print(f"graph: {graph}, query node {query}, {MACHINES} machines, ε={TOL}\n")

    index = build_hgpa_index(graph, tol=TOL, seed=0)
    cluster = DistributedHGPA(index, MACHINES)
    hgpa_vec, hgpa_rep = cluster.query(query)
    print(
        f"HGPA    : 1 round, {hgpa_rep.communication_kb:9.1f} KB, "
        f"modeled {hgpa_rep.runtime_seconds * 1000:9.2f} ms, "
        f"load imbalance {hgpa_rep.load_imbalance:.2f}"
    )

    blogel_vec, blog = BlogelPPR(graph, MACHINES).query(query, tol=TOL)
    print(
        f"Blogel  : {blog.supersteps:3d} rounds, {blog.communication_kb:7.1f} KB, "
        f"modeled {blog.runtime_seconds * 1000:9.2f} ms"
    )

    pregel_vec, preg = PregelPPR(graph, MACHINES).query(query, tol=TOL)
    print(
        f"Pregel+ : {preg.supersteps:3d} rounds, {preg.communication_kb:7.1f} KB, "
        f"modeled {preg.runtime_seconds * 1000:9.2f} ms"
    )

    print(
        f"\nHGPA speedup: {preg.runtime_seconds / hgpa_rep.runtime_seconds:6.1f}x "
        f"vs Pregel+, {blog.runtime_seconds / hgpa_rep.runtime_seconds:6.1f}x vs Blogel"
    )
    print(
        f"traffic ratio: Pregel+/HGPA = "
        f"{preg.communication_bytes / hgpa_rep.communication_bytes:6.1f}x"
    )

    # All three agree on the answer.
    print(f"\nagreement: |HGPA - Pregel+| = {l_inf(hgpa_vec, pregel_vec):.2e}, "
          f"|HGPA - Blogel| = {l_inf(hgpa_vec, blogel_vec):.2e}")
    assert l_inf(hgpa_vec, pregel_vec) < 50 * TOL


if __name__ == "__main__":
    main()
