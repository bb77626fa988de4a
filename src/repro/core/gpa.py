"""GPA — the graph-partition algorithm (Section 3).

The graph is split into ``m`` balanced subgraphs whose bridging nodes form
the hub set ``H``.  Because every tour between two subgraphs must pass a
hub, the partial vector of a non-hub node is confined to its own subgraph
(Theorem 2), shrinking the dominant space term from ``O((|V|−|H|)²)`` to
``O((|V|−|H|)²/m)`` (Section 3.2).  Query processing is Eq. 5 — identical
to the hubs theorem, with the hub sum distributable across machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.flat_index import FlatPPVIndex, build_vectors, full_view
from repro.errors import IndexBuildError
from repro.graph.digraph import DiGraph
from repro.graph.subgraph import VirtualSubgraph
from repro.partition.flat import FlatPartition, flat_partition

__all__ = ["GPAIndex", "build_gpa_index"]


@dataclass
class GPAIndex(FlatPPVIndex):
    """Flat index whose hubs separate a balanced partition.

    ``partition`` keeps the part assignment so the distributed runtime can
    place each non-hub partial vector on the machine owning its subgraph.
    """

    partition: FlatPartition | None = None


def build_gpa_index(
    graph: DiGraph,
    num_parts: int,
    *,
    alpha: float = 0.15,
    tol: float = 1e-4,
    prune: float | None = None,
    seed: int = 0,
    partition: FlatPartition | None = None,
) -> GPAIndex:
    """Pre-compute the GPA index over an ``num_parts``-way partition.

    A pre-built :class:`FlatPartition` may be passed to skip partitioning
    (used by benchmarks that sweep other parameters); otherwise parts may
    be 10% out of balance.
    """
    if num_parts < 1:
        raise IndexBuildError("num_parts must be >= 1")
    if partition is None:
        partition = flat_partition(graph, num_parts, balance=0.1, seed=seed)
    index = GPAIndex(
        graph=graph,
        alpha=alpha,
        tol=tol,
        prune=tol if prune is None else prune,
        hubs=partition.hubs,
        partition=partition,
    )
    # Hub partial vectors and skeleton columns live on the whole graph: a
    # hub's neighbourhood spans the subgraphs it bridges, and skeleton
    # values s_u(h) are global PPV entries.
    whole = full_view(graph)
    build_vectors(
        index, "hub", index.hub_partials, whole, index.hubs, index.hubs,
        adjust=True,
    )
    build_vectors(index, "skel", index.skeleton_cols, whole, index.hubs)
    # Non-hub partial vectors are local PPVs of each part's virtual
    # subgraph (Theorem 2) plus first-passage deposits at the bridging
    # hubs, so each part's view is extended with the hub set (blocked):
    # walk mass stays inside the part until it freezes on a hub.
    for part_nodes in partition.part_nodes:
        if part_nodes.size == 0:
            continue
        view = VirtualSubgraph(
            graph, np.concatenate([part_nodes, partition.hubs])
        )
        hub_local = np.asarray(view.to_local(partition.hubs), dtype=np.int64)
        build_vectors(
            index, "part", index.node_partials, view, part_nodes, hub_local
        )
    return index
