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

from repro.core.flat_index import FlatPPVIndex, flat_solves, run_solves
from repro.errors import IndexBuildError
from repro.graph.digraph import DiGraph
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
    non_hubs = np.setdiff1d(np.arange(graph.num_nodes), partition.hubs)
    run_solves(index, flat_solves(index, index.hubs, index.hubs, non_hubs))
    return index
