"""Internal weighted undirected graph used by the multilevel partitioner.

The partitioner (like METIS [26]) works on a symmetrised view of the input
digraph: the weight of an undirected edge ``{u, v}`` is the number of
directed edges between ``u`` and ``v``, so an undirected cut weight equals
the number of directed edges crossing the cut.  Vertex weights carry the
number of original vertices collapsed into a coarse vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph

__all__ = ["UGraph", "ugraph_from_digraph", "ugraph_from_coo"]


@dataclass
class UGraph:
    """Symmetric weighted graph in CSR form with vertex weights."""

    indptr: np.ndarray
    indices: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice in CSR)."""
        return self.indices.size // 2

    @property
    def total_vweight(self) -> int:
        return int(self.vweights.sum())

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edge_weights_of(self, u: int) -> np.ndarray:
        return self.eweights[self.indptr[u] : self.indptr[u + 1]]

    def cut_weight(self, labels: np.ndarray) -> float:
        """Total weight of edges whose endpoints have different labels."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        crossing = labels[src] != labels[self.indices]
        return float(self.eweights[crossing].sum()) / 2.0

    def validate(self) -> None:
        """Cheap structural sanity check (used by tests)."""
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise PartitionError("bad indptr")
        if self.indices.size != self.indptr[-1]:
            raise PartitionError("indices/indptr mismatch")
        if self.eweights.size != self.indices.size:
            raise PartitionError("eweights size mismatch")
        if self.vweights.size != self.num_nodes:
            raise PartitionError("vweights size mismatch")


def ugraph_from_coo(
    num_nodes: int,
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray | None = None,
    vweights: np.ndarray | None = None,
) -> UGraph:
    """Build a symmetric :class:`UGraph` from (possibly directed) edge COO.

    Parallel/duplicate entries are summed; self loops are dropped (they never
    affect a cut).  The arrays are canonical CSR: sorted column indices, no
    explicit zeros.  Edge weights are integers or halves of them, so every
    sum is exact whatever order it is taken in.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    w = np.ones(rows.size) if weights is None else np.asarray(weights, dtype=np.float64)
    keep = rows != cols
    rows, cols, w = rows[keep], cols[keep], w[keep]
    keys, slot = np.unique(
        np.concatenate((rows * num_nodes + cols, cols * num_nodes + rows)),
        return_inverse=True,
    )
    eweights = np.bincount(slot, np.concatenate((w, w)), keys.size).astype(np.float64)
    nonzero = eweights != 0
    keys, eweights = keys[nonzero], eweights[nonzero]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // max(num_nodes, 1), minlength=num_nodes), out=indptr[1:])
    if vweights is None:
        vweights = np.ones(num_nodes, dtype=np.int64)
    return UGraph(
        indptr=indptr,
        indices=keys % max(num_nodes, 1),
        eweights=eweights,
        vweights=np.asarray(vweights, dtype=np.int64),
    )


def ugraph_from_digraph(graph: DiGraph) -> UGraph:
    """Symmetrise a digraph for partitioning (unit vertex weights)."""
    src, dst = graph.edge_arrays()
    return ugraph_from_coo(graph.num_nodes, src, dst)
