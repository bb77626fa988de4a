"""A Blogel-style block-centric engine running power-iteration PPV.

Blogel [47] breaks the vertex-centric bottleneck by operating on whole
blocks (connected partitions): within one global superstep every block
solves its *local* subproblem to convergence, and only boundary values move
between blocks.  For PPV this is block-Jacobi on the linear system
``x = (1-α)Wᵀx + α·x_q``: the within-block part of ``Wᵀ`` is solved
iteratively per superstep with the cross-block inflow frozen, so the number
of *communication rounds* drops from ≈ ``log ε / log(1-α)`` (Pregel) to the
block-coupling mixing time, and traffic per round shrinks to the cross-block
boundary — exactly why the paper's Figs. 21–22 place Blogel between Pregel+
and HGPA.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.engines.base import EngineReport, MESSAGE_BYTES, bsp_superstep_seconds
from repro.errors import ConvergenceError, QueryError
from repro.graph.digraph import DiGraph
from repro.partition.kway import partition_kway

__all__ = ["BlogelPPR"]


class BlogelPPR:
    """Block-centric PPV on a simulated Blogel deployment."""

    def __init__(
        self,
        graph: DiGraph,
        num_machines: int,
        *,
        num_blocks: int | None = None,
        alpha: float = 0.15,
        partition_seed: int = 0,
    ) -> None:
        self.graph = graph
        self.num_machines = num_machines
        self.alpha = alpha
        # One block per machine by default: the coarsest (best) Blogel
        # deployment, which maximises the within-block share of edges and so
        # minimises communication rounds.
        self.num_blocks = num_blocks or num_machines
        self.block_of = partition_kway(graph, self.num_blocks, seed=partition_seed)
        self.machine_of_block = (
            np.arange(self.num_blocks, dtype=np.int64) % num_machines
        )
        machine_of = self.machine_of_block[self.block_of]
        # Split Wᵀ into within-block and cross-block parts.
        wt = graph.transition_T().tocoo()
        # wt[v, u] corresponds to the edge u -> v.
        same_block = self.block_of[wt.col] == self.block_of[wt.row]
        self._wt_in = sp.csr_matrix(
            (wt.data[same_block], (wt.row[same_block], wt.col[same_block])),
            shape=wt.shape,
        )
        cross = ~same_block
        self._wt_cross = sp.csr_matrix(
            (wt.data[cross], (wt.row[cross], wt.col[cross])), shape=wt.shape
        )
        # Communication: combined boundary messages crossing machines.
        src, dst = wt.col[cross], wt.row[cross]
        between_machines = machine_of[src] != machine_of[dst]
        pairs = (
            machine_of[src[between_machines]] * np.int64(graph.num_nodes)
            + dst[between_machines]
        )
        self._combined_msgs = int(np.unique(pairs).size)
        # Compute load: within-block edges per machine.
        counts = np.zeros(num_machines, dtype=np.int64)
        np.add.at(counts, machine_of, np.asarray(graph.out_degrees))
        self._max_machine_edges = int(counts.max())

    @property
    def per_superstep_bytes(self) -> int:
        """Cross-machine boundary bytes of one global superstep."""
        return self._combined_msgs * MESSAGE_BYTES

    def query(
        self,
        query: int,
        *,
        tol: float = 1e-4,
        inner_tol_factor: float = 0.1,
        max_supersteps: int = 10_000,
        max_inner: int = 500,
    ) -> tuple[np.ndarray, EngineReport]:
        """Run PPV(query) to convergence; returns the vector and metrics."""
        n = self.graph.num_nodes
        if not 0 <= query < n:
            raise QueryError(f"query node {query} out of range")
        x = np.zeros(n)
        x[query] = 1.0
        one_minus = 1.0 - self.alpha
        inner_tol = tol * inner_tol_factor
        t0 = time.perf_counter()
        runtime = 0.0
        comm_bytes = 0
        supersteps = 0
        for supersteps in range(1, max_supersteps + 1):
            inflow = one_minus * (self._wt_cross @ x)  # boundary exchange
            comm_bytes += self.per_superstep_bytes
            prev = x
            # Local (block-diagonal) solve with the inflow frozen.
            inner_iters = 0
            y = x.copy()
            for inner_iters in range(1, max_inner + 1):
                nxt = one_minus * (self._wt_in @ y) + inflow
                nxt[query] += self.alpha
                delta_in = np.abs(nxt - y).max()
                y = nxt
                if delta_in <= inner_tol:
                    break
            x = y
            runtime += bsp_superstep_seconds(
                inner_iters * self._max_machine_edges,
                self.per_superstep_bytes,
                self.num_machines,
            )
            if np.abs(x - prev).max() <= tol:
                break
        else:
            raise ConvergenceError(
                f"Blogel PPR: no convergence in {max_supersteps} supersteps"
            )
        wall = time.perf_counter() - t0
        report = EngineReport(
            engine="blogel",
            supersteps=supersteps,
            communication_bytes=comm_bytes,
            runtime_seconds=runtime,
            wall_seconds=wall,
            max_machine_edges=self._max_machine_edges,
        )
        return x, report
