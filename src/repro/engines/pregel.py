"""A Pregel+-style vertex-centric BSP engine running power-iteration PPV.

Faithful to the execution model of [36, 48]: vertices are hash-partitioned
across machines; in every superstep each vertex scatters
``(1-α)·x_v / out(v)`` along its out-edges, messages to the same target
from one machine are merged by a sender-side sum combiner (the Pregel+
message-reduction technique), and a global aggregator checks convergence.
Because computing iteration ``k+1`` needs iteration ``k``'s values from
*other* machines, every superstep is a full communication round — the
structural reason the paper's Figs. 21–22 show these engines orders of
magnitude behind HGPA, whose query needs exactly one round.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engines.base import (
    EngineReport,
    MESSAGE_BYTES,
    bsp_superstep_seconds,
    cross_machine_message_counts,
    hash_machine_assignment,
    per_machine_edge_counts,
)
from repro.errors import ConvergenceError, QueryError
from repro.graph.digraph import DiGraph

__all__ = ["PregelPPR"]


class PregelPPR:
    """Power-iteration PPV on a simulated Pregel+ deployment."""

    def __init__(
        self,
        graph: DiGraph,
        num_machines: int,
        *,
        alpha: float = 0.15,
        combiner: bool = True,
    ) -> None:
        self.graph = graph
        self.num_machines = num_machines
        self.alpha = alpha
        self.combiner = combiner
        self.machine_of = hash_machine_assignment(graph.num_nodes, num_machines)
        self._combined_msgs, self._raw_msgs = cross_machine_message_counts(
            graph, self.machine_of, combiner=combiner
        )
        self._machine_edges = per_machine_edge_counts(graph, self.machine_of)

    @property
    def per_superstep_bytes(self) -> int:
        """Cross-machine message bytes of one all-active superstep."""
        return self._combined_msgs * MESSAGE_BYTES

    def query(
        self,
        query: int,
        *,
        tol: float = 1e-4,
        max_supersteps: int = 10_000,
    ) -> tuple[np.ndarray, EngineReport]:
        """Run PPV(query) to convergence; returns the vector and metrics."""
        n = self.graph.num_nodes
        if not 0 <= query < n:
            raise QueryError(f"query node {query} out of range")
        wt = self.graph.transition_T()
        x = np.zeros(n)
        x[query] = 1.0
        max_edges = int(self._machine_edges.max())
        step_seconds = bsp_superstep_seconds(
            max_edges, self.per_superstep_bytes, self.num_machines
        )
        t0 = time.perf_counter()
        supersteps = 0
        for supersteps in range(1, max_supersteps + 1):
            nxt = (1.0 - self.alpha) * (wt @ x)
            nxt[query] += self.alpha
            delta = np.abs(nxt - x).max()  # the convergence aggregator
            x = nxt
            if delta <= tol:
                break
        else:
            raise ConvergenceError(
                f"Pregel PPR: no convergence in {max_supersteps} supersteps"
            )
        wall = time.perf_counter() - t0
        report = EngineReport(
            engine="pregel+" if self.combiner else "pregel",
            supersteps=supersteps,
            communication_bytes=supersteps * self.per_superstep_bytes,
            runtime_seconds=supersteps * step_seconds,
            wall_seconds=wall,
            max_machine_edges=max_edges,
        )
        return x, report
