"""Shared plumbing for the general-purpose graph-engine baselines.

The paper's Section 6.2.8 compares HGPA against power iteration running on
Pregel+ [48] and Blogel [47].  What decides that comparison is *how many
rounds of communication* each system needs and *how many bytes* cross
machine boundaries per round — counts these simulated engines reproduce
exactly, with :data:`~repro.distributed.network.DEFAULT_COST_MODEL` translating
them into seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.network import DEFAULT_COST_MODEL
from repro.errors import ClusterError
from repro.graph.digraph import DiGraph

__all__ = ["EngineReport", "hash_machine_assignment", "cross_machine_message_counts"]


@dataclass(frozen=True)
class EngineReport:
    """Execution summary of one engine query."""

    engine: str
    supersteps: int
    communication_bytes: int
    runtime_seconds: float
    wall_seconds: float
    max_machine_edges: int

    @property
    def communication_kb(self) -> float:
        return self.communication_bytes / 1024.0


def hash_machine_assignment(num_nodes: int, num_machines: int) -> np.ndarray:
    """Pregel-style hash placement: vertex ``v`` lives on ``v mod n``."""
    if num_machines < 1:
        raise ClusterError("need at least one machine")
    return np.arange(num_nodes, dtype=np.int64) % num_machines


MESSAGE_BYTES = 12  # vertex id (int32) + value (float64)


def cross_machine_message_counts(
    graph: DiGraph, machine_of: np.ndarray, *, combiner: bool = True
) -> tuple[int, int]:
    """Per-superstep message statistics for an all-vertices-active step.

    Returns ``(combined_messages, raw_messages)`` crossing machine
    boundaries.  With a sender-side sum combiner (Pregel+), all messages
    from machine ``i`` to the same target vertex collapse into one — the
    count of distinct ``(source machine, target vertex)`` pairs.
    """
    src, dst = graph.edge_arrays()
    crossing = machine_of[src] != machine_of[dst]
    raw = int(crossing.sum())
    if not combiner:
        return raw, raw
    pairs = machine_of[src[crossing]] * np.int64(graph.num_nodes) + dst[crossing]
    combined = int(np.unique(pairs).size)
    return combined, raw


def per_machine_edge_counts(graph: DiGraph, machine_of: np.ndarray) -> np.ndarray:
    """Out-edges owned by each machine (the per-superstep compute load)."""
    num_machines = int(machine_of.max()) + 1 if machine_of.size else 1
    counts = np.zeros(num_machines, dtype=np.int64)
    np.add.at(counts, machine_of, graph.out_degrees)
    return counts


def bsp_superstep_seconds(
    max_machine_edges: int, comm_bytes: int, num_machines: int
) -> float:
    """Modeled duration of one BSP superstep: slowest machine's scatter,
    the message exchange, and the barrier."""
    return DEFAULT_COST_MODEL.compute_seconds(
        max_machine_edges
    ) + DEFAULT_COST_MODEL.transfer_seconds(comm_bytes, num_machines)
