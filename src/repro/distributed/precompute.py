"""Distributed pre-computation accounting (Section 5, Figure 12).

Pre-computation in the paper needs *no* network traffic: every machine keeps
a copy of the graph structure and computes the vectors of the nodes assigned
to it independently.  The simulation therefore only needs to split the
measured per-vector build costs across machines — the deployment classes
already attribute each stored vector's build time to its owner — and report
the makespan.  This module adds the summary used by the offline-time
figures.

The costs split are ``build_cost`` values: solver-thread CPU seconds
(``time.thread_time``), each vector's share of the chunk it was solved in.
They are not wall time.  A build runs two solver threads, so its wall is
shorter than the summed costs, and a machine's makespan here is the CPU
time its vectors took, as if it solved them alone on one core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.cluster import ClusterBase

__all__ = ["PrecomputeReport", "precompute_report"]


@dataclass(frozen=True)
class PrecomputeReport:
    """Offline-phase summary of one deployment."""

    num_machines: int
    makespan_seconds: float
    total_seconds: float
    per_machine_seconds: tuple[float, ...]
    max_machine_bytes: int
    total_bytes: int

    @property
    def parallel_efficiency(self) -> float:
        """total / (machines × makespan): 1.0 = perfectly balanced split."""
        denom = self.num_machines * self.makespan_seconds
        return self.total_seconds / denom if denom > 0 else 1.0


def precompute_report(cluster: ClusterBase) -> PrecomputeReport:
    """Summarise the offline phase of a deployed GPA/HGPA cluster."""
    per_machine = tuple(m.offline_seconds for m in cluster.machines)
    return PrecomputeReport(
        num_machines=cluster.num_machines,
        makespan_seconds=max(per_machine),
        total_seconds=sum(per_machine),
        per_machine_seconds=per_machine,
        max_machine_bytes=cluster.max_machine_bytes(),
        total_bytes=cluster.total_stored_bytes(),
    )
