"""Distributed GPA (Section 3.1).

Deployment: hub nodes are split round-robin across machines, each hub
travelling with its adjusted partial vector *and* its skeleton column; the
partition's subgraphs are dealt round-robin to machines, which then hold the
partial vectors of their subgraphs' non-hub members.  At query time the
machine owning the query node's partial vector adds it (Eq. 5's
``v_u`` machine), every machine folds in its own hubs' contributions, and
each sends exactly one vector to the coordinator.

``_deploy`` pre-computes, per machine, the sorted list of owned hubs; their
vectors stacked as one CSC (partials) / CSR (skeletons) pair are derived
*lazily* on a machine's first query (then cached), so a machine's share of
a query is one skeleton-row slice plus one ``CSC @ weights`` product — no
per-hub ownership probing on the query path — while deployments that are
never queried (space/offline measurements) keep only the store and never
pay the ~2x resident memory of the stacked copies.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.flat_index import FlatShare, StackedOps
from repro.core.updates import UpdateStats
from repro.distributed.cluster import ClusterBase
from repro.exec.states import FlatShareBuilder, ShareHost, flat_share_arrays

__all__ = ["DistributedGPA"]


class DistributedGPA(ClusterBase):
    """GPA index deployed over a simulated share-nothing cluster."""

    OWN = ("part", "node_partials")

    def _deploy(self) -> None:
        index, n = self.index, self.num_machines
        self._machine_owned: dict[int, np.ndarray] = {}
        self._machine_ops: dict[int, StackedOps] = {}
        for mid in range(n):
            # Round-robin slice of the (sorted) hub set owned by this
            # machine — pre-computed once, never rescanned per query.
            self._machine_owned[mid] = index.hubs[mid::n]
            self._deploy_hubs(mid, self._machine_owned[mid])
        if index.partition is not None:
            part_lists = index.partition.part_nodes
        else:  # pragma: no cover - GPA always carries its partition
            part_lists = [np.asarray(sorted(index.node_partials), dtype=np.int64)]
        for p, nodes in enumerate(part_lists):
            for u in nodes.tolist():
                self._deploy_own(p % n, u)

    def _ops_for(self, mid: int) -> StackedOps:
        """The machine's stacked (owned, CSC, CSR, nnz-per-hub) query ops.

        Built on first use and cached; the machine's stored hub partials
        are rebound as read-only views into the stacked CSC's buffers
        (see :meth:`ClusterBase._stack_ops`), so the partial-vector side
        of matmul-form queries costs one resident copy, not two (the
        skeleton CSR remains a reorganized copy).  Deployments that never
        query keep only the store.
        """
        ops = self._machine_ops.get(mid)
        if ops is None:
            ops = self._machine_ops[mid] = self._stack_ops(
                mid, self._machine_owned[mid]
            )
        return ops

    def _hub_load(self, mid: int) -> int:
        return int(self._machine_owned[mid].size)

    def _restack(self, stats: UpdateStats, machines: set[int]) -> None:
        hubs = self.index.hubs
        owner_of = self._owners_of(hubs)
        for mid in sorted(machines):
            self._machine_owned[mid] = hubs[owner_of == mid]
            self._machine_ops.pop(mid, None)

    # ----- execution seam ----------------------------------------------
    def _machine_share(self, mid: int, u: int | None = None) -> FlatShare:
        """Machine ``mid``'s share of Eq. 5: its hub slice, its store."""
        store = self.machines[mid].store
        return FlatShare(
            self._ops_for(mid),
            self.index.hubs,
            lambda hub, node: store.get(("hub" if hub else "part", node)),
            self.index.alpha,
        )

    def _machine_builder(self, mid: int) -> Callable[[], ShareHost]:
        """Serial backends get the evaluator over the runtime's live ops
        and store (zero extra memory); process backends get a picklable
        builder whose arrays are published to a shared arena once —
        per-batch IPC then carries node ids in and result blocks out.
        """
        if self._backend.is_local:
            host = ShareHost(self._machine_share(mid))
            return lambda: host
        part_store = {
            u: vec
            for (kind, u), vec in self.machines[mid].store.items()
            if kind == "part"
        }
        descriptor = self._lease.create_arena(
            flat_share_arrays(self._ops_for(mid), self.index.hubs, part_store)
        )
        return FlatShareBuilder(descriptor, self.index.alpha, self.num_nodes)
