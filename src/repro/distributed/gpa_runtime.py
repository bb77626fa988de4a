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

import time
from collections.abc import Callable

import numpy as np

from repro.core.flat_index import FlatShare, StackedOps, hub_weights
from repro.core.gpa import GPAIndex
from repro.core.updates import (
    UPDATE_WIRE_BYTES,
    EdgeUpdate,
    UpdateReceipt,
    apply_edge_update,
)
from repro.distributed.cluster import ClusterBase, QueryReport
from repro.distributed.machine import Machine
from repro.distributed.network import DEFAULT_COST_MODEL, CostModel
from repro.errors import ClusterError, QueryError
from repro.exec.backend import ExecutionBackend
from repro.exec.states import FlatShareBuilder, ShareHost, flat_share_arrays
from repro.kernels.dispatch import KernelsLike, resolve_kernels

__all__ = ["DistributedGPA"]


class DistributedGPA(ClusterBase):
    """GPA index deployed over a simulated share-nothing cluster."""

    def __init__(
        self,
        index: GPAIndex,
        num_machines: int,
        *,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        backend: ExecutionBackend | None = None,
        wire_version: int = 1,
        kernels: KernelsLike = None,
    ) -> None:
        super().__init__(
            num_nodes=index.graph.num_nodes,
            cost_model=cost_model,
            wire_version=wire_version,
        )
        self.index = index
        #: Kernel bundle / backend the machine shares dispatch to; defaults
        #: to the index's own setting so one switch flips the whole stack.
        self.kernels: KernelsLike = (
            index.kernels if kernels is None else kernels
        )
        self.epoch = 0
        self.init_cluster(num_machines)
        self.init_exec(backend)
        self._hub_owner: dict[int, int] = {}
        self._node_owner: dict[int, int] = {}
        self._machine_owned: dict[int, np.ndarray] = {}
        self._machine_ops: dict[int, StackedOps] = {}
        self._deploy()

    # ------------------------------------------------------------------
    def _deploy(self) -> None:
        index, n = self.index, self.num_machines
        for machine in self.machines:
            # Round-robin slice of the (sorted) hub set owned by this
            # machine — pre-computed once, never rescanned per query.
            owned = index.hubs[machine.machine_id :: n]
            for h in owned.tolist():
                machine.put(
                    ("hub", h),
                    index.hub_partials[h],
                    build_seconds=index.build_cost.get(("hub", h), 0.0),
                )
                machine.put(
                    ("skel", h),
                    index.skeleton_cols[h],
                    build_seconds=index.build_cost.get(("skel", h), 0.0),
                )
                self._hub_owner[h] = machine.machine_id
            self._machine_owned[machine.machine_id] = owned
        if index.partition is not None:
            part_lists = index.partition.part_nodes
        else:  # pragma: no cover - GPA always carries its partition
            part_lists = [np.asarray(sorted(index.node_partials), dtype=np.int64)]
        for p, nodes in enumerate(part_lists):
            machine = self.machines[p % n]
            for u in nodes.tolist():
                machine.put(
                    ("part", u),
                    index.node_partials[u],
                    build_seconds=index.build_cost.get(("part", u), 0.0),
                )
                self._node_owner[u] = machine.machine_id

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
            ops = self._stack_ops(
                self._machine_owned[mid], machine=self.machines[mid]
            )
            self._machine_ops[mid] = ops
        return ops

    def owner_map(self) -> np.ndarray:
        """Machine owning each node's own vector: ``(n,)`` array, ``-1``
        where no machine holds one (never happens after a full deploy).

        Hubs map to their hub-vector owner, everything else to its
        node-partial owner — the affinity map a sharded serving layer
        routes by (see :mod:`repro.sharding`).
        """
        return self._owners_to_map(self._node_owner, self._hub_owner)

    # ----- execution seam ----------------------------------------------
    def _machine_builder(self, mid: int) -> Callable[[], ShareHost]:
        """Machine ``mid``'s share of Eq. 5: its hub slice, its store.

        Serial backends get the evaluator over the runtime's live ops
        and store (zero extra memory); process backends get a picklable
        builder whose arrays are published to a shared arena once —
        per-batch IPC then carries node ids in and result blocks out.
        """
        ops, hubs, alpha = self._ops_for(mid), self.index.hubs, self.index.alpha
        store = self.machines[mid].store
        if self._backend.is_local:
            host = ShareHost(
                FlatShare(
                    ops,
                    hubs,
                    lambda hub, u: store.get(("hub" if hub else "part", u)),
                    alpha,
                    self.kernels,
                )
            )
            return lambda: host
        part_store = {u: vec for (kind, u), vec in store.items() if kind == "part"}
        descriptor = self._lease.create_arena(
            flat_share_arrays(ops, hubs, part_store)
        )
        return FlatShareBuilder(
            descriptor,
            alpha,
            self.num_nodes,
            resolve_kernels(self.kernels).backend,
        )

    # ------------------------------------------------------------------
    def _add_own_vector(
        self, machine: Machine, u: int, u_is_hub: bool, acc: np.ndarray
    ) -> None:
        """The query node's own partial vector, on its owning machine."""
        if u_is_hub:
            if self._hub_owner[u] == machine.machine_id:
                machine.accumulate(acc, ("hub", u))
                acc[u] += self.index.alpha
        elif self._node_owner.get(u) == machine.machine_id:
            machine.accumulate(acc, ("part", u))

    def query(self, u: int) -> tuple[np.ndarray, QueryReport]:
        """Distributed PPV of ``u`` plus the paper's per-query metrics."""
        index = self.index
        if not 0 <= u < index.graph.num_nodes:
            raise QueryError(f"query node {u} out of range")
        u_is_hub = index.is_hub(u)
        partials: dict[int, np.ndarray] = {}
        walls: dict[int, float] = {}
        for machine in self.machines:
            machine.reset_query_counters()
            mid = machine.machine_id
            # Materialise outside the timed region: the one-time stacked
            # build must not be charged to this query's runtime metric.
            owned, part_csc, skel_csr, nnz_per_hub = self._ops_for(mid)
            t0 = time.perf_counter()
            if owned.size:
                weights = hub_weights(skel_csr, owned, u, index.alpha)
                acc = part_csc @ (weights * (1.0 / index.alpha))
                machine.query_entries += int(nnz_per_hub[weights != 0.0].sum())
            else:
                acc = np.zeros(self.num_nodes)
            self._add_own_vector(machine, u, u_is_hub, acc)
            machine.query_seconds = time.perf_counter() - t0
            walls[mid] = machine.query_seconds
            partials[mid] = acc
        return self._finish_query(u, partials, walls)

    # ------------------------------------------------------------------
    def apply_update(self, update: EdgeUpdate) -> UpdateReceipt:
        """Apply one edge update, re-deploying only affected machines.

        The index is updated incrementally (affected columns only); each
        rebuilt vector is re-shipped to the machine that already owns it
        — metered coordinator→machine like any other traffic — and only
        those machines' stacked query ops are invalidated.  A hub
        promoted by the update is assigned to the machine owning the
        fewest hubs (deterministic, ties to the lowest id).  Bumps the
        deployment epoch when anything changed.
        """
        new_index, receipt = apply_edge_update(self.index, update)
        if not receipt.changed:
            return receipt.at_epoch(self.epoch)
        meter = self.coordinator.meter
        stats = receipt.stats
        invalidate: set[int] = set()
        touched: set[int] = set()
        for kind, node in sorted(stats.dropped_keys):
            if kind in ("hub", "skel"):
                mid = self._hub_owner[node]
                invalidate.add(mid)
            else:
                mid = self._node_owner[node]
            self.machines[mid].drop((kind, node))
            touched.add(mid)
        for kind, node in sorted(stats.dropped_keys):
            if kind == "part":
                self._node_owner.pop(node, None)
            elif kind == "hub":
                self._remove_owned_hub(node)
        for kind, node in sorted(stats.rebuilt_keys):
            if kind in ("hub", "skel"):
                mid = self._hub_owner.get(node)
                if mid is None:
                    mid = self._assign_new_hub(node)
                invalidate.add(mid)
                vec = (
                    new_index.hub_partials
                    if kind == "hub"
                    else new_index.skeleton_cols
                )[node]
            else:
                mid = self._node_owner.get(node)
                if mid is None:  # pragma: no cover - updates never add nodes
                    raise ClusterError(f"no owner for rebuilt vector {node}")
                vec = new_index.node_partials[node]
            machine = self.machines[mid]
            key = (kind, node)
            cost = new_index.build_cost.get(key, 0.0)
            if machine.has(key):
                machine.replace(key, vec, build_seconds=cost)
            else:
                machine.put(key, vec, build_seconds=cost)
            meter.record("coordinator", f"machine-{mid}", vec.wire_bytes)
            touched.add(mid)
        for mid in sorted(touched):
            meter.record("coordinator", f"machine-{mid}", UPDATE_WIRE_BYTES)
        for mid in sorted(invalidate):
            self._machine_ops.pop(mid, None)
        self.index = new_index
        self.epoch += 1
        # Drop registered machine states (and their shared arenas): the
        # next batch re-registers against the updated deployment.
        self._reset_exec()
        return receipt.at_epoch(self.epoch)

    def _assign_new_hub(self, h: int) -> int:
        """Deterministic placement of a promoted hub: fewest owned hubs,
        ties to the lowest machine id."""
        mid = min(
            range(self.num_machines),
            key=lambda m: (self._machine_owned[m].size, m),
        )
        owned = self._machine_owned[mid]
        self._machine_owned[mid] = np.insert(
            owned, int(np.searchsorted(owned, h)), h
        )
        self._hub_owner[h] = mid
        return mid

    def _remove_owned_hub(self, h: int) -> None:
        mid = self._hub_owner.pop(h, None)
        if mid is not None:
            owned = self._machine_owned[mid]
            self._machine_owned[mid] = owned[owned != h]

    # ------------------------------------------------------------------
    def validate_deployment(self) -> None:
        """Every hub and node-partial vector placed exactly once."""
        if set(self._hub_owner) != set(self.index.hub_partials):
            raise ClusterError("hub ownership incomplete")
        if set(self._node_owner) != set(self.index.node_partials):
            raise ClusterError("node-partial ownership incomplete")
