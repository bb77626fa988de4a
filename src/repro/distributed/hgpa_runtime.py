"""Distributed HGPA (Section 4.4, Algorithm 1).

Deployment follows the paper's hub-distributed layout: for *every* subgraph
in *every* level, its hub list is split round-robin across the ``s``
machines, and the machine that receives hub ``h`` stores both the adjusted
partial vector ``P_h`` and the entire skeleton column ``s_·(h)`` — so every
hub-weight lookup at query time is machine-local.  Leaf-level PPVs are
likewise spread round-robin by node.  A query is answered with exactly one
vector from each machine to the coordinator (Theorem 4: ``O(n·|V|)``
communication).

``_deploy`` pre-computes, per (machine, subgraph) pair, the machine's owned
hubs of that level; their vectors stacked as one CSC/CSR pair are derived
*lazily* on first query of that pair (then cached), so a machine's share of
a level is a skeleton-row slice plus one ``CSC @ weights`` product — no
ownership rescanning per query — and deployments that are never queried
(space/offline measurements) never pay the ~2x resident memory of the
stacked copies.

The port repair of the centralized query (see
:meth:`repro.core.hgpa.HGPAIndex.query_detailed`) distributes cleanly:
each machine zeroes its *own* level-term contribution at that level's hub
coordinates, and the owner of hub ``ĥ`` contributes the skeleton value
``s_u(ĥ)`` there instead — summing to the exact overwrite.
"""

from __future__ import annotations

import time
import weakref
from collections.abc import Callable

import numpy as np

from repro.core.flat_index import StackedOps, csr_row_dense, find_sorted
from repro.core.hgpa import HGPAIndex, HGPAShare
from repro.core.updates import (
    UPDATE_WIRE_BYTES,
    EdgeUpdate,
    UpdateReceipt,
    apply_edge_update,
)
from repro.distributed.cluster import ClusterBase, QueryReport
from repro.distributed.network import DEFAULT_COST_MODEL, CostModel
from repro.errors import ClusterError, QueryError
from repro.exec.backend import ExecutionBackend
from repro.exec.states import (
    HGPAShareBuilder,
    HierarchyHandle,
    ShareHost,
    hgpa_share_arrays,
)
from repro.kernels.dispatch import KernelsLike, resolve_kernels

__all__ = ["DistributedHGPA"]


class DistributedHGPA(ClusterBase):
    """HGPA index deployed over a simulated share-nothing cluster."""

    def __init__(
        self,
        index: HGPAIndex,
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
        self._leaf_owner: dict[int, int] = {}
        self._level_owned: dict[tuple[int, int], np.ndarray] = {}
        self._level_ops: dict[tuple[int, int], StackedOps] = {}
        self._deploy()

    # ------------------------------------------------------------------
    def _deploy(self) -> None:
        index, n = self.index, self.num_machines
        for sg in index.hierarchy.subgraphs:
            for machine in self.machines:
                mid = machine.machine_id
                # Round-robin slice of this level's (sorted) hub set owned
                # by this machine — pre-computed once per deployment.
                owned = sg.hubs[mid::n]
                if owned.size == 0:
                    continue
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
                    self._hub_owner[h] = mid
                self._level_owned[(mid, sg.node_id)] = owned
        for i, u in enumerate(sorted(index.leaf_ppv)):
            machine = self.machines[i % n]
            machine.put(
                ("leaf", u),
                index.leaf_ppv[u],
                build_seconds=index.build_cost.get(("leaf", u), 0.0),
            )
            self._leaf_owner[u] = machine.machine_id

    def _ops_for(self, mid: int, sid: int) -> StackedOps | None:
        """Stacked query ops of one (machine, level) pair, or ``None``
        when the machine owns no hub of that level.

        Built on first use and cached — the lazy counterpart of
        :meth:`DistributedGPA._ops_for`, one cache entry per pair so a
        query only materialises the levels its chain traverses.
        """
        key = (mid, sid)
        owned = self._level_owned.get(key)
        if owned is None:
            return None
        ops = self._level_ops.get(key)
        if ops is None:
            ops = self._stack_ops(owned, machine=self.machines[mid])
            self._level_ops[key] = ops
        return ops

    def owner_map(self) -> np.ndarray:
        """Machine owning each node's own vector (hub or leaf): ``(n,)``
        array — the affinity map a sharded serving layer routes by."""
        return self._owners_to_map(self._leaf_owner, self._hub_owner)

    # ----- execution seam ----------------------------------------------
    def _machine_builder(self, mid: int) -> Callable[[], ShareHost]:
        """Machine ``mid``'s share of Eq. 6: its hubs per level, its store.

        Serial backends get the evaluator over the runtime's live store,
        its level lookup delegating back to :meth:`_ops_for` (weakly:
        the backend must not pin the runtime) — per-(machine, level)
        laziness is preserved exactly, so a batch still only stacks the
        levels its chains traverse.  Process backends must materialise
        every owned level once to publish the shared arena; after that,
        per-batch IPC carries node ids in and result blocks out.
        """
        index = self.index
        store = self.machines[mid].store
        if self._backend.is_local:
            ops_for = weakref.WeakMethod(self._ops_for)
            host = ShareHost(
                HGPAShare(
                    index.hierarchy,
                    lambda sid: ops_for()(mid, sid),
                    lambda hub, u: store.get(("hub" if hub else "leaf", u)),
                    index.alpha,
                    self.num_nodes,
                    self.kernels,
                )
            )
            return lambda: host
        level_ops = {
            sid: self._ops_for(mid, sid)
            for omid, sid in sorted(self._level_owned)
            if omid == mid
        }
        leaf_store = {u: vec for (kind, u), vec in store.items() if kind == "leaf"}
        descriptor = self._lease.create_arena(
            hgpa_share_arrays(level_ops, leaf_store)
        )
        return HGPAShareBuilder(
            descriptor,
            tuple(level_ops),
            HierarchyHandle(index.hierarchy),
            index.alpha,
            self.num_nodes,
            resolve_kernels(self.kernels).backend,
        )

    # ------------------------------------------------------------------
    def query(self, u: int) -> tuple[np.ndarray, QueryReport]:
        """Distributed PPV of ``u`` plus the paper's per-query metrics."""
        index = self.index
        if not 0 <= u < index.graph.num_nodes:
            raise QueryError(f"query node {u} out of range")
        chain = index.hierarchy.chain(u)
        u_is_hub = index.hierarchy.is_hub(u)
        alpha = index.alpha
        partials: dict[int, np.ndarray] = {}
        walls: dict[int, float] = {}
        for machine in self.machines:
            machine.reset_query_counters()
            mid = machine.machine_id
            # Materialise the chain's levels outside the timed region: the
            # one-time stacked builds must not be charged to this query.
            level_ops = {sg.node_id: self._ops_for(mid, sg.node_id) for sg in chain}
            t0 = time.perf_counter()
            acc = np.zeros(self.num_nodes)
            for sg in chain:
                ops = level_ops[sg.node_id]
                if ops is None:
                    continue
                owned, part_csc, skel_csr, nnz_per_hub = ops
                raw = csr_row_dense(skel_csr, u)
                weights = raw
                own_level = u_is_hub and sg is chain[-1]
                if own_level:
                    hits, pos = find_sorted(owned, np.asarray([u]))
                    if hits.size:
                        weights = raw.copy()
                        weights[pos[0]] -= alpha
                contrib = part_csc @ (weights * (1.0 / alpha))
                machine.query_entries += int(nnz_per_hub[weights != 0.0].sum())
                if not own_level:
                    # Zero this machine's level term at the level's hub
                    # coordinates; the hubs' owners re-add the skeleton
                    # values (the distributed port repair).
                    contrib[sg.hubs] = 0.0
                    contrib[owned] = raw
                acc += contrib
            if u_is_hub:
                if self._hub_owner[u] == mid:
                    machine.accumulate(acc, ("hub", u))
                    acc[u] += alpha
            elif self._leaf_owner.get(u) == mid:
                machine.accumulate(acc, ("leaf", u))
            machine.query_seconds = time.perf_counter() - t0
            walls[mid] = machine.query_seconds
            partials[mid] = acc
        return self._finish_query(u, partials, walls)

    # ------------------------------------------------------------------
    def apply_update(self, update: EdgeUpdate) -> UpdateReceipt:
        """Apply one edge update, re-deploying only affected machines.

        The index is updated via the hierarchical chain rebuild; every
        rebuilt vector ships to the machine already owning it (metered
        coordinator→machine), dropped vectors (a promoted node's old
        role) are removed from their owners, and only the stacked ops of
        the affected (machine, level) pairs are invalidated — untouched
        levels keep serving from their cached CSC/CSR.  A promoted hub is
        assigned to the machine owning the fewest hubs (deterministic).
        Bumps the deployment epoch when anything changed.
        """
        new_index, receipt = apply_edge_update(self.index, update)
        if not receipt.changed:
            return receipt.at_epoch(self.epoch)
        meter = self.coordinator.meter
        stats = receipt.stats
        touched: set[int] = set()
        for kind, node in sorted(stats.dropped_keys):
            owners = self._hub_owner if kind in ("hub", "skel") else self._leaf_owner
            mid = owners[node]
            self.machines[mid].drop((kind, node))
            touched.add(mid)
        for kind, node in sorted(stats.dropped_keys):
            if kind == "leaf":
                self._leaf_owner.pop(node, None)
            elif kind == "hub":
                self._hub_owner.pop(node, None)
        for kind, node in sorted(stats.rebuilt_keys):
            if kind in ("hub", "skel"):
                mid = self._hub_owner.get(node)
                if mid is None:
                    mid = min(
                        range(self.num_machines),
                        key=lambda m: (
                            sum(
                                owned.size
                                for (omid, _), owned in self._level_owned.items()
                                if omid == m
                            ),
                            m,
                        ),
                    )
                    self._hub_owner[node] = mid
                vec = (
                    new_index.hub_partials
                    if kind == "hub"
                    else new_index.skeleton_cols
                )[node]
            else:
                mid = self._leaf_owner.get(node)
                if mid is None:  # pragma: no cover - updates never add nodes
                    raise ClusterError(f"no owner for rebuilt leaf vector {node}")
                vec = new_index.leaf_ppv[node]
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
        # Re-derive ownership slices of the rebuilt levels from the hub
        # owners (surviving hubs keep their machines; a promoted hub joins
        # its assigned machine's slice) and invalidate only those levels'
        # stacked ops.
        for sid in stats.affected_subgraphs:
            sg = new_index.hierarchy.subgraphs[sid]
            owner_of = np.asarray(
                [self._hub_owner.get(int(h), -1) for h in sg.hubs.tolist()],
                dtype=np.int64,
            )
            for machine in self.machines:
                mid = machine.machine_id
                self._level_ops.pop((mid, sid), None)
                owned = sg.hubs[owner_of == mid]
                if owned.size:
                    self._level_owned[(mid, sid)] = owned
                else:
                    self._level_owned.pop((mid, sid), None)
        self.index = new_index
        self.epoch += 1
        # Drop registered machine states (and their shared arenas): the
        # next batch re-registers against the updated deployment.
        self._reset_exec()
        return receipt.at_epoch(self.epoch)

    # ------------------------------------------------------------------
    def validate_deployment(self) -> None:
        """Every hub and leaf vector placed exactly once."""
        hubs = set(self.index.hub_partials)
        if set(self._hub_owner) != hubs:
            raise ClusterError("hub ownership incomplete")
        leaves = set(self.index.leaf_ppv)
        if set(self._leaf_owner) != leaves:
            raise ClusterError("leaf ownership incomplete")
