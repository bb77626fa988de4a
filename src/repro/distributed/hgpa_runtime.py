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

import weakref
from collections.abc import Callable

import numpy as np

from repro.core.flat_index import StackedOps
from repro.core.hgpa import HGPAShare
from repro.core.updates import UpdateStats
from repro.distributed.cluster import ClusterBase
from repro.exec.states import (
    HGPAShareBuilder,
    HierarchyHandle,
    ShareHost,
    hgpa_share_arrays,
)

__all__ = ["DistributedHGPA"]


class DistributedHGPA(ClusterBase):
    """HGPA index deployed over a simulated share-nothing cluster."""

    OWN = ("leaf", "leaf_ppv")

    def _deploy(self) -> None:
        index, n = self.index, self.num_machines
        self._level_owned: dict[tuple[int, int], np.ndarray] = {}
        self._level_ops: dict[tuple[int, int], StackedOps] = {}
        for sg in index.hierarchy.subgraphs:
            for mid in range(n):
                # Round-robin slice of this level's (sorted) hub set owned
                # by this machine — pre-computed once per deployment.
                owned = sg.hubs[mid::n]
                if owned.size:
                    self._level_owned[(mid, sg.node_id)] = owned
                    self._deploy_hubs(mid, owned)
        for i, u in enumerate(sorted(index.leaf_ppv)):
            self._deploy_own(i % n, u)

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
            ops = self._level_ops[key] = self._stack_ops(mid, owned)
        return ops

    def _hub_load(self, mid: int) -> int:
        return sum(
            owned.size
            for (omid, _), owned in self._level_owned.items()
            if omid == mid
        )

    def _restack(self, stats: UpdateStats, machines: set[int]) -> None:
        # Only the rebuilt levels: surviving hubs keep their machines, a
        # promoted hub joins its assigned machine's slice.
        for sid in stats.affected_subgraphs:
            hubs = self.index.hierarchy.subgraphs[sid].hubs
            owner_of = self._owners_of(hubs)
            for mid in range(self.num_machines):
                self._level_ops.pop((mid, sid), None)
                owned = hubs[owner_of == mid]
                if owned.size:
                    self._level_owned[(mid, sid)] = owned
                else:
                    self._level_owned.pop((mid, sid), None)

    # ----- execution seam ----------------------------------------------
    def _machine_share(self, mid: int, u: int | None = None) -> HGPAShare:
        """Machine ``mid``'s share of Eq. 6: its hubs per level, its store.

        The level lookup delegates back to :meth:`_ops_for` (weakly: a
        backend holding the share must not pin the runtime), so
        per-(machine, level) laziness is preserved exactly — a batch
        only stacks the levels its chains traverse.
        """
        index, store = self.index, self.machines[mid].store
        if u is not None:
            for sg in index.hierarchy.chain(u):
                self._ops_for(mid, sg.node_id)
        ops_for = weakref.WeakMethod(self._ops_for)
        return HGPAShare(
            index.hierarchy,
            lambda sid: ops_for()(mid, sid),
            lambda hub, node: store.get(("hub" if hub else "leaf", node)),
            index.alpha,
            self.num_nodes,
        )

    def _machine_builder(self, mid: int) -> Callable[[], ShareHost]:
        """Serial backends get the evaluator over the runtime's live
        store.  Process backends must materialise every owned level once
        to publish the shared arena; after that, per-batch IPC carries
        node ids in and result blocks out.
        """
        if self._backend.is_local:
            host = ShareHost(self._machine_share(mid))
            return lambda: host
        level_ops = {
            sid: self._ops_for(mid, sid)
            for omid, sid in sorted(self._level_owned)
            if omid == mid
        }
        leaf_store = {
            u: vec
            for (kind, u), vec in self.machines[mid].store.items()
            if kind == "leaf"
        }
        descriptor = self._lease.create_arena(
            hgpa_share_arrays(level_ops, leaf_store)
        )
        return HGPAShareBuilder(
            descriptor,
            tuple(level_ops),
            HierarchyHandle(self.index.hierarchy),
            self.index.alpha,
            self.num_nodes,
        )
