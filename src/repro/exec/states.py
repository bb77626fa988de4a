"""Worker-side hub-share evaluators for the runtimes and the sharding layer.

A batch crosses the execution seam as node ids in and a result block
out; what answers it on the other side is the index family's own
evaluator (:class:`~repro.core.flat_index.FlatShare` /
:class:`~repro.core.hgpa.HGPAShare`) behind a :class:`ShareHost` that
times it.  In-process the host wraps the caller's live evaluator; in a
worker process one picklable builder per family rebuilds it around
zero-copy read-only views of a shared arena — stacked ops, hub vectors
rebound as slices of the stacked CSC as a machine binds them, the own
vectors in :mod:`repro.core.stacked`'s keyed-store layout — so
the worker runs the same code as the parent on the same bytes and the
results are bitwise equal.  What the arena holds decides whose share it
is: every hub and own vector for a :class:`~repro.sharding.replica.Replica`
(published once per engine object, see
:func:`~repro.exec.backend.ExecutionBackend.memo_arena` — replicas
sharing one engine share one arena), one machine's slice for a
distributed runtime.

Engines without a supported layout (a distributed runtime behind a
replica, an approximation) simply get no builder: :func:`engine_builder`
returns ``None`` and the shard serves them inline as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.flat_index import FlatPPVIndex, FlatShare, HubShare, StackedOps
from repro.core.hgpa import HGPAIndex, HGPAShare
from repro.core.sparsevec import SparseVec
from repro.core.stacked import column_store, pack_store, unpack_store
from repro.errors import PartitionError
from repro.exec.shm import (
    ArenaDescriptor,
    build_ops_from_view,
    stacked_ops_arrays,
)

__all__ = [
    "ShareHost",
    "HierarchyHandle",
    "FlatShareBuilder",
    "HGPAShareBuilder",
    "flat_share_arrays",
    "hgpa_share_arrays",
    "engine_builder",
]


class ShareHost:
    """One evaluator behind the execution seam, timed.

    The wall clock covers only the evaluation, so the caller's load
    accounting (:meth:`Replica.note_served`, a runtime's per-machine
    walls) charges what the share actually computed, not the IPC.
    """

    __slots__ = ("share",)

    def __init__(self, share: HubShare) -> None:
        self.share = share

    def serve(self, nodes: np.ndarray, sparse: bool) -> tuple[Any, float]:
        """A replica's or a machine's answer: ``(rows, wall)``."""
        t0 = time.perf_counter()
        rows = self.share.evaluate(nodes, sparse=sparse)
        return rows, time.perf_counter() - t0


class HierarchyHandle:
    """Stand-in for a worker-side :class:`PartitionHierarchy`.

    Carries exactly what the HGPA query paths read — the subgraph tree
    plus the per-node lookup tables behind ``chain`` / ``is_hub`` — and
    none of the build-side state (graph adjacency, virtual-subgraph
    views), so pickling it ships kilobytes, not the graph.
    """

    __slots__ = ("subgraphs", "hub_level", "deepest_subgraph")

    def __init__(self, hierarchy: Any) -> None:
        self.subgraphs = hierarchy.subgraphs
        self.hub_level = hierarchy.hub_level
        self.deepest_subgraph = hierarchy.deepest_subgraph

    def is_hub(self, u: int) -> bool:
        return bool(self.hub_level[u] >= 0)

    def chain(self, u: int) -> list[Any]:
        sid = int(self.deepest_subgraph[u])
        if sid < 0:  # pragma: no cover - deploy-validated hierarchies
            raise PartitionError(f"node {u} missing from hierarchy tables")
        path = []
        cur: int | None = sid
        while cur is not None:
            sg = self.subgraphs[cur]
            path.append(sg)
            cur = sg.parent
        path.reverse()
        return path


_OWN = ("own_nodes", "own_indptr", "own_idx", "own_val")
"""Arena names of a share's packed own-vector store (node partials / leaf
PPVs): :func:`~repro.core.stacked.pack_store`'s four arrays."""


# ----------------------------------------------------------------------
# Flat hub-set shares (FlatPPVIndex and subclasses, GPA machines)


def flat_share_arrays(
    ops: StackedOps, all_hubs: np.ndarray, node_store: dict[int, SparseVec]
) -> dict[str, np.ndarray]:
    """Arena arrays of one flat share: its stacked ops, the global hub
    set, and the node partials it holds."""
    arrays = stacked_ops_arrays(ops)
    arrays["all_hubs"] = all_hubs
    arrays.update(zip(_OWN, pack_store(node_store)))
    return arrays


@dataclass(frozen=True)
class FlatShareBuilder:
    """Picklable recipe for a worker-side :class:`FlatShare`."""

    descriptor: ArenaDescriptor
    alpha: float
    num_nodes: int

    def __call__(self) -> ShareHost:
        view = self.descriptor.attach()
        ops = build_ops_from_view(view, "", self.num_nodes)
        # Hub and non-hub ids are disjoint, so one dict serves both arms
        # of the own lookup; hub partials are views of the stacked CSC.
        own = unpack_store(*(view.arrays[name] for name in _OWN))
        own.update(column_store(ops[0], ops[1]))
        return ShareHost(
            FlatShare(
                ops,
                view.arrays["all_hubs"],
                lambda _hub, u: own.get(u),
                self.alpha,
            )
        )


# ----------------------------------------------------------------------
# HGPA shares (HGPAIndex, HGPA machines)


def hgpa_share_arrays(
    level_ops: dict[int, StackedOps], leaf_store: dict[int, SparseVec]
) -> dict[str, np.ndarray]:
    """Arena arrays of one HGPA share: stacked ops per level it owns a
    hub of (prefix ``s<sid>:``) and the leaf PPVs it holds."""
    arrays = dict(zip(_OWN, pack_store(leaf_store)))
    for sid in sorted(level_ops):
        arrays.update(stacked_ops_arrays(level_ops[sid], prefix=f"s{sid}:"))
    return arrays


@dataclass(frozen=True)
class HGPAShareBuilder:
    """Picklable recipe for a worker-side :class:`HGPAShare`."""

    descriptor: ArenaDescriptor
    sids: tuple[int, ...]
    hierarchy: HierarchyHandle
    alpha: float
    num_nodes: int

    def __call__(self) -> ShareHost:
        view = self.descriptor.attach()
        level_ops = {
            sid: build_ops_from_view(view, f"s{sid}:", self.num_nodes)
            for sid in self.sids
        }
        # Hub sets are disjoint across subgraphs, so every hub's partial
        # is a view of exactly one level's stacked CSC.
        own = unpack_store(*(view.arrays[name] for name in _OWN))
        for sid in self.sids:
            owned, part_csc, _, _ = level_ops[sid]
            own.update(column_store(owned, part_csc))
        return ShareHost(
            HGPAShare(
                self.hierarchy,
                level_ops.get,
                lambda _hub, u: own.get(u),
                self.alpha,
                self.num_nodes,
            )
        )


# ----------------------------------------------------------------------


def engine_builder(query_backend: Any, exec_backend: Any) -> Any:
    """A picklable worker-state builder for a replica's engine, or ``None``.

    ``None`` means the engine has no shared-memory layout the workers
    understand (a distributed runtime, an approximation, or a subclass
    that overrides the batch body ``_rows``) and the shard must serve it
    inline.
    The worker gets the index's own share — everything owned.  Its arena
    is memoized on the execution backend for the life of the engine
    object, so replicas sharing one engine publish it once and an
    updated backend's new engine publishes afresh.
    """
    engine = query_backend.engine
    family: Any = HGPAIndex if isinstance(engine, HGPAIndex) else FlatPPVIndex
    if not isinstance(engine, family) or type(engine)._rows is not family._rows:
        return None
    share = engine._share()
    if isinstance(share, FlatShare):
        descriptor = exec_backend.memo_arena(
            engine,
            lambda: flat_share_arrays(
                share.ops, share.all_hubs, engine.node_partials
            ),
        )
        return FlatShareBuilder(descriptor, share.alpha, share.num_nodes)
    sids = tuple(sg.node_id for sg in engine.hierarchy.subgraphs if sg.hubs.size)
    descriptor = exec_backend.memo_arena(
        engine,
        lambda: hgpa_share_arrays(
            {sid: share.level_ops(sid) for sid in sids}, engine.leaf_ppv
        ),
    )
    return HGPAShareBuilder(
        descriptor,
        sids,
        HierarchyHandle(engine.hierarchy),
        share.alpha,
        share.num_nodes,
    )
