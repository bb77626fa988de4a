"""Worker-side engine reconstruction for the sharding layer.

A :class:`~repro.sharding.replica.Replica` whose engine is an index
family (flat hub set or HGPA hierarchy) can run its batches in a worker
process: the engine's stacked query ops and vector stores are published
once per engine object in a shared arena (see
:func:`~repro.exec.backend.ExecutionBackend.memo_arena` — replicas
sharing one engine share one arena), and the picklable builders here
rebuild a *real* index instance worker-side around zero-copy read-only
views — ops caches pre-seeded, store vectors rebound as buffer slices —
so the worker runs the exact same ``query_many`` / ``query_many_sparse``
code as the parent, on the same bytes, and the results are bitwise equal.

Engines without a supported layout (a distributed runtime behind a
replica, an approximation) simply get no builder: :func:`engine_builder`
returns ``None`` and the shard serves them inline as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.core.flat_index import FlatPPVIndex
from repro.core.hgpa import HGPAIndex
from repro.core.sparsevec import SparseVec
from repro.core.stacked import pack_vectors, unpack_vectors
from repro.errors import PartitionError
from repro.exec.shm import (
    ArenaDescriptor,
    build_ops_from_view,
    stacked_ops_arrays,
)

if TYPE_CHECKING:
    from repro.exec.shm import ArenaView

__all__ = [
    "EngineHost",
    "FlatEngineBuilder",
    "HGPAEngineBuilder",
    "engine_builder",
]


class _GraphHandle:
    """Stand-in for a worker-side index's graph: the query paths only
    ever read ``num_nodes`` off it (ops caches are pre-seeded), so the
    adjacency never crosses the process boundary."""

    __slots__ = ("num_nodes",)

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = int(num_nodes)


class _HierarchyHandle:
    """Stand-in for a worker-side :class:`PartitionHierarchy`.

    Carries exactly what the HGPA query paths read — the subgraph tree
    plus the per-node lookup tables behind ``chain`` / ``is_hub`` — and
    none of the build-side state (graph adjacency, virtual-subgraph
    views), so pickling it ships kilobytes, not the graph.
    """

    __slots__ = ("subgraphs", "hub_level", "deepest_subgraph")

    def __init__(
        self,
        subgraphs: list[Any],
        hub_level: np.ndarray,
        deepest_subgraph: np.ndarray,
    ) -> None:
        self.subgraphs = subgraphs
        self.hub_level = hub_level
        self.deepest_subgraph = deepest_subgraph

    @classmethod
    def from_hierarchy(cls, hierarchy: Any) -> "_HierarchyHandle":
        return cls(
            hierarchy.subgraphs,
            hierarchy.hub_level,
            hierarchy.deepest_subgraph,
        )

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


class EngineHost:
    """The worker-side state wrapping one rebuilt index.

    Methods return ``(result, wall_seconds)`` — the wall clock covers
    only the engine compute, so the parent's load accounting
    (:meth:`Replica.note_served`) charges the replica what the worker
    actually spent, not the IPC.
    """

    __slots__ = ("index",)

    def __init__(self, index: Any) -> None:
        self.index = index

    def dense(self, nodes: np.ndarray) -> tuple[np.ndarray, float]:
        t0 = time.perf_counter()
        out, _ = self.index.query_many(nodes, collect_stats=False)
        return out, time.perf_counter() - t0

    def sparse(self, nodes: np.ndarray) -> tuple[sp.csr_matrix, float]:
        t0 = time.perf_counter()
        mat, _ = self.index.query_many_sparse(nodes, collect_stats=False)
        return mat, time.perf_counter() - t0


def _hub_store_from_csc(
    owned: np.ndarray, part_csc: sp.csc_matrix
) -> dict[int, SparseVec]:
    """Rebind hub partial vectors as slices of the stacked CSC's buffers —
    the worker-side twin of ``ClusterBase._stack_ops``'s rebinding, so
    the store costs no memory beyond the shared segment."""
    pp = part_csc.indptr
    return {
        int(h): SparseVec(
            part_csc.indices[pp[j] : pp[j + 1]],
            part_csc.data[pp[j] : pp[j + 1]],
            _trusted=True,
        )
        for j, h in enumerate(owned.tolist())
    }


def _packed_store(view: "ArenaView", prefix: str) -> dict[int, SparseVec]:
    """Unpack a ``pack_vectors``-published id→vector store from an arena."""
    nodes = view.arrays[prefix + "nodes"]
    vecs = unpack_vectors(
        view.arrays[prefix + "indptr"],
        view.arrays[prefix + "idx"],
        view.arrays[prefix + "val"],
    )
    return {int(u): v for u, v in zip(nodes.tolist(), vecs)}


def _pack_store_arrays(store: dict[int, SparseVec], prefix: str) -> dict[Any, Any]:
    """The inverse of :func:`_packed_store`: one id→vector store as flat
    arena arrays (ids sorted, so the layout is deterministic)."""
    nodes = np.asarray(sorted(store), dtype=np.int64)
    indptr, idx, val = pack_vectors([store[int(u)] for u in nodes.tolist()])
    return {
        prefix + "nodes": nodes,
        prefix + "indptr": indptr,
        prefix + "idx": idx,
        prefix + "val": val,
    }


# ----------------------------------------------------------------------
# Flat hub-set engines (FlatPPVIndex and subclasses: GPA, JW)


def flat_engine_arrays(index: FlatPPVIndex) -> dict[Any, Any]:
    """Arena arrays of one flat index: stacked ops + node-partial store."""
    part_csc, skel_csr, nnz_per_hub = index._ops()
    arrays = stacked_ops_arrays((index.hubs, part_csc, skel_csr, nnz_per_hub))
    arrays.update(_pack_store_arrays(index.node_partials, "own_"))
    return arrays


@dataclass(frozen=True)
class FlatEngineBuilder:
    """Picklable recipe for a worker-side flat index (GPA/JW/plain)."""

    descriptor: ArenaDescriptor
    alpha: float
    tol: float
    prune: float
    num_nodes: int

    def __call__(self) -> EngineHost:
        view = self.descriptor.attach()
        owned, part_csc, skel_csr, nnz_per_hub = build_ops_from_view(
            view, "", self.num_nodes
        )
        index = FlatPPVIndex(
            graph=_GraphHandle(self.num_nodes),
            alpha=self.alpha,
            tol=self.tol,
            prune=self.prune,
            hubs=owned,
            hub_partials=_hub_store_from_csc(owned, part_csc),
            skeleton_cols={},  # query paths read the pre-seeded CSR only
            node_partials=_packed_store(view, "own_"),
        )
        index._ops_cache = (part_csc, skel_csr, nnz_per_hub)
        return EngineHost(index)


# ----------------------------------------------------------------------
# HGPA engines


def hgpa_engine_arrays(index: HGPAIndex) -> dict[Any, Any]:
    """Arena arrays of one HGPA index: per-level stacked ops (prefix
    ``s<sid>:``) + the leaf-PPV store."""
    arrays: dict[Any, Any] = {}
    for sg in index.hierarchy.subgraphs:
        if sg.hubs.size == 0:
            continue
        part_csc, skel_csr, hubs = index._level_ops(sg.node_id)
        arrays.update(
            stacked_ops_arrays(
                (hubs, part_csc, skel_csr, np.diff(part_csc.indptr)),
                prefix=f"s{sg.node_id}:",
            )
        )
    arrays.update(_pack_store_arrays(index.leaf_ppv, "own_"))
    return arrays


@dataclass(frozen=True)
class HGPAEngineBuilder:
    """Picklable recipe for a worker-side HGPA index."""

    descriptor: ArenaDescriptor
    sids: tuple[int, ...]
    hierarchy: _HierarchyHandle
    alpha: float
    tol: float
    prune: float
    num_nodes: int

    def __call__(self) -> EngineHost:
        view = self.descriptor.attach()
        index = HGPAIndex(
            graph=_GraphHandle(self.num_nodes),
            hierarchy=self.hierarchy,
            alpha=self.alpha,
            tol=self.tol,
            prune=self.prune,
            hub_partials={},
            skeleton_cols={},
            leaf_ppv=_packed_store(view, "own_"),
        )
        for sid in self.sids:
            hubs, part_csc, skel_csr, _ = build_ops_from_view(
                view, f"s{sid}:", self.num_nodes
            )
            index._level_ops_cache[sid] = (part_csc, skel_csr, hubs)
            # Hub sets are disjoint across subgraphs, so every hub's
            # partial lives in exactly one level's stacked CSC.
            index.hub_partials.update(_hub_store_from_csc(hubs, part_csc))
        return EngineHost(index)


# ----------------------------------------------------------------------


def engine_builder(query_backend: Any, exec_backend: Any) -> Any:
    """A picklable worker-state builder for a replica's engine, or ``None``.

    ``None`` means the engine has no shared-memory layout the workers
    understand (a distributed runtime, an approximation, or a subclass
    that overrides the batch paths) and the shard must serve it inline.
    The engine's arena is memoized on the execution backend for the
    life of the engine object, so replicas sharing one engine publish it
    once and an updated backend's new engine publishes afresh.
    """
    engine = query_backend.engine
    if (
        isinstance(engine, HGPAIndex)
        and type(engine).query_many is HGPAIndex.query_many
        and type(engine).query_many_sparse is HGPAIndex.query_many_sparse
    ):
        descriptor = exec_backend.memo_arena(
            engine, lambda: hgpa_engine_arrays(engine)
        )
        sids = tuple(
            sg.node_id for sg in engine.hierarchy.subgraphs if sg.hubs.size
        )
        return HGPAEngineBuilder(
            descriptor,
            sids,
            _HierarchyHandle.from_hierarchy(engine.hierarchy),
            engine.alpha,
            engine.tol,
            engine.prune,
            engine.graph.num_nodes,
        )
    if (
        isinstance(engine, FlatPPVIndex)
        and type(engine).query_many is FlatPPVIndex.query_many
        and type(engine).query_many_sparse is FlatPPVIndex.query_many_sparse
    ):
        descriptor = exec_backend.memo_arena(
            engine, lambda: flat_engine_arrays(engine)
        )
        return FlatEngineBuilder(
            descriptor,
            engine.alpha,
            engine.tol,
            engine.prune,
            engine.graph.num_nodes,
        )
    return None
