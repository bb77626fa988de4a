"""Uniform query backend over every index family and distributed runtime.

The serving frontend only needs four things from an engine: how many
nodes the graph has, batched ``query_many`` / ``query_many_sparse``
returning ``(batch, n)`` rows, and a batched top-k.  The centralized
indexes (:class:`~repro.core.flat_index.FlatPPVIndex` subclasses,
:class:`~repro.core.hgpa.HGPAIndex`,
:class:`~repro.approx.fastppv.FastPPVIndex`) and the simulated
distributed runtimes (:class:`~repro.distributed.gpa_runtime.DistributedGPA`,
:class:`~repro.distributed.hgpa_runtime.DistributedHGPA`) expose those
with slightly different shapes — indexes hang ``num_nodes`` off their
graph and return per-query :class:`~repro.core.flat_index.QueryStats`,
runtimes carry ``num_nodes`` themselves and return
:class:`~repro.distributed.cluster.QueryReport` lists — so
:func:`as_backend` wraps either behind one interface.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.flat_index import (
    DEFAULT_BATCH,
    FlatPPVIndex,
    topk_in_batches,
    validate_batch,
)
from repro.core.hgpa import HGPAIndex
from repro.core.updates import EdgeUpdate, UpdateReceipt, apply_edge_update
from repro.distributed.cluster import ClusterBase
from repro.errors import ServingError

__all__ = ["QueryBackend", "MutableBackend", "as_backend", "as_mutable_backend"]


class QueryBackend:
    """One engine behind the uniform serving interface.

    ``query_many(nodes)`` returns ``(dense (len, n) matrix, [])`` and
    ``query_many_sparse(nodes)`` ``(CSR (len, n) matrix, [])`` whose
    ``toarray()`` is exactly the dense result; both call the engine's
    native verb with its per-query stats switched off, so the serving
    path asks for rows only.  Per-query engine stats come from calling
    an index or runtime directly.  ``query_many_topk(nodes, k)`` returns
    ``(ids, scores, metadata)`` with chunk-bounded dense intermediates,
    using the engine's native top-k path when it has one.

    Every backend carries an ``epoch`` — the version of the graph its
    answers are computed against.  A static backend stays at 0 forever;
    :class:`MutableBackend` (and the runtimes/routers that subclass or
    implement this interface) advance it per applied update, and the
    serving frontend tags each response with the epoch it was answered
    at.
    """

    epoch = 0

    def __init__(self, engine: Any, num_nodes: int) -> None:
        self.engine = engine
        self.num_nodes = int(num_nodes)

    def query_many(
        self, nodes: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, list[Any]]:
        return self.engine.query_many(nodes, collect_stats=False)

    def query_many_sparse(
        self, nodes: Sequence[int] | np.ndarray
    ) -> tuple[sp.csr_matrix, list[Any]]:
        return self.engine.query_many_sparse(nodes, collect_stats=False)

    def query_many_topk(
        self,
        nodes: Sequence[int] | np.ndarray,
        k: int,
        *,
        batch: int = DEFAULT_BATCH,
        threshold: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, list[Any]]:
        native = getattr(self.engine, "query_many_topk", None)
        if native is not None:
            return native(nodes, k, batch=batch, threshold=threshold)
        nodes = validate_batch(nodes, self.num_nodes)
        return topk_in_batches(
            self.engine.query_many,
            nodes,
            k,
            self.num_nodes,
            batch,
            threshold,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<QueryBackend over {type(self.engine).__name__}>"


class MutableBackend(QueryBackend):
    """A query backend whose engine accepts live :class:`EdgeUpdate`\\ s.

    This is the ``MutableBackend`` protocol the whole update pipeline
    rides on: ``apply_update(EdgeUpdate) -> UpdateReceipt`` plus an
    ``epoch`` counter.  Functional engines (the index families) are
    swapped for their updated successors — the *old* index object stays
    valid, which is what lets a staggered rollout keep serving the old
    epoch from replicas that have not flipped yet.  Engines with a native
    ``apply_update`` (the distributed runtimes) are delegated to and
    their epoch mirrored.
    """

    def __init__(self, engine: Any, num_nodes: int) -> None:
        super().__init__(engine, num_nodes)
        self._epoch = 0

    @property
    def epoch(self) -> int:
        native = getattr(self.engine, "epoch", None)
        return self._epoch if native is None else int(native)

    def apply_update(
        self, update: EdgeUpdate, *, shared: dict[Any, Any] | None = None
    ) -> UpdateReceipt:
        """Apply one update; returns the receipt stamped with this
        backend's epoch.

        ``shared`` (a dict) memoizes the expensive index rebuild by
        engine identity: several backends wrapping one shared engine
        object — the common in-process replica setup — recompute once and
        all rebind to the same successor index.
        """
        native = getattr(self.engine, "apply_update", None)
        if native is not None:
            key = id(self.engine)
            if shared is not None and key in shared:
                _, receipt = shared[key]
            else:
                receipt = native(update)
                if shared is not None:
                    shared[key] = (self.engine, receipt)
            return receipt
        key = id(self.engine)
        if shared is not None and key in shared:
            new_engine, receipt = shared[key]
        else:
            new_engine, receipt = apply_edge_update(self.engine, update)
            if shared is not None:
                shared[key] = (new_engine, receipt)
        if receipt.changed:
            self.engine = new_engine
            self._epoch += 1
        return receipt.at_epoch(self._epoch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MutableBackend over {type(self.engine).__name__} "
            f"@epoch {self.epoch}>"
        )


def as_backend(engine: Any) -> QueryBackend:
    """Wrap an index or distributed runtime as a :class:`QueryBackend`.

    Accepts anything with a ``query_many``: the centralized indexes
    (``num_nodes`` read off ``engine.graph``) and the distributed
    runtimes (``num_nodes`` on the runtime itself).  An existing backend
    passes through unchanged.
    """
    if isinstance(engine, QueryBackend):
        return engine
    if not callable(getattr(engine, "query_many", None)):
        raise ServingError(
            f"{type(engine).__name__} has no query_many — not a servable engine"
        )
    if isinstance(engine, ClusterBase):
        return QueryBackend(engine, engine.num_nodes)
    graph = getattr(engine, "graph", None)
    if graph is not None and hasattr(graph, "num_nodes"):
        return QueryBackend(engine, graph.num_nodes)
    raise ServingError(
        f"cannot determine num_nodes for {type(engine).__name__}"
    )


def as_mutable_backend(engine: Any) -> QueryBackend:
    """Wrap an engine for live updates behind the uniform interface.

    Accepts the mutable index families (:class:`FlatPPVIndex` subclasses,
    :class:`HGPAIndex`), anything with a native ``apply_update`` (the
    distributed runtimes, a :class:`~repro.sharding.router.ShardRouter`),
    or an existing backend over one of those.  Engines without an update
    path (e.g. the Monte-Carlo approximations) are rejected up front.
    """
    if isinstance(engine, MutableBackend):
        return engine
    if isinstance(engine, QueryBackend):
        if callable(getattr(engine, "apply_update", None)):
            return engine  # e.g. a ShardRouter — already mutable
        engine = engine.engine
    if not callable(getattr(engine, "query_many", None)):
        raise ServingError(
            f"{type(engine).__name__} has no query_many — not a servable engine"
        )
    updatable = isinstance(engine, (FlatPPVIndex, HGPAIndex)) or callable(
        getattr(engine, "apply_update", None)
    )
    if not updatable:
        raise ServingError(
            f"{type(engine).__name__} cannot apply incremental edge updates"
        )
    if isinstance(engine, ClusterBase):
        return MutableBackend(engine, engine.num_nodes)
    return MutableBackend(engine, engine.graph.num_nodes)
