"""One query backend over every servable engine.

The serving frontend needs four things from an engine: how many nodes
the graph has, batched ``query_many`` / ``query_many_sparse`` returning
``(batch, n)`` rows, and a batched top-k.  Every engine — the centralized
indexes, FastPPV and the simulated distributed runtimes — is a
:class:`~repro.core.flat_index.Servable` exposing exactly those, so
:func:`as_backend` wraps any of them the same way and adds the epoch of
live updates.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.flat_index import DEFAULT_BATCH, Servable
from repro.core.updates import EdgeUpdate, UpdateReceipt
from repro.errors import ServingError

__all__ = ["QueryBackend", "as_backend"]


class QueryBackend:
    """One engine behind the uniform serving interface.

    ``query_many(nodes)`` returns ``(dense (len, n) matrix, [])``,
    ``query_many_sparse(nodes)`` ``(CSR (len, n) matrix, [])`` whose
    ``toarray()`` is exactly the dense result, and
    ``query_many_topk(nodes, k)`` ``(ids, scores, [])``: each calls the
    engine's verb with its per-query stats switched off, so the serving
    path asks for rows only.  Per-query engine stats come from calling
    an index or runtime directly.

    ``epoch`` is the version of the graph the answers are computed
    against: 0 until :meth:`apply_update` changes the engine, then one
    more per changing update; the serving frontend tags each response
    with it.
    """

    def __init__(self, engine: Servable) -> None:
        try:
            self.num_nodes = int(engine.num_nodes)
        except AttributeError:
            raise ServingError(
                f"{type(engine).__name__} is not a servable engine: it needs "
                "num_nodes and the query_many verbs (see Servable)"
            ) from None
        self.engine = engine
        self.epoch = 0

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
        return self.engine.query_many_topk(
            nodes, k, batch=batch, threshold=threshold, collect_stats=False
        )

    def apply_update(
        self, update: EdgeUpdate, *, shared: dict[Any, Any] | None = None
    ) -> UpdateReceipt:
        """Apply one live edge update; the receipt carries this backend's
        epoch.

        An index is swapped for its updated successor — the *old* index
        object stays valid, which lets a staggered rollout keep serving
        the old epoch from replicas that have not flipped yet — and a
        runtime redeploys in place (see ``Servable.updated``).
        ``shared`` (a dict) memoizes the update by engine identity:
        several backends wrapping one engine object — the common
        in-process replica setup — apply it once and all rebind to the
        same successor.
        """
        key = id(self.engine)
        if shared is not None and key in shared:
            engine, receipt = shared[key]
        else:
            engine, receipt = self.engine.updated(update)
            if shared is not None:
                shared[key] = (engine, receipt)
        if receipt.changed:
            self.engine = engine
            self.epoch += 1
        return receipt.at_epoch(self.epoch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QueryBackend over {type(self.engine).__name__} "
            f"@epoch {self.epoch}>"
        )


def as_backend(engine: Any) -> QueryBackend:
    """Wrap a :class:`~repro.core.flat_index.Servable` engine as a
    :class:`QueryBackend`; an existing backend (a shard router, say)
    passes through unchanged."""
    return engine if isinstance(engine, QueryBackend) else QueryBackend(engine)
