"""Serving layer: micro-batching frontend, result cache, backend adapters.

The indexes exist to *serve* PPV queries; this package turns the batched
``query_many`` engines into a query service shaped like production PPR
traffic — single-node requests, heavy skew, top-k answers:

* :class:`PPVService` — accepts requests, micro-batches them inside a
  configurable window, answers each batch with one ``query_many`` call;
  it keeps no results, and a flush the backend fails sheds its tickets;
* :class:`PPVCache` — byte-budgeted LRU over PPV rows with
  hit/miss/eviction accounting and read-only entries, one per shard of
  a :class:`~repro.sharding.ShardRouter` (``cache_bytes=``);
* :func:`as_backend` — one :class:`QueryBackend` over every
  :class:`~repro.core.flat_index.Servable` engine (the index families,
  FastPPV, both simulated distributed runtimes): rows only, plus the
  epoch and ``apply_update`` of live edge updates.
"""

from repro.serving.adapters import QueryBackend, as_backend
from repro.serving.cache import CacheStats, PPVCache
from repro.serving.service import (
    PPVService,
    ServiceStats,
    SimulatedClock,
    SystemClock,
    Ticket,
)

__all__ = [
    "QueryBackend",
    "as_backend",
    "CacheStats",
    "PPVCache",
    "PPVService",
    "ServiceStats",
    "SimulatedClock",
    "SystemClock",
    "Ticket",
]
