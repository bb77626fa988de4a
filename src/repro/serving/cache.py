"""LRU cache of PPV results (dense rows or sparse vectors), keyed by node.

The serving workload of a PPR system is heavily skewed — a small set of
hot users accounts for most queries (the traffic shape Lin's distributed
fully-personalized-PPR work designs for) — so answering repeats from a
result cache removes most of the backend load.  Each shard of a
:class:`~repro.sharding.ShardRouter` owns one.  The budget is expressed
in *bytes* because the operator sizes the cache against machine memory,
not entry counts: a dense row costs its ``8n`` buffer, a sparse
:class:`~repro.core.sparsevec.SparseVec` row costs its wire size
(``16 + 12·nnz``) — so under a pruned-index workload the same budget
holds ~10–100× more entries than dense rows would.

Cached dense arrays are stored and returned **read-only**: a hit hands
the caller the cache's own buffer (no copy on the hot path), and NumPy's
writeable flag guarantees no caller can corrupt the shared entry.
``SparseVec`` entries are immutable by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.sparsevec import SparseVec
from repro.errors import ServingError

__all__ = ["CacheStats", "PPVCache", "entry_bytes"]


def entry_bytes(entry: np.ndarray | SparseVec) -> int:
    """Budgeted size of one cache entry: buffer bytes for a dense row,
    wire bytes (true nnz) for a :class:`SparseVec`."""
    if isinstance(entry, SparseVec):
        return entry.wire_bytes
    return entry.nbytes


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`PPVCache`.

    ``invalidations`` counts rows dropped by targeted
    :meth:`PPVCache.invalidate` calls (live graph updates).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.requests
        return self.hits / total if total else 0.0


class PPVCache:
    """Byte-budgeted LRU over PPV rows — dense arrays or sparse vectors.

    ``get`` returns the stored entry without copying (or ``None`` on a
    miss); ``put`` inserts and evicts least-recently-used entries until
    the budget holds.  A dense row is stored as a read-only array and
    charged its ``8n`` buffer; a :class:`~repro.core.sparsevec.SparseVec`
    row (the sparse serving pipeline) is stored as-is — it is immutable —
    and charged its ``16 + 12·nnz`` wire size, so the byte budget
    reflects each entry's *true* support and pruned workloads fit far
    more rows.  Dense and sparse entries may coexist; readers convert as
    needed.  A vector larger than the whole budget is rejected outright
    instead of evicting everything for an entry that cannot help future
    queries.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes <= 0:
            raise ServingError(f"cache budget must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.current_bytes = 0
        self.stats = CacheStats()
        self._store: OrderedDict[int, np.ndarray | SparseVec] = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, u: int) -> bool:
        """Membership probe without touching recency or hit/miss stats."""
        return u in self._store

    def get(self, u: int) -> np.ndarray | SparseVec | None:
        """The cached PPV of ``u`` (read-only, shared) or ``None``.

        The entry comes back in the form it was inserted — dense row or
        :class:`SparseVec`; mixed-mode readers convert on their side.
        """
        arr = self._store.get(u)
        if arr is None:
            self.stats.misses += 1
            return None
        self._store.move_to_end(u)
        self.stats.hits += 1
        return arr

    def put(self, u: int, vec: np.ndarray | SparseVec) -> bool:
        """Insert the PPV of ``u``; returns False if it can never fit.

        ``vec`` is either a dense row or a
        :class:`~repro.core.sparsevec.SparseVec`.  Already-read-only
        float64 arrays are stored as-is (the shard hands over a fresh
        read-only copy of each computed row); anything writeable is
        defensively copied first; ``SparseVec`` entries are immutable
        and stored directly at their wire size.
        """
        if isinstance(vec, SparseVec):
            arr = vec
        else:
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1:
                raise ServingError("cache entries must be 1-D PPV rows")
            if arr.flags.writeable or arr.base is not None:
                # Copy anything writeable — and any *view*, which would
                # pin its whole base buffer while only the row is
                # accounted.
                arr = arr.copy()
                arr.flags.writeable = False
        nbytes = entry_bytes(arr)
        if nbytes > self.max_bytes:
            return False
        old = self._store.pop(u, None)
        if old is not None:
            self.current_bytes -= entry_bytes(old)
        self._store[u] = arr
        self.current_bytes += nbytes
        self.stats.inserts += 1
        while self.current_bytes > self.max_bytes:
            _, evicted = self._store.popitem(last=False)
            self.current_bytes -= entry_bytes(evicted)
            self.stats.evictions += 1
        return True

    def invalidate(self, nodes: Iterable[int] | np.ndarray) -> int:
        """Drop exactly the given rows (a live update's affected sources).

        Returns how many entries were actually present and removed; rows
        of unaffected nodes stay resident — the point of the affected-
        sources report is that a graph update never needs a full flush.
        """
        dropped = 0
        for u in np.atleast_1d(np.asarray(nodes, dtype=np.int64)).tolist():
            arr = self._store.pop(u, None)
            if arr is not None:
                self.current_bytes -= entry_bytes(arr)
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry (stats are kept — they describe the workload)."""
        self._store.clear()
        self.current_bytes = 0
