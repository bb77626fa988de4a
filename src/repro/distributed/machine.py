"""A simulated worker machine: a private vector store.

Machines in the paper's platform share nothing — each one holds only the
pre-computed vectors assigned to it and talks only to the coordinator.  The
simulation preserves exactly that: a :class:`Machine` owns a key→vector
store and the offline seconds that built it.  What it computes per query
is its share of the runtime's hub sum (:class:`~repro.core.flat_index.HubShare`),
whose ``work`` is what a query costs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sparsevec import SparseVec
from repro.errors import ClusterError

__all__ = ["Machine", "StoreKey"]

StoreKey = tuple  # e.g. ("hub", h), ("skel", h), ("leaf", u), ("part", u)


@dataclass
class Machine:
    """One share-nothing worker."""

    machine_id: int
    store: dict[StoreKey, SparseVec] = field(default_factory=dict)
    offline_seconds: float = 0.0
    """Summed ``build_cost`` of the vectors it was given: solver-thread CPU
    seconds, one solve's cost even while another solve ran beside it."""
    wire_version: int = 1

    def put(self, key: StoreKey, vec: SparseVec, *, build_seconds: float = 0.0) -> None:
        """Install a pre-computed vector (accounted to offline time)."""
        if key in self.store:
            raise ClusterError(f"machine {self.machine_id}: duplicate key {key}")
        self.store[key] = vec
        self.offline_seconds += build_seconds

    def replace(
        self, key: StoreKey, vec: SparseVec, *, build_seconds: float = 0.0
    ) -> None:
        """Overwrite an installed vector (a live update re-shipping it).

        The update's build cost is accounted to offline time like the
        original pre-computation — it is work the machine performs off
        the query path.
        """
        if key not in self.store:
            raise ClusterError(
                f"machine {self.machine_id}: cannot replace missing vector {key}"
            )
        self.store[key] = vec
        self.offline_seconds += build_seconds

    def drop(self, key: StoreKey) -> None:
        """Remove a vector the deployment no longer assigns to this machine."""
        if self.store.pop(key, None) is None:
            raise ClusterError(
                f"machine {self.machine_id}: cannot drop missing vector {key}"
            )

    def get(self, key: StoreKey) -> SparseVec:
        try:
            return self.store[key]
        except KeyError:
            raise ClusterError(
                f"machine {self.machine_id}: missing vector {key}"
            ) from None

    def has(self, key: StoreKey) -> bool:
        return key in self.store

    # ------------------------------------------------------------------
    @property
    def stored_bytes(self) -> int:
        """Wire bytes of everything on this machine (the space metric).

        Deliberately meter-free: this is the paper's *storage* metric,
        not query-path traffic, so nothing is charged to a NetworkMeter.
        Sizes follow the deployment's wire version (v2 entries are
        wider), keeping the space metric honest for int64-id clusters.
        """
        return sum(
            v.wire_bytes_at(self.wire_version) for v in self.store.values()
        )

    @property
    def stored_vectors(self) -> int:
        return len(self.store)
