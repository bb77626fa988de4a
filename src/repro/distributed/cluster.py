"""The distributed runtime: everything DistributedGPA and DistributedHGPA share.

A runtime is an index family's hub sum split over simulated machines
(Eq. 5, Theorem 4), so construction, the one-round query protocol — per
query and batched — live updates, ownership maps and the deployment-wide
metrics are written once, here, over each machine's
:class:`~repro.core.flat_index.HubShare`.  A subclass is a *placement*:
where hubs and own vectors go, how its stacked-ops cache is keyed and
invalidated, and how a machine's share is built.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.flat_index import (
    DEFAULT_BATCH,
    HubShare,
    Servable,
    StackedOps,
    run_in_batches,
    stack_ops,
    validate_batch,
)
from repro.core.sparse_ops import finalize_csr, row_sparsevec, sparse_in_batches
from repro.core.sparsevec import SparseVec
from repro.core.stacked import column_store, rows_matrix
from repro.core.updates import (
    UPDATE_WIRE_BYTES,
    EdgeUpdate,
    UpdateReceipt,
    UpdateStats,
    apply_edge_update,
)
from repro.distributed.coordinator import Coordinator
from repro.distributed.machine import Machine
from repro.distributed.network import DEFAULT_COST_MODEL
from repro.errors import ClusterError, QueryError
from repro.exec.backend import ExecLease, ExecutionBackend, SerialBackend
from repro.exec.states import ShareHost

__all__ = ["QueryReport", "ClusterBase"]


@dataclass
class QueryReport:
    """Everything the paper measures about one distributed query.

    ``runtime_seconds`` follows the paper's metric (Section 6.2.2: "the
    maximum runtime across all machines"): the slowest machine's compute
    plus the shipping of its own vector.  Coordinator aggregation is *not*
    part of it — communication cost is the separate metric of Figure 13.
    ``wall_seconds`` is the measured time of the same work executed
    serially (max machine segment + aggregation).  ``communication_bytes``
    counts every byte that crossed the simulated network for this query.
    """

    query: int
    runtime_seconds: float
    wall_seconds: float
    per_machine_entries: list[int]
    per_machine_bytes: list[int]
    communication_bytes: int

    @property
    def communication_kb(self) -> float:
        return self.communication_bytes / 1024.0

    @property
    def load_imbalance(self) -> float:
        """max/mean of per-machine entries (1.0 = perfectly balanced)."""
        entries = [e for e in self.per_machine_entries]
        mean = sum(entries) / max(1, len(entries))
        return (max(entries) / mean) if mean > 0 else 1.0


class ClusterBase(Servable):
    """An index deployed over simulated share-nothing machines.

    Subclasses name their own-vector store in ``OWN`` and supply
    :meth:`_deploy`, :meth:`_hub_load`, :meth:`_restack`,
    :meth:`_machine_share` and :meth:`_machine_builder`.  The batch verbs
    are :class:`~repro.core.flat_index.Servable`'s over :meth:`_rows`,
    with per-query :class:`QueryReport`\\ s as their stats.
    """

    #: Carried by the deployment, which has no graph of its own.
    num_nodes = 0

    #: ``(store-key kind, index attribute)`` of the family's own vectors:
    #: the node partials of GPA, the leaf PPVs of HGPA.
    OWN: tuple[str, str]

    def __init__(
        self,
        index: Any = None,
        num_machines: int = 0,
        *,
        backend: ExecutionBackend | None = None,
        wire_version: int = 1,
        num_nodes: int | None = None,
    ) -> None:
        """Deploy ``index`` over ``num_machines`` machines.

        ``backend`` runs the machines' shares (``None`` → a private
        serial one).  Machine states register lazily under the lease's
        process-wide uid and are released with it: by
        :meth:`_reset_exec` when an update changes the deployment —
        stale worker states (and their shared arenas) are dropped before
        the next batch registers fresh ones — or by the garbage
        collector when the runtime is dropped.

        Without an index only the protocol plumbing exists — ``num_nodes``
        is given, machines and coordinator are the caller's to assign —
        which is enough for :meth:`_finish_query`.
        """
        self.num_nodes = int(
            num_nodes if index is None else index.graph.num_nodes
        )
        self.machines: list[Machine] = []
        self.coordinator: Coordinator | None = None
        self.wire_version = wire_version
        if index is None:
            return
        if num_machines < 1:
            raise ClusterError("need at least one machine")
        self.index = index
        self.epoch = 0
        self.machines = [
            Machine(machine_id=i, wire_version=wire_version)
            for i in range(num_machines)
        ]
        self.coordinator = Coordinator(num_nodes=self.num_nodes)
        self._backend = backend if backend is not None else SerialBackend()
        self._lease = ExecLease(self, self._backend)
        self._exec_keys: dict[int, tuple[str, int, int]] = {}
        self._hub_owner: dict[int, int] = {}
        self._own_owner: dict[int, int] = {}
        self._deploy()

    # ----- placement ----------------------------------------------------
    def _deploy(self) -> None:
        """Place every vector of the index: hubs through
        :meth:`_deploy_hubs`, own vectors through :meth:`_deploy_own`."""
        raise NotImplementedError

    def _deploy_hubs(self, mid: int, owned: np.ndarray) -> None:
        """Machine ``mid`` takes the hubs ``owned``: each travels with its
        adjusted partial vector *and* its skeleton column, so every
        hub-weight lookup at query time is machine-local."""
        index, machine = self.index, self.machines[mid]
        stores = (("hub", index.hub_partials), ("skel", index.skeleton_cols))
        for h in owned.tolist():
            for kind, store in stores:
                machine.put(
                    (kind, h),
                    store[h],
                    build_seconds=index.build_cost.get((kind, h), 0.0),
                )
            self._hub_owner[h] = mid

    def _deploy_own(self, mid: int, u: int) -> None:
        """Machine ``mid`` takes the own vector of non-hub node ``u``."""
        kind, attr = self.OWN
        self.machines[mid].put(
            (kind, u),
            getattr(self.index, attr)[u],
            build_seconds=self.index.build_cost.get((kind, u), 0.0),
        )
        self._own_owner[u] = mid

    def _hub_load(self, mid: int) -> int:
        """Hubs machine ``mid`` owns (ranks machines for a promoted hub)."""
        raise NotImplementedError

    def _restack(self, stats: UpdateStats, machines: set[int]) -> None:
        """After an update changed hub vectors on ``machines``: re-slice
        the owned hub sets from :attr:`_hub_owner` and drop the stacked
        ops built over the old ones (``self.index`` is the new index)."""
        raise NotImplementedError

    def _owners_of(self, hubs: np.ndarray) -> np.ndarray:
        """The owning machine of each hub of ``hubs`` (``-1`` = none)."""
        return np.asarray(
            [self._hub_owner.get(h, -1) for h in hubs.tolist()], dtype=np.int64
        )

    def owner_map(self) -> np.ndarray:
        """Machine owning each node's own vector: ``(n,)`` array, ``-1``
        where no machine holds one (never happens after a full deploy).

        Hubs map to their hub-vector owner, everything else to its
        own-vector owner — the affinity map a sharded serving layer
        routes by (see :mod:`repro.sharding`).
        """
        owners = np.full(self.num_nodes, -1, dtype=np.int64)
        for owner_dict in (self._own_owner, self._hub_owner):
            if owner_dict:
                keys = np.fromiter(owner_dict, dtype=np.int64, count=len(owner_dict))
                vals = np.fromiter(
                    owner_dict.values(), dtype=np.int64, count=len(owner_dict)
                )
                owners[keys] = vals
        return owners

    def validate_deployment(self) -> None:
        """Every hub and own vector placed exactly once."""
        if set(self._hub_owner) != set(self.index.hub_partials):
            raise ClusterError("hub ownership incomplete")
        kind, attr = self.OWN
        if set(self._own_owner) != set(getattr(self.index, attr)):
            raise ClusterError(f"{kind} ownership incomplete")

    # ----- execution seam ----------------------------------------------
    def _reset_exec(self) -> None:
        self._lease.release()
        self._exec_keys.clear()

    def _exec_key(self, mid: int) -> tuple[str, int, int]:
        """The backend key of machine ``mid``'s share, registering it
        (lazily, like the stacked ops) on first use."""
        key = self._exec_keys.get(mid)
        if key is None:
            key = self._exec_keys[mid] = ("machine", self._lease.uid, mid)
            self._lease.register(key, self._machine_builder(mid))
        return key

    def _machine_share(self, mid: int, u: int | None = None) -> HubShare:
        """Machine ``mid``'s evaluator, in-process over the runtime's live
        ops and store — without a strong reference to the runtime.  With
        ``u``, every stacked-ops block a query of ``u`` reads exists on
        return: one-time work the caller keeps out of its timed region."""
        raise NotImplementedError

    def _machine_builder(self, mid: int) -> Callable[[], ShareHost]:
        """A builder for machine ``mid``'s :class:`ShareHost`: around
        :meth:`_machine_share` for a local backend, else picklable over
        a shared arena."""
        raise NotImplementedError

    # ----- deployment-wide metrics (Figs. 11 and 12) -------------------
    @property
    def num_machines(self) -> int:
        return len(self.machines)

    def max_machine_bytes(self) -> int:
        """Maximum per-machine storage — the paper's space metric."""
        return max(m.stored_bytes for m in self.machines)

    def total_stored_bytes(self) -> int:
        return sum(m.stored_bytes for m in self.machines)

    # ----- stacked query ops --------------------------------------------
    def _stack_ops(self, mid: int, owned: np.ndarray) -> StackedOps:
        """Stacked (owned, partial CSC, skeleton CSR, nnz-per-hub) ops of
        the hubs ``owned`` on machine ``mid`` — the shared body of the
        families' lazy ``_ops_for`` builders.

        The machine's stored **hub partials** are rebound as read-only
        views into the stacked CSC's own buffers, as a worker binds them
        (``np.shares_memory``-asserted by the tests): the CSC *is* the
        query op, so the store's copy of every partial becomes free.
        The skeleton side cannot share — its query form is the row-sliced
        CSR, a reorganized copy in which a column's entries are scattered
        — so the skeleton stores keep their original per-vector arrays
        and the CSR copy remains the price of matmul-form skeleton
        lookups.
        """
        index = self.index
        ops = stack_ops(owned, index.hub_partials, index.skeleton_cols, self.num_nodes)
        hubs = column_store(owned, ops[1])
        self.machines[mid].store.update((("hub", h), v) for h, v in hubs.items())
        return ops

    # ----- the one-round query protocol --------------------------------
    def query(self, u: int) -> tuple[np.ndarray, QueryReport]:
        """Distributed PPV of ``u`` plus the paper's per-query metrics.

        Every machine's share is computed here, in the calling process,
        one after the other and each under its own timer — this is the
        paper-metric verb; batches are the serving path.  A machine's
        entries are its share's ``work``, counted outside the timer.
        """
        if not 0 <= u < self.num_nodes:
            raise QueryError(f"query node {u} out of range")
        partials: dict[int, np.ndarray] = {}
        walls: dict[int, float] = {}
        entries: dict[int, int] = {}
        for machine in self.machines:
            mid = machine.machine_id
            share = self._machine_share(mid, u)
            t0 = time.perf_counter()
            partials[mid] = share.row(u)
            walls[mid] = time.perf_counter() - t0
            entries[mid] = int(share.work(np.asarray([u]), False)[0, 0])
        return self._finish_query(u, partials, walls, entries_by_machine=entries)

    def _rows(
        self, nodes: Sequence[int] | np.ndarray, *, sparse: bool, collect_stats: bool
    ) -> tuple[Any, list[QueryReport]]:
        """Submit a batch to every machine, then finish it query by query.

        Each machine answers with its share's ``(batch, n)`` rows
        (dispatched through the execution backend, so the shares run
        in-process or as real worker processes); serialization,
        aggregation and metrics then run per query — one vector per
        machine per query.  With ``collect_stats`` each machine's entries
        are its share's ``work`` on the batch, counted here in the calling
        process after the shares answered, and every query gets a
        :class:`QueryReport`; without, no report is built (metering still
        runs — it is the protocol) and ``[]`` returns.  Sparse shares stay
        sparse end to end: rows ship over the same wire codec (the meter
        charges the actual nnz, the bytes the dense path's sparsified
        payloads weigh) and the coordinator merges them sparsely, so no
        dense ``(batch, n)`` block exists anywhere; the rows equal the
        dense path's exactly.
        """
        n = self.num_nodes
        nodes = validate_batch(nodes, n)
        if nodes.size == 0:
            return (sp.csr_matrix((0, n)) if sparse else np.zeros((0, n))), []
        if nodes.size > DEFAULT_BATCH:
            # Bound the per-machine (batch, n) blocks.
            return (sparse_in_batches if sparse else run_in_batches)(
                lambda chunk: self._rows(
                    chunk, sparse=sparse, collect_stats=collect_stats
                ),
                nodes,
                DEFAULT_BATCH,
            )
        futures = {
            machine.machine_id: self._backend.submit(
                self._exec_key(machine.machine_id), "serve", nodes, sparse
            )
            for machine in self.machines
        }
        blocks: dict[int, Any] = {}
        walls: dict[int, float] = {}
        for mid, future in futures.items():
            blocks[mid], wall = future.result()
            walls[mid] = wall / nodes.size
        entries: dict[int, list[int]] | None = None
        if collect_stats:
            entries = {
                mid: self._machine_share(mid).work(nodes, sparse)[0].tolist()
                for mid in blocks
            }
        rows: list[Any] = []
        reports: list[QueryReport] = []
        for k, u in enumerate(nodes.tolist()):
            partials = {
                mid: row_sparsevec(block, k) if sparse else block[k]
                for mid, block in blocks.items()
            }
            counted = None
            if entries is not None:
                counted = {mid: e[k] for mid, e in entries.items()}
            result, report = self._finish_query(
                u, partials, walls, entries_by_machine=counted
            )
            rows.append(result)
            if report is not None:
                reports.append(report)
        if sparse:
            return finalize_csr(rows_matrix(rows, n), (nodes.size, n)), reports
        return np.vstack(rows), reports

    def _finish_query(
        self,
        query: int,
        partials: dict[int, Any],
        machine_walls: dict[int, float],
        *,
        entries_by_machine: dict[int, int] | None = None,
    ) -> tuple[Any, QueryReport | None]:
        """Serialize per-machine partial vectors, aggregate, build a report.

        ``partials`` are dense arrays, sparsified for the wire and summed
        into a dense vector, or :class:`SparseVec` rows, shipped as they
        are — the same bytes, the meter charges the actual nnz either
        way — and merged by the coordinator's sparse fold, so no dense
        ``n``-vector is built anywhere on that path.

        Every per-machine quantity is keyed by ``machine_id`` so compute
        work and shipped bytes can never be paired across machines; the
        report's lists are all ordered by ascending machine id.
        ``entries_by_machine`` is each machine's work on the query; without
        it no report is built (``None``), while serialization, aggregation
        and metering still run — they are the wire protocol, not
        bookkeeping.
        """
        sparse = any(isinstance(part, SparseVec) for part in partials.values())
        payloads: dict[int, bytes] = {
            mid: (
                partials[mid] if sparse else SparseVec.from_dense(partials[mid])
            ).to_wire(version=self.wire_version)
            for mid in sorted(partials)
        }
        assert self.coordinator is not None
        before = self.coordinator.meter.total_bytes
        self.coordinator.broadcast_query(query, [m.machine_id for m in self.machines])
        t0 = time.perf_counter()
        if sparse:
            result = self.coordinator.aggregate_sparse(payloads)
        else:
            result = self.coordinator.aggregate(payloads)
        agg_wall = time.perf_counter() - t0
        if entries_by_machine is None:
            return result, None
        comm_bytes = self.coordinator.meter.total_bytes - before
        mids = sorted(payloads)
        # Paper metric: max over machines of (combine work + ship own vector).
        runtime = max(
            DEFAULT_COST_MODEL.compute_seconds(entries_by_machine[mid])
            + DEFAULT_COST_MODEL.transfer_seconds(len(payloads[mid]), 1)
            for mid in mids
        )
        wall = max(machine_walls.values()) + agg_wall if machine_walls else agg_wall
        return result, QueryReport(
            query=query,
            runtime_seconds=runtime,
            wall_seconds=wall,
            per_machine_entries=[entries_by_machine[mid] for mid in mids],
            per_machine_bytes=[len(payloads[mid]) for mid in mids],
            communication_bytes=comm_bytes,
        )

    # ----- live updates --------------------------------------------------
    def updated(self, update: EdgeUpdate) -> tuple[ClusterBase, UpdateReceipt]:
        return self, self.apply_update(update)

    def apply_update(self, update: EdgeUpdate) -> UpdateReceipt:
        """Apply one edge update, re-deploying only affected machines.

        The index is updated incrementally; every rebuilt vector ships
        to the machine already owning it — metered coordinator→machine
        like any other traffic — dropped vectors (a promoted node's old
        role) leave their owners, and only the stacked ops
        :meth:`_restack` names are invalidated: untouched ones keep
        serving from their cached CSC/CSR.  A hub promoted by the update
        goes to the machine owning the fewest hubs (deterministic, ties
        to the lowest id).  Bumps the deployment epoch when anything
        changed.
        """
        new_index, receipt = apply_edge_update(self.index, update)
        if not receipt.changed:
            return receipt.at_epoch(self.epoch)
        assert self.coordinator is not None
        meter = self.coordinator.meter
        stats = receipt.stats
        own_kind, own_attr = self.OWN
        owners = {
            "hub": self._hub_owner,
            "skel": self._hub_owner,
            own_kind: self._own_owner,
        }
        stores = {
            "hub": new_index.hub_partials,
            "skel": new_index.skeleton_cols,
            own_kind: getattr(new_index, own_attr),
        }
        touched: set[int] = set()
        restack: set[int] = set()  # machines whose hub vectors changed
        for key in sorted(stats.dropped_keys):
            mid = owners[key[0]][key[1]]
            self.machines[mid].drop(key)
            touched.add(mid)
            if key[0] != own_kind:
                restack.add(mid)
        for kind, node in sorted(stats.dropped_keys):
            if kind != "skel":  # a hub's two vectors share one owner entry
                owners[kind].pop(node, None)
        for key in sorted(stats.rebuilt_keys):
            kind, node = key
            mid = owners[kind].get(node)
            if mid is None:
                if kind == own_kind:  # pragma: no cover - updates never add nodes
                    raise ClusterError(f"no owner for rebuilt vector {key}")
                mid = self._hub_owner[node] = min(
                    range(self.num_machines),
                    key=lambda m: (self._hub_load(m), m),
                )
            if kind != own_kind:
                restack.add(mid)
            machine, vec = self.machines[mid], stores[kind][node]
            cost = new_index.build_cost.get(key, 0.0)
            if machine.has(key):
                machine.replace(key, vec, build_seconds=cost)
            else:
                machine.put(key, vec, build_seconds=cost)
            meter.record("coordinator", f"machine-{mid}", vec.wire_bytes)
            touched.add(mid)
        for mid in sorted(touched):
            meter.record("coordinator", f"machine-{mid}", UPDATE_WIRE_BYTES)
        self.index = new_index
        self._restack(stats, restack)
        self.epoch += 1
        # Drop registered machine states (and their shared arenas): the
        # next batch re-registers against the updated deployment.
        self._reset_exec()
        return receipt.at_epoch(self.epoch)
