"""Micro-batching PPV query frontend.

A PPR serving system sees a stream of single-node requests, but the
engines underneath answer *batches* far more cheaply than loops of
single queries (one stacked sparse matmul amortises the skeleton-row
slicing across the whole batch — the PR 1 ``query_many`` win).
:class:`PPVService` bridges the two: requests are queued, held for at
most one *batch window* (a few milliseconds), deduplicated, answered by
a single ``query_many`` call.  The service keeps no results of its
own: rows are cached, and stale rows served, behind it in the shards of
a :class:`~repro.sharding.ShardRouter` (a one-shard router over a bare
engine is the cached deployment of that engine).

Time is injected through a clock object so tests and simulations are
deterministic: :class:`SystemClock` follows ``time.monotonic`` for real
deployments, :class:`SimulatedClock` is advanced manually (e.g. by a
recorded arrival process) and makes batch formation reproducible.
"""

from __future__ import annotations

import operator
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.flat_index import DEFAULT_BATCH, topk_rows, validate_batch
from repro.core.sparse_ops import row_sparsevec, topk_rows_sparse
from repro.core.sparsevec import SparseVec
from repro.core.stacked import rows_matrix
from repro.core.updates import EdgeUpdate, UpdateReceipt
from repro.errors import (
    DegradedResult,
    ServingError,
    ShardingError,
    TransientFault,
)
from repro.serving.adapters import as_backend

__all__ = [
    "SystemClock",
    "SimulatedClock",
    "Ticket",
    "ServiceStats",
    "PPVService",
]


class SystemClock:
    """Real time — ``time.monotonic`` behind the clock interface."""

    def now(self) -> float:
        return time.monotonic()


class SimulatedClock:
    """Manually-advanced clock for deterministic batching in tests."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ServingError("cannot advance a clock backwards")
        self._now += dt

    def advance_to(self, t: float) -> None:
        """Jump to ``t`` (no-op when ``t`` is in the past — arrivals may tie)."""
        self._now = max(self._now, float(t))


_PENDING = object()


class Ticket:
    """One submitted request; resolves when its batch is flushed.

    ``epoch`` is the graph version the answer was computed against —
    tagged at resolve time from the backend's counter, so callers of a
    live-updated service can tell exactly which epoch each response
    reflects.

    ``status`` is the degradation contract surfaced per request:
    ``"ok"`` answers are fresh and exact; ``"degraded"`` answers were
    served stale from a shard cache while their partition was
    unreachable (exact values, unconfirmed freshness); ``"shed"``
    requests got no answer at all — refused on arrival, shed by the
    backend, or caught in a flush the backend failed — and reading
    :attr:`result` raises
    :class:`~repro.errors.DegradedResult` so a shed zero row can never
    be mistaken for a real PPV.  ``latency_seconds`` is the request's
    modeled latency: clock time from submit to resolve plus any
    injected/modeled serving delay the backend reported.
    """

    __slots__ = (
        "node",
        "epoch",
        "status",
        "submitted_at",
        "resolved_at",
        "extra_latency_seconds",
        "_value",
    )

    def __init__(self, node: int) -> None:
        self.node = node
        self.epoch: int | None = None
        self.status = "ok"
        self.submitted_at: float | None = None
        self.resolved_at: float | None = None
        self.extra_latency_seconds = 0.0
        self._value = _PENDING

    @property
    def done(self) -> bool:
        return self._value is not _PENDING

    @property
    def shed(self) -> bool:
        return self.status == "shed"

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def latency_seconds(self) -> float | None:
        """Modeled request latency (``None`` while still queued)."""
        if self.submitted_at is None or self.resolved_at is None:
            return None
        return (
            self.resolved_at - self.submitted_at + self.extra_latency_seconds
        )

    @property
    def result(self) -> np.ndarray:
        """The PPV (a read-only dense row, or a
        :class:`~repro.core.sparsevec.SparseVec` when the service runs in
        sparse mode); raises while still queued, and raises
        :class:`~repro.errors.DegradedResult` for a shed request."""
        if self._value is _PENDING:
            raise ServingError(
                f"request for node {self.node} not served yet — "
                "call poll()/flush() on the service"
            )
        if self.status == "shed":
            raise DegradedResult(
                f"request for node {self.node} was shed — no replica and "
                "no cached row could answer it"
            )
        return self._value

    def _resolve(self, value: np.ndarray, epoch: int = 0) -> None:
        self._value = value
        self.epoch = int(epoch)


@dataclass
class ServiceStats:
    """Traffic counters of one :class:`PPVService`.

    The degradation/SLO block: ``degraded``/``shed`` count explicitly
    marked non-fresh answers (the graceful-degradation contract);
    ``slo_met``/``slo_missed`` classify every *answered* request against
    the service's ``slo_seconds`` target (shed requests are availability
    failures, not latency ones, and are excluded); latency totals are
    modeled request latency — queue wait plus any serving delay the
    backend reported.
    """

    requests: int = 0
    batches: int = 0
    batched_queries: int = 0  # deduplicated nodes sent to the backend
    updates: int = 0  # edge updates applied through the service
    degraded: int = 0  # answers served stale, explicitly marked
    shed: int = 0  # requests refused (zero row + DegradedResult)
    slo_met: int = 0  # answered within slo_seconds (when configured)
    slo_missed: int = 0  # answered late (when configured)
    total_latency_seconds: float = 0.0
    max_latency_seconds: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_queries / self.batches if self.batches else 0.0

    @property
    def availability(self) -> float:
        """Fraction of requests that got an answer (1.0 with no traffic):
        degraded answers count as available, shed requests do not."""
        if not self.requests:
            return 1.0
        return 1.0 - self.shed / self.requests

    @property
    def mean_latency_seconds(self) -> float:
        return (
            self.total_latency_seconds / self.requests if self.requests else 0.0
        )


class PPVService:
    """Micro-batching frontend over any servable engine.

    ``submit`` enqueues a single-node request and returns a
    :class:`Ticket`; the queue is flushed into one backend
    ``query_many`` call when the oldest pending request has waited
    ``window`` seconds (checked by :meth:`poll`) or ``max_batch``
    requests are pending (checked eagerly).  Each flush deduplicates its
    nodes, so repeats inside one window cost one backend row.

    The service holds no result cache and serves no stale row: caching
    and serve-stale degradation live in the shards of a
    :class:`~repro.sharding.ShardRouter` (``cache_bytes=``,
    ``RetryPolicy(degrade=True)``), whose per-row ``epoch``, ``status``
    and ``latency_seconds`` the tickets carry.  When the backend raises
    a :class:`~repro.errors.ShardingError` or
    :class:`~repro.errors.TransientFault` during a flush, every ticket
    of that flush is resolved ``"shed"`` and the error re-raised — a
    failed flush never leaves a ticket pending forever, and never
    answers one with an invented row.

    Results are read-only rows — exact to the backend's ``query_many``,
    which each index family keeps within 1e-12 of its per-node
    ``query``.  With ``sparse=True`` batches run through the backend's
    ``query_many_sparse`` instead and tickets resolve to immutable
    :class:`~repro.core.sparsevec.SparseVec` rows with exactly the dense
    values.  The service asks its backend for rows only: an adapted
    engine returns no per-row metadata, a router one
    :class:`~repro.sharding.shard.RouteInfo` per row.  Per-query engine
    stats come from calling an index or runtime directly.
    ``collect_stats`` is accepted and ignored, only because the
    end-to-end benchmark harness passes it; it goes when that harness
    stops passing it.
    """

    def __init__(
        self,
        engine: Any,
        *,
        window: float = 0.01,
        max_batch: int = DEFAULT_BATCH,
        clock: Any = None,
        sparse: bool = False,
        collect_stats: bool = True,
        slo_seconds: float | None = None,
        shed_above: int | None = None,
    ) -> None:
        if window < 0:
            raise ServingError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if slo_seconds is not None and slo_seconds <= 0:
            raise ServingError(
                f"slo_seconds must be positive, got {slo_seconds}"
            )
        if shed_above is not None and shed_above < 1:
            raise ServingError(
                f"shed_above must be >= 1, got {shed_above}"
            )
        self.backend = as_backend(engine)
        self.window = float(window)
        self.max_batch = int(max_batch)
        self.clock = clock if clock is not None else SystemClock()
        # Sparse mode: batches go through the backend's query_many_sparse
        # and tickets resolve to SparseVec rows (values agree with dense
        # mode exactly).
        self.sparse = bool(sparse)
        #: Per-request latency target for the SLO counters in
        #: :class:`ServiceStats` (``None`` = don't classify).
        self.slo_seconds = slo_seconds
        # Admission control: with more than `shed_above` requests
        # already queued, new submits are shed on arrival — an
        # overloaded service answers fewer requests rather than all of
        # them late.
        self.shed_above = shed_above
        self.stats = ServiceStats()
        self._pending: list[Ticket] = []
        self._deadline: float | None = None

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests waiting for the current batch window to close."""
        return len(self._pending)

    @property
    def epoch(self) -> int:
        """The backend's current graph version (0 until an update)."""
        return self.backend.epoch

    def apply_update(self, update: EdgeUpdate) -> UpdateReceipt:
        """Apply one live edge update at a batch boundary.

        Pending requests are flushed *first* — they were submitted
        against the current epoch and are answered at it — then the
        update goes through the backend — an exact index or a
        distributed runtime (an engine without an update path, FastPPV,
        raises :class:`~repro.errors.ServingError`), or a shard router,
        which drops exactly the affected rows from its shard caches.  The
        returned receipt carries the epoch subsequent answers are tagged
        with.
        """
        self.flush()
        receipt = self.backend.apply_update(update)
        self.stats.updates += 1
        return receipt

    def submit(self, u: int) -> Ticket:
        """Enqueue one request; it resolves at the flush of its batch.

        Only genuine integer ids are accepted — truncating ``3.7`` to
        node 3 would serve the wrong PPV without any error (the same
        contract as ``validate_batch`` on the direct batch API).
        """
        try:
            u = operator.index(u)
        except TypeError:
            raise ServingError(
                f"query node ids must be integers, got {u!r}"
            ) from None
        if not 0 <= u < self.backend.num_nodes:
            raise ServingError(f"query node {u} out of range")
        # An expired batch flushes before this request joins the queue —
        # submit-only callers keep the at-most-one-window latency bound
        # without ever driving poll() themselves.
        self.poll()
        self.stats.requests += 1
        ticket = Ticket(u)
        ticket.submitted_at = self.clock.now()
        if self.shed_above is not None and len(self._pending) >= self.shed_above:
            # Admission control: the queue is past the shedding mark —
            # refuse on arrival instead of answering everyone late.
            self._finish_ticket(
                ticket, self._zero_row(), self.epoch, status="shed"
            )
            return ticket
        if not self._pending:
            self._deadline = ticket.submitted_at + self.window
        self._pending.append(ticket)
        if len(self._pending) >= self.max_batch:
            self._flush()
        return ticket

    def poll(self) -> int:
        """Flush if the batch window has closed; returns tickets resolved."""
        if self._pending and (
            self._deadline is not None and self.clock.now() >= self._deadline
        ):
            return self._flush()
        return 0

    def flush(self) -> int:
        """Force the pending batch out now; returns tickets resolved."""
        if not self._pending:
            return 0
        return self._flush()

    def _zero_row(self) -> np.ndarray | SparseVec:
        """The explicit payload of a shed request (its ticket raises
        :class:`~repro.errors.DegradedResult` on ``result`` anyway)."""
        if self.sparse:
            return SparseVec.empty()
        row = np.zeros(self.backend.num_nodes)
        row.flags.writeable = False
        return row

    def _finish_ticket(
        self,
        ticket: Ticket,
        value: np.ndarray | SparseVec,
        epoch: int,
        *,
        status: str = "ok",
        extra_latency: float = 0.0,
    ) -> None:
        """Resolve one ticket and account its latency/SLO/degradation.

        Shed requests count against availability, not the SLO latency
        classification — a refused request was never answered late.
        """
        ticket.status = status
        ticket.extra_latency_seconds = float(extra_latency)
        ticket._resolve(value, epoch)
        ticket.resolved_at = self.clock.now()
        latency = ticket.latency_seconds
        assert latency is not None
        stats = self.stats
        if status == "degraded":
            stats.degraded += 1
        elif status == "shed":
            stats.shed += 1
        stats.total_latency_seconds += latency
        if latency > stats.max_latency_seconds:
            stats.max_latency_seconds = latency
        if self.slo_seconds is not None and status != "shed":
            if latency <= self.slo_seconds:
                stats.slo_met += 1
            else:
                stats.slo_missed += 1

    def _flush(self) -> int:
        tickets, self._pending = self._pending, []
        self._deadline = None
        unique = np.unique(
            np.asarray([t.node for t in tickets], dtype=np.int64)
        )
        try:
            if self.sparse:
                out, meta = self.backend.query_many_sparse(unique)
            else:
                out, meta = self.backend.query_many(unique)
        except (ShardingError, TransientFault):
            # The backend failed the whole flush: no ticket of it gets an
            # answer, and none may stay queued behind a batch that is gone.
            zero, epoch = self._zero_row(), self.epoch
            for ticket in tickets:
                self._finish_ticket(ticket, zero, epoch, status="shed")
            raise
        # A router's RouteInfo carries each row's epoch (mixed mid-rollout),
        # status and modeled serving delay; an adapted engine returns no
        # metadata and every row takes the batch-level values.
        base = self.epoch
        rows: dict[int, np.ndarray | SparseVec] = {}
        epochs: dict[int, int] = {}
        statuses: dict[int, str] = {}
        delays: dict[int, float] = {}
        for j, u in enumerate(unique.tolist()):
            if self.sparse:
                row = row_sparsevec(out, j)
            else:
                row = out[j].copy()
                row.flags.writeable = False
            rows[u] = row
            if meta:
                info = meta[j]
                epochs[u], statuses[u] = info.epoch, info.status
                delays[u] = info.latency_seconds
            else:
                epochs[u], statuses[u], delays[u] = base, "ok", 0.0
        for ticket in tickets:
            u = ticket.node
            self._finish_ticket(
                ticket,
                rows[u],
                epochs[u],
                status=statuses[u],
                extra_latency=delays[u],
            )
        self.stats.batches += 1
        self.stats.batched_queries += int(unique.size)
        return len(tickets)

    # ------------------------------------------------------------------
    def query(self, u: int) -> np.ndarray | SparseVec:
        """Synchronous convenience: submit, drain the queue, return the PPV
        (a read-only dense row, or a :class:`SparseVec` in sparse mode).

        Note this flushes *all* pending requests (they share the batch),
        so interleaving ``query`` with ``submit`` shortens open windows.
        """
        ticket = self.submit(u)
        if not ticket.done:
            self.flush()
        return ticket.result

    def query_topk(
        self, u: int, k: int, *, threshold: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of the served PPV: ``(ids, scores)``, best first.

        Served through the same batch path as :meth:`query` — the full
        row is what a shard cache stores, the reduction is per-request
        (sparse mode reduces the sparse row directly, same result).
        ``threshold`` drops entries with ``score <= threshold`` before
        the k-cut (tail padded with id ``-1`` / score ``0.0``).
        """
        if k <= 0:
            raise ServingError("k must be positive")
        vec = self.query(u)
        if isinstance(vec, SparseVec):
            ids, scores = topk_rows_sparse(
                rows_matrix([vec], self.backend.num_nodes), k, threshold=threshold
            )
        else:
            ids, scores = topk_rows(vec[np.newaxis], k, threshold=threshold)
        return ids[0], scores[0]

    def serve(
        self,
        nodes: Sequence[int] | np.ndarray,
        arrivals: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray | sp.csr_matrix:
        """Drive a whole request stream; returns the ``(len, n)`` results
        (dense, or one CSR matrix in sparse mode — same values).

        ``arrivals`` (seconds, non-decreasing) replays an arrival process
        against a :class:`SimulatedClock`: the clock jumps to each
        request's arrival time and expired windows flush on the way —
        exactly the batches a live service with this window would form.
        Without ``arrivals`` the queue is driven by ``max_batch`` alone
        (and whatever real time elapses under a :class:`SystemClock`).
        """
        nodes = validate_batch(nodes, self.backend.num_nodes)
        if arrivals is not None:
            arrivals = np.asarray(arrivals, dtype=np.float64)
            if arrivals.shape != nodes.shape:
                raise ServingError("arrivals must match nodes in length")
            if not hasattr(self.clock, "advance_to"):
                raise ServingError(
                    "replaying arrivals needs a SimulatedClock"
                )
        tickets = []
        for i, u in enumerate(nodes.tolist()):
            if arrivals is not None:
                self.clock.advance_to(float(arrivals[i]))
            self.poll()
            tickets.append(self.submit(u))
        self.flush()
        # Shed tickets hold explicit zero rows; the stacked matrix keeps
        # them in place (ticket.result raises for per-request callers —
        # stream callers read ServiceStats for the degradation report).
        if self.sparse:
            return rows_matrix(
                [t._value for t in tickets], self.backend.num_nodes
            )
        if not tickets:
            return np.zeros((0, self.backend.num_nodes))
        return np.vstack([t._value for t in tickets])

    def replay(
        self, events: Iterable[tuple[float, object]]
    ) -> list[Any]:
        """Replay a mixed query/update arrival stream deterministically.

        ``events`` is an iterable of ``(arrival_seconds, item)`` pairs in
        non-decreasing time order, where ``item`` is either a query node
        id or an :class:`~repro.core.updates.EdgeUpdate`.  The clock (a
        :class:`SimulatedClock`) jumps to each arrival, expired batch
        windows flush on the way, and updates apply at batch boundaries
        exactly as a live service would sequence them.  Returns one
        outcome per event, in order: a resolved-or-pending
        :class:`Ticket` for queries (all resolved by the final flush), an
        :class:`~repro.core.updates.UpdateReceipt` for updates — each
        tagged with the epoch it was answered/applied at.
        """
        if not hasattr(self.clock, "advance_to"):
            raise ServingError("replaying arrivals needs a SimulatedClock")
        outcomes: list[Any] = []
        last = None
        for t, item in events:
            t = float(t)
            if last is not None and t < last:
                raise ServingError("replay arrivals must be non-decreasing")
            last = t
            self.clock.advance_to(t)
            self.poll()
            if isinstance(item, EdgeUpdate):
                outcomes.append(self.apply_update(item))
            else:
                outcomes.append(self.submit(int(item)))
        self.flush()
        return outcomes
