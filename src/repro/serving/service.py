"""Micro-batching PPV query frontend.

A PPR serving system sees a stream of single-node requests, but the
engines underneath answer *batches* far more cheaply than loops of
single queries (one stacked sparse matmul amortises the skeleton-row
slicing across the whole batch — the PR 1 ``query_many`` win).
:class:`PPVService` bridges the two: requests are queued, held for at
most one *batch window* (a few milliseconds), deduplicated, answered by
a single ``query_many`` call, and optionally remembered in an LRU
:class:`~repro.serving.cache.PPVCache` so the skewed tail of repeat
queries never reaches the backend at all.

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
from repro.core.sparse_ops import row_sparsevec, rows_matrix, topk_rows_sparse
from repro.core.sparsevec import SparseVec
from repro.core.updates import EdgeUpdate, UpdateReceipt
from repro.errors import (
    DegradedResult,
    ServingError,
    ShardingError,
    TransientFault,
)
from repro.serving.adapters import as_backend
from repro.serving.cache import PPVCache

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
    served stale from a cache while their partition was unreachable
    (exact values, unconfirmed freshness); ``"shed"`` requests got no
    answer at all — reading :attr:`result` raises
    :class:`~repro.errors.DegradedResult` so a shed zero row can never
    be mistaken for a real PPV.  ``latency_seconds`` is the request's
    modeled latency: clock time from submit to resolve plus any
    injected/modeled serving delay the backend reported.
    """

    __slots__ = (
        "node",
        "cached",
        "epoch",
        "status",
        "submitted_at",
        "resolved_at",
        "extra_latency_seconds",
        "_value",
    )

    def __init__(self, node: int) -> None:
        self.node = node
        self.cached = False
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
    cache_hits: int = 0
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
    requests are pending (checked eagerly).  With a cache attached,
    hits resolve immediately and never reach the backend.

    Results are read-only arrays shared between the cache and every
    ticket of the same node — exact to the backend's ``query_many``,
    which each index family keeps within 1e-12 of its per-node ``query``.
    With ``sparse=True`` batches run through the backend's
    ``query_many_sparse`` instead: tickets resolve to immutable
    :class:`~repro.core.sparsevec.SparseVec` rows with exactly the dense
    values, and the cache charges each row its true-nnz wire size, so a
    pruned-index deployment fits ~10–100× more entries in the same
    budget.  ``collect_stats=False`` skips engine-level per-query
    metadata on every flush (the hot-path fast mode).
    """

    def __init__(
        self,
        engine: Any,
        *,
        window: float = 0.01,
        max_batch: int = DEFAULT_BATCH,
        cache: PPVCache | int | None = None,
        clock: Any = None,
        sparse: bool = False,
        collect_stats: bool = True,
        slo_seconds: float | None = None,
        degrade: bool = False,
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
        if isinstance(cache, int):
            cache = PPVCache(cache)
        self.cache = cache
        self.clock = clock if clock is not None else SystemClock()
        # Sparse mode: batches go through the backend's query_many_sparse,
        # tickets resolve to SparseVec rows and the cache stores them at
        # their true-nnz byte cost (values agree with dense mode exactly).
        self.sparse = bool(sparse)
        # collect_stats=False asks engines to skip per-query metadata
        # bookkeeping — the serving hot-path fast mode.  Epoch tagging
        # then falls back to the backend's batch-level epoch (identical
        # unless a staggered rollout serves mixed epochs mid-flight).
        self.collect_stats = bool(collect_stats)
        #: Per-request latency target for the SLO counters in
        #: :class:`ServiceStats` (``None`` = don't classify).
        self.slo_seconds = slo_seconds
        # Graceful degradation: when the backend itself fails a flush
        # (every replica of a partition gone), serve-stale from the
        # service cache / shed instead of raising — each answer
        # explicitly marked.  Markers the backend already produced (a
        # resilient ShardRouter with degrade=True) propagate regardless.
        self.degrade = bool(degrade)
        # Admission control: with more than `shed_above` requests
        # already queued, new submits are shed on arrival — an
        # overloaded service answers fewer requests rather than all of
        # them late.
        self.shed_above = shed_above
        self.stats = ServiceStats()
        self._pending: list[Ticket] = []
        self._deadline: float | None = None
        self._cache_epoch = self.epoch

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests waiting for the current batch window to close."""
        return len(self._pending)

    @property
    def epoch(self) -> int:
        """The backend's current graph version (0 for static backends)."""
        return int(getattr(self.backend, "epoch", 0))

    def _sync_cache_epoch(self) -> None:
        """Drop the whole cache if the backend's epoch moved behind our
        back — an update applied directly to the backend (e.g. a
        ``ShardRouter`` rollout driven outside this service) never told
        us which rows it affected, so only a full drop is safe.  Updates
        routed through :meth:`apply_update` invalidate precisely and keep
        this a no-op.
        """
        if self.cache is not None and self.epoch != self._cache_epoch:
            self.cache.clear()
            self._cache_epoch = self.epoch

    def apply_update(self, update: EdgeUpdate) -> UpdateReceipt:
        """Apply one live edge update at a batch boundary.

        Pending requests are flushed *first* — they were submitted
        against the current epoch and are answered at it — then the
        update goes through the backend (which must be mutable: an
        :func:`~repro.serving.adapters.as_mutable_backend` wrapper, a
        distributed runtime, or a shard router) and exactly the affected
        rows are dropped from the service cache.  The returned receipt
        carries the epoch subsequent answers are tagged with.
        """
        apply = getattr(self.backend, "apply_update", None)
        if apply is None:
            raise ServingError(
                f"{self.backend!r} cannot apply updates — wrap the engine "
                "with as_mutable_backend()"
            )
        self.flush()
        self._sync_cache_epoch()
        receipt = apply(update)
        if self.cache is not None and receipt.changed:
            self.cache.invalidate(receipt.affected_sources)
        self._cache_epoch = self.epoch
        self.stats.updates += 1
        return receipt

    def submit(self, u: int) -> Ticket:
        """Enqueue one request; resolves on cache hit or at the flush.

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
        self._sync_cache_epoch()
        ticket = Ticket(u)
        ticket.submitted_at = self.clock.now()
        if self.cache is not None:
            hit = self.cache.get(u)
            if hit is not None:
                self.stats.cache_hits += 1
                ticket.cached = True
                self._finish_ticket(ticket, self._coerce(hit), self.epoch)
                return ticket
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

    def _coerce(self, entry: np.ndarray | SparseVec) -> np.ndarray | SparseVec:
        """A cache entry in this service's result form (dense or sparse).

        Entries are stored in the mode that inserted them; a service of
        the other mode converts on read — same values either way.
        """
        if self.sparse:
            if isinstance(entry, SparseVec):
                return entry
            return SparseVec.from_dense(entry)
        if isinstance(entry, SparseVec):
            row = entry.to_dense(self.backend.num_nodes)
            row.flags.writeable = False
            return row
        return entry

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

    def _flush_degraded(self, tickets: list[Ticket]) -> None:
        """The backend failed the whole flush: serve-stale what the
        service cache still holds (exact rows, explicitly marked
        ``degraded``) and shed the rest — never raise at the frontend,
        never invent a value."""
        base = self.epoch
        for ticket in tickets:
            hit = self.cache.get(ticket.node) if self.cache is not None else None
            if hit is not None:
                self._finish_ticket(
                    ticket, self._coerce(hit), base, status="degraded"
                )
            else:
                self._finish_ticket(
                    ticket, self._zero_row(), base, status="shed"
                )
        self.stats.batches += 1

    def _flush(self) -> int:
        tickets, self._pending = self._pending, []
        self._deadline = None
        self._sync_cache_epoch()
        unique = np.unique(
            np.asarray([t.node for t in tickets], dtype=np.int64)
        )
        try:
            if self.sparse:
                out, meta = self.backend.query_many_sparse(
                    unique, collect_stats=self.collect_stats
                )
            else:
                out, meta = self.backend.query_many(
                    unique, collect_stats=self.collect_stats
                )
        except (ShardingError, TransientFault):
            if not self.degrade:
                raise
            self._flush_degraded(tickets)
            return len(tickets)
        base = self.epoch
        # Mid-rollout a sharded backend serves mixed epochs: per-row
        # metadata carries the truth, and nothing may enter the cache
        # (epoch-untagged rows from ahead-of-epoch replicas would be
        # served as the completed version later).
        mixed = bool(getattr(self.backend, "rollout_in_progress", False))
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
            info = meta[j] if j < len(meta) else None
            epochs[u] = int(getattr(info, "epoch", base)) if info else base
            statuses[u] = str(getattr(info, "status", "ok")) if info else "ok"
            delays[u] = (
                float(getattr(info, "latency_seconds", 0.0)) if info else 0.0
            )
            # Only fresh exact rows may enter the cache: a degraded row's
            # freshness is unconfirmed and a shed row is an explicit zero.
            if self.cache is not None and not mixed and statuses[u] == "ok":
                self.cache.put(u, row)
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

        Served through the same cache/batch path as :meth:`query` — the
        full row is what the cache stores, the reduction is per-request
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
