"""Retry, timeout, hedging and circuit-breaking policy for the shard tier.

Real deployments lose machines and grow stragglers as a matter of
course; the serving tier's job is to keep every *answer* exact while the
fleet misbehaves underneath.  This module holds the policy objects every
:class:`~repro.sharding.shard.Shard` serving path consults (a
:class:`~repro.sharding.router.ShardRouter` built without
``resilience=`` runs under the default ``RetryPolicy()``):

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (seeded ``random.Random`` keyed by attempt, so
  the same seed replays the same waits), a per-attempt deadline, an
  optional hedging delay, circuit-breaker thresholds, and the graceful-
  degradation switch;
* :class:`CircuitBreaker` — per-replica consecutive-failure breaker with
  clock-driven half-open probes (never wall-clock: the shard's injected
  clock decides when the cool-off elapsed);
* :class:`ResilienceStats` — one shared counter block per router, so the
  stats report shows exactly how much work fault handling added.

Every wait is *charged* to the injected clock via :func:`charge_wait`
rather than slept: under a
:class:`~repro.serving.service.SimulatedClock` time advances
deterministically (timed outages recover, fault schedules fire), and
under a real clock the wait is only accounted, never blocking the
serving thread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.errors import ShardingError

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "ResilienceStats",
    "charge_wait",
]


def charge_wait(clock: Any, seconds: float, stats: "ResilienceStats | None" = None) -> None:
    """Charge a backoff/hedge wait to the injected clock.

    A :class:`~repro.serving.service.SimulatedClock` is advanced (the
    wait *happens* in simulated time — timed recoveries and scheduled
    faults due within it fire); a real clock has no ``advance`` and the
    wait is only accounted on ``stats``.  Never calls ``time.sleep`` —
    RPR006's discipline: waits are charged, not slept.
    """
    if seconds <= 0.0:
        return
    advance = getattr(clock, "advance", None)
    if advance is not None:
        advance(seconds)
    if stats is not None:
        stats.backoff_seconds += float(seconds)


@dataclass
class ResilienceStats:
    """Fault-handling counters, shared by every shard of one router."""

    attempts: int = 0  # replica serve attempts, including retries/hedges
    retries: int = 0  # attempts beyond the first for a batch
    hedges: int = 0  # hedged (duplicate) attempts issued
    hedge_wins: int = 0  # hedges that beat the primary replica
    deadline_exceeded: int = 0  # attempts abandoned at the deadline
    deadline_overruns: int = 0  # answers served past deadline (last resort)
    breaker_opens: int = 0  # circuit-breaker open transitions
    breaker_skips: int = 0  # replica picks skipped on an open breaker
    worker_retries: int = 0  # transient WorkerDied retried in place
    degraded_rows: int = 0  # rows served stale from a shard cache
    shed_rows: int = 0  # rows shed (no replica, no stale row)
    backoff_seconds: float = 0.0  # total wait charged to the clock

    @property
    def extra_attempts(self) -> int:
        """Attempts beyond the minimum (the retry/hedge overhead)."""
        return self.retries + self.hedges


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry/timeout/hedging policy of one router.

    ``backoff(attempt)`` grows exponentially from ``backoff_seconds`` by
    ``backoff_multiplier`` up to ``max_backoff_seconds``, then adds
    deterministic jitter: a ``random.Random`` seeded from ``(seed,
    attempt, salt)`` scales the wait by up to ``jitter`` — the same seed
    replays the same schedule bit for bit, while distinct salts (e.g.
    shard ids) decorrelate the fleet so retries don't stampede in step.

    ``timeout_seconds`` is the per-attempt deadline on the *modeled*
    attempt latency; ``hedge_after_seconds`` issues a duplicate attempt
    on a sibling replica when the primary is slower than the threshold
    (tail-latency hedging — the faster answer wins, both are charged).
    ``degrade`` switches exhaustion from raising
    :class:`~repro.errors.ReplicaUnavailable` to explicitly-marked
    degraded/shed rows (see :class:`~repro.sharding.shard.Shard`).
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.005
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 0.25
    jitter: float = 0.1
    seed: int = 0
    timeout_seconds: float | None = None
    hedge_after_seconds: float | None = None
    breaker_failures: int = 5
    breaker_reset_seconds: float = 30.0
    degrade: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ShardingError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ShardingError("backoff times must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ShardingError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ShardingError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ShardingError("timeout_seconds must be positive")
        if self.hedge_after_seconds is not None and self.hedge_after_seconds < 0:
            raise ShardingError("hedge_after_seconds must be >= 0")
        if self.breaker_failures < 1:
            raise ShardingError("breaker_failures must be >= 1")
        if self.breaker_reset_seconds < 0:
            raise ShardingError("breaker_reset_seconds must be >= 0")

    def backoff(self, attempt: int, salt: int = 0) -> float:
        """The wait before retry number ``attempt`` (0-based), jittered
        deterministically by ``(seed, attempt, salt)``."""
        base = min(
            self.backoff_seconds * self.backoff_multiplier ** max(0, attempt),
            self.max_backoff_seconds,
        )
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        # One integer mixes (seed, attempt, salt) into the RNG seed —
        # same triple, same jitter, on every run.
        rng = random.Random(
            self.seed * 1_000_003 + int(attempt) * 1_009 + int(salt)
        )
        return base * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Per-replica consecutive-failure breaker with clock-time reset.

    Closed until ``failures_to_open`` consecutive failures, then open
    for ``reset_seconds`` of clock time; the first ``allow`` after the
    cool-off is a half-open probe — success closes the breaker, failure
    re-opens it for another full cool-off.  All transitions are driven
    by the caller's clock reads, so breaker behavior replays exactly
    under a :class:`~repro.serving.service.SimulatedClock`.
    """

    def __init__(self, failures_to_open: int, reset_seconds: float) -> None:
        if failures_to_open < 1:
            raise ShardingError("failures_to_open must be >= 1")
        if reset_seconds < 0:
            raise ShardingError("reset_seconds must be >= 0")
        self.failures_to_open = int(failures_to_open)
        self.reset_seconds = float(reset_seconds)
        self.failures = 0
        self.open_until: float | None = None
        self._probing = False

    @property
    def is_open(self) -> bool:
        return self.open_until is not None

    def allow(self, now: float) -> bool:
        """Whether an attempt may be sent through at clock time ``now``."""
        if self.open_until is None:
            return True
        if now >= self.open_until:
            self._probing = True  # half-open: one probe flies
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.open_until = None
        self._probing = False

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when this *opened* the breaker."""
        if self._probing:
            # Failed half-open probe: straight back to open.
            self._probing = False
            self.open_until = now + self.reset_seconds
            return True
        self.failures += 1
        if self.open_until is None and self.failures >= self.failures_to_open:
            self.open_until = now + self.reset_seconds
            return True
        return False
