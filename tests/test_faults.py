"""Chaos suite: seeded fault schedules against the serving stack.

The headline contract under test (see :mod:`repro.faults`): under *any*
fault schedule that leaves every shard at least one healthy replica,
every non-degraded answer is **bitwise** equal to the fault-free run —
and when quorum *is* lost, the failure is explicit (``degraded``/
``shed`` markers, :class:`~repro.errors.DegradedResult` on read), never
a silently wrong value.  Chaos runs are driven entirely by a
:class:`~repro.serving.service.SimulatedClock`, so every run — faults,
retries, backoff, hedges, recoveries — replays identically from its
seed, which the replay test asserts down to the byte and counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DegradedResult,
    FaultPlanError,
    ReplicaUnavailable,
    ShardingError,
)
from repro.exec import ProcessPoolBackend
from repro.faults import EVENT_KINDS, FaultEvent, FaultInjector, FaultPlan
from repro.serving.service import PPVService, ServiceStats, SimulatedClock
from repro.sharding import (
    CircuitBreaker,
    ResilienceStats,
    RetryPolicy,
    ShardRouter,
    charge_wait,
)

NUM_SHARDS = 2
REPLICAS = 2
STREAM = 120  # requests per chaos run
HORIZON = 3.0  # seconds; past the stream's last arrival


def _policy(**overrides) -> RetryPolicy:
    base = dict(
        max_attempts=4,
        backoff_seconds=0.002,
        timeout_seconds=0.25,
        hedge_after_seconds=0.02,
        breaker_failures=3,
        breaker_reset_seconds=0.5,
        degrade=True,
        seed=0,
    )
    base.update(overrides)
    return RetryPolicy(**base)


def _router(engine, plan=None, **policy_overrides):
    clock = SimulatedClock()
    router = ShardRouter(
        [[engine] * REPLICAS] * NUM_SHARDS,
        clock=clock,
        cache_bytes=1 << 20,
        resilience=_policy(**policy_overrides),
    )
    if plan is not None:
        FaultInjector(plan).attach(router)
    return router, clock


def _stream(num_nodes, *, size=STREAM, seed=0, pool=None):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, pool if pool is not None else num_nodes, size=size)
    arrivals = np.cumsum(rng.exponential(0.02, size=size))
    return nodes, arrivals


def _run(engine, plan=None, *, stream_seed=0, pool=None, degrade=True, **policy):
    """One full service run over the canned arrival stream; returns the
    resolved tickets plus the service and router for their stats."""
    router, clock = _router(engine, plan, degrade=degrade, **policy)
    service = PPVService(router, window=0.01, clock=clock, slo_seconds=0.1)
    nodes, arrivals = _stream(engine.graph.num_nodes, seed=stream_seed, pool=pool)
    tickets = service.replay(zip(arrivals.tolist(), nodes.tolist()))
    return tickets, service, router


_ORACLE: dict[tuple, list] = {}


def _oracle_rows(engine, *, stream_seed=0, pool=None):
    """Fault-free reference rows for the canned stream (cached)."""
    key = (id(engine), stream_seed, pool)
    if key not in _ORACLE:
        tickets, _, _ = _run(engine, None, stream_seed=stream_seed, pool=pool)
        assert all(t.status == "ok" for t in tickets)
        _ORACLE[key] = [t.result for t in tickets]
    return _ORACLE[key]


def _assert_bitwise_or_marked(tickets, oracle) -> None:
    """The headline contract, row by row: exact, or explicitly marked."""
    assert len(tickets) == len(oracle)
    for ticket, want in zip(tickets, oracle):
        assert ticket.done
        if ticket.shed:
            assert not ticket._value.any()  # explicit zeros, never garbage
            with pytest.raises(DegradedResult):
                ticket.result
        else:
            # "ok" rows are fresh-and-exact; "degraded" rows come from a
            # cache that only ever held exact rows — bitwise either way.
            assert np.array_equal(ticket.result, want)


# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultEvent(0.0, "meteor")
        with pytest.raises(FaultPlanError, match="time must be >= 0"):
            FaultEvent(-1.0, "drop")
        with pytest.raises(FaultPlanError, match="count must be >= 1"):
            FaultEvent(0.0, "drop", count=0)
        with pytest.raises(FaultPlanError, match="need a replica index"):
            FaultEvent(0.0, "crash")
        with pytest.raises(FaultPlanError, match="duration/delay"):
            FaultEvent(0.0, "crash", replica=0, duration=-1.0)

    def test_plan_sorts_events_and_selects_kinds(self):
        late = FaultEvent(2.0, "drop", shard=1)
        early = FaultEvent(0.5, "crash", shard=0, replica=1, duration=1.0)
        plan = FaultPlan((late, early))
        assert plan.events == (early, late)
        assert len(plan) == 2 and list(plan) == [early, late]
        assert plan.for_kind("crash") == (early,)
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            plan.for_kind("meteor")
        assert early.until == pytest.approx(1.5)

    def test_generate_is_deterministic_in_the_seed(self):
        kw = dict(num_shards=2, replicas_per_shard=2, horizon=5.0)
        assert FaultPlan.generate(3, **kw) == FaultPlan.generate(3, **kw)
        assert FaultPlan.generate(3, **kw) != FaultPlan.generate(4, **kw)
        assert FaultPlan.generate(3, **kw).seed == 3
        assert all(
            e.kind in EVENT_KINDS for e in FaultPlan.generate(3, **kw)
        )

    def test_generate_keeps_quorum_even_under_heavy_crashing(self):
        for seed in range(15):
            plan = FaultPlan.generate(
                seed,
                num_shards=2,
                replicas_per_shard=2,
                crashes=8,
                crash_duration=4.0,
            )
            assert plan.keeps_quorum(2, 2)

    def test_keeps_quorum_rejects_overlapping_crashes(self):
        plan = FaultPlan(
            tuple(
                FaultEvent(0.0, "crash", shard=0, replica=r, duration=5.0)
                for r in range(2)
            )
        )
        assert not plan.keeps_quorum(2, 2)
        assert plan.keeps_quorum(2, 3)  # a third replica would survive

    def test_check_targets_rejects_phantom_replicas(self):
        plan = FaultPlan((FaultEvent(0.0, "crash", shard=5, replica=0),))
        with pytest.raises(FaultPlanError, match="shard 5"):
            plan.check_targets(2, 2)
        plan = FaultPlan((FaultEvent(0.0, "crash", shard=0, replica=7),))
        with pytest.raises(FaultPlanError, match="replica 7"):
            plan.check_targets(2, 2)


class TestInjectorWiring:
    def test_attach_validates_and_is_exclusive(self, gpa_small):
        router, _ = _router(gpa_small)
        bad = FaultInjector(
            FaultPlan((FaultEvent(0.0, "crash", shard=9, replica=0),))
        )
        with pytest.raises(FaultPlanError, match="shard 9"):
            bad.attach(router)
        injector = FaultInjector(FaultPlan()).attach(router)
        assert router.fault_injector is injector
        with pytest.raises(FaultPlanError, match="already attached"):
            injector.attach(router)

    def test_pump_requires_a_router(self):
        with pytest.raises(FaultPlanError, match="not attached"):
            FaultInjector(FaultPlan()).pump(0.0)

    def test_crash_window_the_clock_jumped_over_is_elapsed(self, gpa_small):
        plan = FaultPlan(
            (FaultEvent(0.1, "crash", shard=0, replica=0, duration=0.05),)
        )
        router, clock = _router(gpa_small, plan)
        clock.advance(1.0)
        router.fault_injector.pump()
        assert router.fault_injector.injected == {"crash_elapsed": 1}
        assert router.shards[0].replicas[0].is_up(clock.now())


class TestResiliencePrimitives:
    def test_policy_validation(self):
        for bad in (
            dict(max_attempts=0),
            dict(backoff_seconds=-1.0),
            dict(backoff_multiplier=0.5),
            dict(jitter=1.5),
            dict(timeout_seconds=0.0),
            dict(hedge_after_seconds=-0.1),
            dict(breaker_failures=0),
            dict(breaker_reset_seconds=-1.0),
        ):
            with pytest.raises(ShardingError):
                RetryPolicy(**bad)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_seconds=0.01, max_backoff_seconds=0.1, jitter=0.2, seed=5
        )
        for attempt in range(6):
            assert policy.backoff(attempt) == policy.backoff(attempt)
        assert policy.backoff(2, salt=1) != policy.backoff(2, salt=2)
        plain = RetryPolicy(backoff_seconds=0.01, max_backoff_seconds=0.1, jitter=0.0)
        assert plain.backoff(0) == pytest.approx(0.01)
        assert plain.backoff(2) == pytest.approx(0.04)
        assert plain.backoff(10) == pytest.approx(0.1)  # capped
        for attempt in range(8):
            assert policy.backoff(attempt) <= 0.1 * 1.2

    def test_circuit_breaker_transitions(self):
        breaker = CircuitBreaker(failures_to_open=2, reset_seconds=1.0)
        assert breaker.allow(0.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(0.0)  # second failure opens it
        assert breaker.is_open and not breaker.allow(0.5)
        assert breaker.allow(1.5)  # half-open probe after the cool-off
        assert breaker.record_failure(1.5)  # failed probe: straight back open
        assert not breaker.allow(2.0)
        assert breaker.allow(2.5)
        breaker.record_success()
        assert not breaker.is_open and breaker.failures == 0

    def test_charge_wait_advances_simulated_clocks_only(self):
        clock = SimulatedClock()
        stats = ResilienceStats()
        charge_wait(clock, 0.5, stats)
        charge_wait(clock, 0.0, stats)  # no-op
        assert clock.now() == pytest.approx(0.5)
        assert stats.backoff_seconds == pytest.approx(0.5)
        charge_wait(object(), 0.25, stats)  # real clocks: accounted, not slept
        assert stats.backoff_seconds == pytest.approx(0.75)
        assert stats.extra_attempts == 0

    def test_stats_availability_defaults(self):
        assert ServiceStats().availability == 1.0


# ---------------------------------------------------------------------------
class TestChaosContract:
    """The headline: bitwise-exact under quorum, marked when not."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_quorum_keeping_schedules_are_bitwise_exact(self, gpa_small, seed):
        plan = FaultPlan.generate(
            seed,
            num_shards=NUM_SHARDS,
            replicas_per_shard=REPLICAS,
            horizon=HORIZON,
            crashes=3,
            kills=2,
            stragglers=2,
            drops=2,
        )
        assert plan.keeps_quorum(NUM_SHARDS, REPLICAS)
        tickets, service, _ = _run(gpa_small, plan)
        _assert_bitwise_or_marked(tickets, _oracle_rows(gpa_small))
        # Quorum held throughout: nothing needed to shed.
        assert service.stats.shed == 0
        assert service.stats.availability == 1.0

    @pytest.mark.parametrize("family", ["gpa", "hgpa"])
    def test_contract_holds_across_engine_families(self, request, family):
        engine = request.getfixturevalue(f"{family}_small")
        plan = FaultPlan.generate(
            11, num_shards=NUM_SHARDS, replicas_per_shard=REPLICAS, horizon=HORIZON
        )
        tickets, service, _ = _run(engine, plan)
        _assert_bitwise_or_marked(tickets, _oracle_rows(engine))
        assert service.stats.availability == 1.0

    def test_same_seed_replays_identically(self, gpa_small):
        runs = []
        for _ in range(2):
            tickets, service, router = _run(gpa_small, FaultPlan.generate(
                7, num_shards=NUM_SHARDS, replicas_per_shard=REPLICAS,
                horizon=HORIZON,
            ))
            runs.append((tickets, service, router))
        (t0, s0, r0), (t1, s1, r1) = runs
        for a, b in zip(t0, t1):
            assert a.status == b.status
            assert np.array_equal(a._value, b._value)
            assert a.latency_seconds == b.latency_seconds
        assert s0.stats == s1.stats
        assert r0.res_stats == r1.res_stats
        assert r0.fault_injector.injected == r1.fault_injector.injected
        assert r0.meter.total_bytes == r1.meter.total_bytes

    def test_lost_quorum_degrades_and_sheds_explicitly(self, gpa_small):
        # Both replicas of shard 0 die at t=1.0 and never recover: rows
        # the shard cache already holds serve stale (marked), the rest
        # shed — and every answered row is still bitwise-exact.
        plan = FaultPlan(
            tuple(
                FaultEvent(1.0, "crash", shard=0, replica=r, duration=60.0)
                for r in range(REPLICAS)
            )
        )
        assert not plan.keeps_quorum(NUM_SHARDS, REPLICAS)
        # A 40-node pool guarantees repeats, so serve-stale really fires.
        tickets, service, router = _run(gpa_small, plan, pool=40)
        _assert_bitwise_or_marked(
            tickets, _oracle_rows(gpa_small, pool=40)
        )
        assert service.stats.shed > 0
        assert service.stats.degraded > 0
        assert service.stats.availability < 1.0
        assert router.res_stats.shed_rows > 0
        assert router.res_stats.degraded_rows > 0

    def test_lost_quorum_without_degrade_raises(self, gpa_small):
        plan = FaultPlan(
            tuple(
                FaultEvent(0.0, "crash", shard=0, replica=r, duration=60.0)
                for r in range(REPLICAS)
            )
        )
        with pytest.raises(ReplicaUnavailable):
            _run(gpa_small, plan, degrade=False)


    @pytest.mark.parametrize("verb", ["dense", "topk"])
    def test_lost_response_after_lost_quorum_sheds_each_row_once(
        self, gpa_small, verb
    ):
        # Both replicas of the one shard keep dying, so the serving path
        # sheds the batch; then the response leg is lost for good too.
        # Each row is shed once, on either verb.
        plan = FaultPlan(
            tuple(
                FaultEvent(0.0, "kill_worker", shard=0, replica=r, count=100)
                for r in range(REPLICAS)
            )
            + (FaultEvent(0.001, "drop", shard=0, count=100),)
        )
        router = ShardRouter(
            [[gpa_small] * REPLICAS], clock=SimulatedClock(), resilience=_policy()
        )
        FaultInjector(plan).attach(router)
        nodes = np.arange(8)
        if verb == "dense":
            rows, infos = router.query_many(nodes)
            assert not rows.any()
        else:
            ids, scores, infos = router.query_many_topk(nodes, 5)
            assert not ids.any() and not scores.any()
        assert [info.status for info in infos] == ["shed"] * nodes.size
        assert router.res_stats.shed_rows == nodes.size
        assert router.fault_injector.injected["drop"] == 4


class TestFaultKinds:
    def test_injected_worker_death_is_retried(self, gpa_small):
        plan = FaultPlan(
            (FaultEvent(0.05, "kill_worker", shard=0, replica=0, count=1),)
        )
        tickets, service, router = _run(gpa_small, plan)
        _assert_bitwise_or_marked(tickets, _oracle_rows(gpa_small))
        assert router.fault_injector.injected.get("kill_worker") == 1
        assert router.res_stats.retries >= 1
        assert service.stats.availability == 1.0

    def test_straggler_triggers_hedging(self, gpa_small):
        plan = FaultPlan(
            (
                FaultEvent(
                    0.0, "latency", shard=0, replica=0,
                    duration=HORIZON + 1.0, delay=0.05,
                ),
            )
        )
        tickets, _, router = _run(gpa_small, plan)
        _assert_bitwise_or_marked(tickets, _oracle_rows(gpa_small))
        assert router.res_stats.hedges > 0
        assert router.res_stats.hedge_wins > 0

    def test_fleetwide_stragglers_serve_late_not_wrong(self, gpa_small):
        # Every replica is slow: the deadline fires on every attempt,
        # and the last resort is serving the exact answer late — an SLO
        # miss and a counted overrun, never a shed or a wrong row.
        events = tuple(
            FaultEvent(
                0.0, "latency", shard=s, replica=r,
                duration=HORIZON + 1.0, delay=0.5,
            )
            for s in range(NUM_SHARDS)
            for r in range(REPLICAS)
        )
        tickets, service, router = _run(
            gpa_small, FaultPlan(events), timeout_seconds=0.05,
        )
        _assert_bitwise_or_marked(tickets, _oracle_rows(gpa_small))
        assert router.res_stats.deadline_exceeded > 0
        assert router.res_stats.deadline_overruns > 0
        assert service.stats.shed == 0
        assert service.stats.slo_missed > 0

    def test_lost_payloads_retransmit_and_pay_the_wire_twice(self, gpa_small):
        nodes = np.arange(24)
        baseline, _ = _router(gpa_small)
        want, _ = baseline.query_many(nodes)
        plan = FaultPlan(
            (
                FaultEvent(0.0, "drop", shard=0, count=1),
                FaultEvent(0.0, "truncate", shard=1, count=1),
            )
        )
        router, _ = _router(gpa_small, plan)
        got, _ = router.query_many(nodes)
        assert np.array_equal(got, want)
        assert router.fault_injector.injected == {"drop": 1, "truncate": 1}
        # The lost payloads crossed the wire before being lost, so the
        # faulted run is strictly more expensive than the clean one.
        assert router.meter.total_bytes > baseline.meter.total_bytes
        assert router.res_stats.retries >= 2

    def test_router_without_a_policy_retransmits_lost_payloads(self, gpa_small):
        # A router built with no ``resilience=`` runs under the default
        # RetryPolicy(): a dropped and a truncated payload are resent,
        # never raised, and the answer is the clean run's.
        nodes = np.arange(24)
        layout = [[gpa_small] * REPLICAS] * NUM_SHARDS
        baseline = ShardRouter(layout, clock=SimulatedClock())
        want, _ = baseline.query_many(nodes)
        plan = FaultPlan(
            (
                FaultEvent(0.0, "drop", shard=0, count=1),
                FaultEvent(0.0, "truncate", shard=1, count=1),
            )
        )
        router = ShardRouter(layout, clock=SimulatedClock())
        FaultInjector(plan).attach(router)
        got, infos = router.query_many(nodes)
        assert np.array_equal(got, want)
        assert all(info.ok for info in infos)
        assert router.fault_injector.injected == {"drop": 1, "truncate": 1}
        assert router.res_stats.retries == 2
        assert router.meter.total_bytes > baseline.meter.total_bytes

    def test_injected_worker_death_at_the_exec_seam(self, gpa_small):
        want, _ = ShardRouter([[gpa_small] * REPLICAS] * NUM_SHARDS).query_many(
            np.arange(16)
        )
        plan = FaultPlan(
            (FaultEvent(0.0, "kill_worker", shard=0, replica=0, count=1),)
        )
        with ProcessPoolBackend(2) as pool:
            clock = SimulatedClock()
            router = ShardRouter(
                [[gpa_small] * REPLICAS] * NUM_SHARDS,
                clock=clock,
                backend=pool,
                resilience=_policy(),
            )
            FaultInjector(plan).attach(router)
            got, _ = router.query_many(np.arange(16))
            assert np.array_equal(got, want)
            assert router.res_stats.worker_retries == 1
            assert router.fault_injector.injected == {"kill_worker": 1}


class TestGracefulDegradationFrontend:
    def test_admission_control_sheds_past_the_queue_mark(self, gpa_small):
        clock = SimulatedClock()
        service = PPVService(
            gpa_small, window=1.0, clock=clock, shed_above=3
        )
        tickets = [service.submit(u) for u in range(6)]
        assert [t.shed for t in tickets] == [False] * 3 + [True] * 3
        shed = tickets[-1]
        assert shed.done and not shed._value.any()
        assert not shed._value.flags.writeable
        with pytest.raises(DegradedResult, match="was shed"):
            shed.result
        assert service.stats.shed == 3
        assert service.stats.availability == pytest.approx(0.5)
        service.flush()
        assert all(t.done for t in tickets)

    def test_slo_accounting_classifies_answered_requests(self, gpa_small):
        clock = SimulatedClock()
        router = ShardRouter([[gpa_small]], cache_bytes=1 << 20, clock=clock)
        service = PPVService(
            router,
            window=0.05,
            clock=clock,
            slo_seconds=0.04,
        )
        first = service.submit(1)
        clock.advance(0.2)
        service.poll()
        assert first.latency_seconds == pytest.approx(0.2)
        assert service.stats.slo_missed == 1
        hit = service.submit(1)  # a shard-cache hit resolves within the SLO
        service.flush()
        cache = router.shards[0].cache
        assert cache.stats.hits == 1 and hit.latency_seconds == 0.0
        assert service.stats.slo_met == 1
        assert service.stats.max_latency_seconds == pytest.approx(0.2)
        assert service.stats.mean_latency_seconds == pytest.approx(0.1)

    def test_failed_flush_sheds_every_ticket_and_reraises(self, gpa_small):
        """A bare engine that raises mid-flush: every ticket of the batch
        resolves ``"shed"`` (none is left neither pending nor done), the
        error reaches the caller, and availability counts the loss."""

        class Unreachable:
            num_nodes = gpa_small.num_nodes

            def query_many(self, nodes, *, collect_stats=True):
                raise ReplicaUnavailable("every replica is down")

        service = PPVService(Unreachable(), window=1.0, clock=SimulatedClock())
        tickets = [service.submit(u) for u in (4, 9, 4)]
        with pytest.raises(ReplicaUnavailable):
            service.flush()
        assert service.pending == 0
        for ticket in tickets:
            assert ticket.done and ticket.status == "shed"
            with pytest.raises(DegradedResult, match="was shed"):
                ticket.result
        assert service.stats.shed == 3
        assert service.stats.availability == 0.0
        assert service.stats.batches == 0

    def test_service_validates_degradation_knobs(self, gpa_small):
        with pytest.raises(Exception, match="slo_seconds"):
            PPVService(gpa_small, slo_seconds=0.0)
        with pytest.raises(Exception, match="shed_above"):
            PPVService(gpa_small, shed_above=0)
