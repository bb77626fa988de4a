"""Fault tolerance under canned chaos schedules: availability and cost.

Not a paper figure — this measures the serving stack's resilience layer
(:mod:`repro.faults` + ``ShardRouter(resilience=...)``) under three
canned fault schedules, replayed deterministically on a
``SimulatedClock``:

* **single-replica-loss** — one replica of one shard crashes for half
  the run; retries/hedging route around it.  Availability >= 0.99 is
  *asserted*: a replica loss with a healthy sibling must be invisible.
* **straggler-storm** — one replica of every shard turns slow for the
  whole run; tail-latency hedging pays duplicate attempts to keep p99
  bounded.
* **flaky-fleet** — transient worker deaths sprinkled across the fleet
  plus a dropped and a truncated payload; every fault is survived by a
  bounded retry.

Every schedule's answers are checked bitwise against the fault-free run
(the exactness contract), and the retry/hedge overhead — extra
attempts, backoff charged, extra wire bytes — is recorded without
judgement.  Machine-readable output lands in
``results/BENCH_fault_tolerance.json``.
"""

import json
import os

import numpy as np

from repro.bench import ExperimentTable, gpa_index, result_path, zipf_stream
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.serving import PPVService, SimulatedClock
from repro.sharding import RetryPolicy, ShardRouter

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
DATASET = "email" if SMOKE else "web"
PARTS = 4
NUM_SHARDS = 2
REPLICAS = 2
STREAM = 300 if SMOKE else 2000
MEAN_GAP_S = 0.002
WINDOW_S = 0.005
SLO_S = 0.1
POLICY = RetryPolicy(
    max_attempts=4,
    backoff_seconds=0.002,
    timeout_seconds=0.25,
    hedge_after_seconds=0.02,
    degrade=True,
)


def _arrivals(size: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(MEAN_GAP_S, size=size))


def _schedules(horizon: float) -> dict[str, FaultPlan]:
    h = float(horizon)
    single = FaultPlan(
        (FaultEvent(0.25 * h, "crash", shard=0, replica=0, duration=0.5 * h),)
    )
    storm = FaultPlan(
        tuple(
            FaultEvent(0.0, "latency", shard=s, replica=0,
                       duration=h + 1.0, delay=0.05)
            for s in range(NUM_SHARDS)
        )
    )
    flaky = FaultPlan(
        tuple(
            FaultEvent((i + 1) * h / 8.0, "kill_worker",
                       shard=i % NUM_SHARDS, replica=i % REPLICAS, count=1)
            for i in range(6)
        )
        + (
            FaultEvent(0.4 * h, "drop", shard=0, count=1),
            FaultEvent(0.6 * h, "truncate", shard=1, count=1),
        )
    )
    return {
        "single-replica-loss": single,
        "straggler-storm": storm,
        "flaky-fleet": flaky,
    }


def _run(index, stream, arrivals, plan=None):
    clock = SimulatedClock()
    router = ShardRouter(
        [[index] * REPLICAS] * NUM_SHARDS,
        clock=clock,
        cache_bytes=1 << 20,
        resilience=POLICY,
    )
    if plan is not None:
        FaultInjector(plan).attach(router)
    service = PPVService(router, window=WINDOW_S, clock=clock, slo_seconds=SLO_S)
    tickets = service.replay(zip(arrivals.tolist(), stream.tolist()))
    return tickets, service, router


def _row(name, tickets, service, router, oracle, base_bytes):
    # Exactness first: every answered row must match the fault-free run
    # bitwise; shed rows must be explicit zeros.
    for ticket, want in zip(tickets, oracle):
        if ticket.shed:
            assert not ticket._value.any()
        else:
            assert np.array_equal(ticket.result, want), (
                f"{name}: non-degraded answer differs from fault-free run"
            )
    answered = [t.latency_seconds for t in tickets if not t.shed]
    res = router.res_stats
    attempts = max(1, res.attempts)
    return {
        "schedule": name,
        "availability": service.stats.availability,
        "p99_latency_ms": float(np.percentile(answered, 99)) * 1e3,
        "mean_latency_ms": float(np.mean(answered)) * 1e3,
        "slo_met": service.stats.slo_met,
        "slo_missed": service.stats.slo_missed,
        "degraded": service.stats.degraded,
        "shed": service.stats.shed,
        "retries": res.retries,
        "hedges": res.hedges,
        "hedge_wins": res.hedge_wins,
        "deadline_exceeded": res.deadline_exceeded,
        "deadline_overruns": res.deadline_overruns,
        "worker_retries": res.worker_retries,
        "extra_attempt_overhead": res.extra_attempts / attempts,
        "backoff_seconds": res.backoff_seconds,
        "wire_overhead": router.meter.total_bytes / max(1, base_bytes) - 1.0,
        "injected": dict(
            sorted(router.fault_injector.injected.items())
            if router.fault_injector
            else []
        ),
    }


def test_fault_tolerance():
    index = gpa_index(DATASET, PARTS)
    stream = zipf_stream(index.graph.num_nodes, STREAM)
    arrivals = _arrivals(STREAM)

    base_tickets, base_service, base_router = _run(index, stream, arrivals)
    assert all(t.status == "ok" for t in base_tickets)
    oracle = [t.result for t in base_tickets]
    base_bytes = base_router.meter.total_bytes

    rows = [
        _row("fault-free", base_tickets, base_service, base_router,
             oracle, base_bytes)
    ]
    for name, plan in _schedules(arrivals[-1]).items():
        tickets, service, router = _run(index, stream, arrivals, plan)
        rows.append(_row(name, tickets, service, router, oracle, base_bytes))

    table = ExperimentTable(
        "Fault Tolerance",
        f"{NUM_SHARDS} shards x {REPLICAS} replicas on {DATASET}: canned "
        f"chaos schedules, {STREAM} requests, answers checked bitwise",
        [
            "schedule",
            "avail",
            "p99 ms",
            "degr",
            "shed",
            "retries",
            "hedges",
            "overhead",
        ],
    )
    for row in rows:
        table.add(
            row["schedule"],
            round(row["availability"], 4),
            round(row["p99_latency_ms"], 2),
            row["degraded"],
            row["shed"],
            row["retries"],
            row["hedges"],
            round(row["extra_attempt_overhead"], 3),
        )
    table.note(
        "overhead = extra attempts (retries+hedges) / total attempts; "
        "wire overhead and backoff charged are in the JSON rows"
    )
    table.note(
        "every non-shed answer equals the fault-free run bitwise — the "
        "schedules change cost and availability, never values"
    )
    table.emit()

    by_name = {row["schedule"]: row for row in rows}
    # The headline number: losing one replica with a healthy sibling must
    # not cost answers.
    assert by_name["single-replica-loss"]["availability"] >= 0.99
    assert by_name["straggler-storm"]["hedges"] > 0
    assert by_name["flaky-fleet"]["retries"] > 0

    payload = {
        "smoke": SMOKE,
        "dataset": DATASET,
        "num_shards": NUM_SHARDS,
        "replicas_per_shard": REPLICAS,
        "stream": STREAM,
        "mean_gap_seconds": MEAN_GAP_S,
        "window_seconds": WINDOW_S,
        "slo_seconds": SLO_S,
        "policy": {
            "max_attempts": POLICY.max_attempts,
            "backoff_seconds": POLICY.backoff_seconds,
            "timeout_seconds": POLICY.timeout_seconds,
            "hedge_after_seconds": POLICY.hedge_after_seconds,
            "breaker_failures": POLICY.breaker_failures,
        },
        "rows": rows,
    }
    out = result_path("BENCH_fault_tolerance", ".json")
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
