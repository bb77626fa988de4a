#!/usr/bin/env python
"""Chaos serving: a seeded fault schedule against the resilient router.

Walks the fault-tolerance layer end to end:

1. build the GPA index and stand up a resilient ``ShardRouter`` —
   2 shards × 2 replicas with retries, deadlines, hedging, circuit
   breakers and graceful degradation (``RetryPolicy``),
2. draw a deterministic fault schedule from one integer seed
   (``FaultPlan.generate``) — crashes, flaky workers, stragglers,
   dropped payloads — and attach it with a ``FaultInjector``,
3. replay a Zipf request stream on a ``SimulatedClock`` while the
   schedule fires, then compare against the fault-free run: every
   answered row is bitwise identical,
4. lose a whole shard (both replicas) and watch the stack degrade
   *explicitly* — stale cache rows marked ``degraded``, the rest
   ``shed`` with ``DegradedResult`` on read — instead of failing or,
   worse, answering wrong.

Run:  python examples/chaos_serving.py
"""

from __future__ import annotations

import numpy as np

from repro import datasets
from repro.core import build_gpa_index
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.serving import PPVService, SimulatedClock
from repro.sharding import RetryPolicy, ShardRouter

NUM_SHARDS = 2
REPLICAS = 2
SEED = 7


def build_service(index, plan=None):
    """A resilient router (+ optional fault schedule) behind a service."""
    clock = SimulatedClock()
    router = ShardRouter(
        [[index] * REPLICAS for _ in range(NUM_SHARDS)],
        cache_bytes=2 << 20,
        clock=clock,
        resilience=RetryPolicy(
            max_attempts=4,
            timeout_seconds=0.25,
            hedge_after_seconds=0.02,
            degrade=True,
        ),
    )
    if plan is not None:
        FaultInjector(plan).attach(router)
    service = PPVService(router, window=0.005, clock=clock, slo_seconds=0.1)
    return service, router


def main() -> None:
    graph = datasets.load("email")
    index = build_gpa_index(graph, NUM_SHARDS * 2, tol=1e-6, seed=0)
    n = graph.num_nodes
    print(f"graph: {graph}, {NUM_SHARDS} shards x {REPLICAS} replicas")

    # Zipf traffic with Poisson arrivals, fully determined by the seed.
    rng = np.random.default_rng(SEED)
    p = np.arange(1, n + 1, dtype=np.float64) ** -1.2
    p /= p.sum()
    stream = rng.permutation(n)[rng.choice(n, size=400, p=p)]
    arrivals = np.cumsum(rng.exponential(0.002, size=stream.size))

    # The fault-free oracle run.
    service, _ = build_service(index)
    oracle = [t.result for t in service.replay(zip(arrivals, stream.tolist()))]

    # One integer identifies the whole chaos run: the same seed draws the
    # same crashes/kills/stragglers/drops and replays them identically on
    # the simulated clock.
    plan = FaultPlan.generate(
        SEED,
        num_shards=NUM_SHARDS,
        replicas_per_shard=REPLICAS,
        horizon=float(arrivals[-1]),
    )
    print(f"\nfault schedule (seed {SEED}):")
    for event in plan:
        window = f" for {event.duration:.2f}s" if event.duration else ""
        print(f"  t={event.at:5.2f}s  {event.kind:<12} "
              f"shard {event.shard} replica {event.replica}{window}")
    assert plan.keeps_quorum(NUM_SHARDS, REPLICAS)

    service, router = build_service(index, plan)
    tickets = service.replay(zip(arrivals, stream.tolist()))
    exact = sum(np.array_equal(t.result, o) for t, o in zip(tickets, oracle))
    res = router.res_stats
    print(f"\nunder chaos: {exact}/{len(tickets)} answers bitwise-equal "
          f"to the fault-free run")
    print(f"  availability {service.stats.availability:.3f}, "
          f"retries {res.retries}, hedges {res.hedges} "
          f"(won {res.hedge_wins}), breaker opens {res.breaker_opens}")
    print(f"  injected: {router.fault_injector.injected}")

    # Now the unsurvivable case: both replicas of shard 0 gone.  The
    # contract flips from "exact" to "explicitly marked" — stale cache
    # rows serve as "degraded", unanswerable rows shed, nothing lies.
    plan = FaultPlan(
        tuple(
            FaultEvent(0.3, "crash", shard=0, replica=r, duration=60.0)
            for r in range(REPLICAS)
        )
    )
    service, router = build_service(index, plan)
    tickets = service.replay(zip(arrivals, stream.tolist()))
    stats = service.stats
    print("\nshard 0 lost entirely at t=0.3s:")
    print(f"  availability {stats.availability:.3f}  "
          f"(degraded {stats.degraded}, shed {stats.shed} of "
          f"{stats.requests})")
    for ticket, want in zip(tickets, oracle):
        if not ticket.shed:
            assert np.array_equal(ticket.result, want)
    shed = next(t for t in tickets if t.shed)
    try:
        shed.result
    except Exception as exc:
        print(f"  reading a shed ticket raises: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
