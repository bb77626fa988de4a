#!/usr/bin/env python
"""Serving PPV queries: micro-batching frontend, result cache, top-k.

Shapes the index as a production query service:

1. build a GPA index on the Email stand-in dataset,
2. stand up a ``PPVService`` with a 5 ms batch window in front of a
   one-shard ``ShardRouter`` that holds the LRU result cache,
3. replay a Zipf-skewed request stream (hot users dominate),
4. inspect batching and cache statistics,
5. answer top-k queries without materialising full dense PPVs.

Run:  python examples/ppv_serving.py
"""

from __future__ import annotations

import numpy as np

from repro import datasets
from repro.core import build_gpa_index
from repro.serving import PPVService, SimulatedClock
from repro.sharding import ShardRouter


def main() -> None:
    # 1. An index — any family works; the service adapts flat, HGPA,
    # FastPPV and the distributed runtimes behind one interface.
    graph = datasets.load("email")
    index = build_gpa_index(graph, 4, tol=1e-6, seed=0)
    n = graph.num_nodes
    print(f"graph: {graph}")

    # 2. The serving frontend: requests wait at most 5 ms, batches are
    # answered by one query_many call.  The cache lives behind it, in the
    # one shard of a router around the index: a 4 MB LRU of result rows.
    # A SimulatedClock replays the arrival stream below deterministically;
    # a live deployment keeps the default SystemClock and calls poll() as
    # requests come in (no arrivals replay).
    clock = SimulatedClock()
    router = ShardRouter([[index]], cache_bytes=4 << 20, clock=clock)
    service = PPVService(router, window=0.005, max_batch=128, clock=clock)

    # 3. Zipf traffic: popularity of the rank-r node ∝ r^-1.2.
    rng = np.random.default_rng(7)
    p = np.arange(1, n + 1, dtype=np.float64) ** -1.2
    p /= p.sum()
    stream = rng.permutation(n)[rng.choice(n, size=600, p=p)]
    arrivals = np.arange(stream.size) * 1e-4  # 10k requests/second
    results = service.serve(stream, arrivals)
    print(f"served {stream.size} requests -> {results.shape} results")

    # 4. What the window and the cache bought.
    stats = service.stats
    cache_stats = router.shards[0].cache.stats
    print(
        f"batches: {stats.batches} (mean size {stats.mean_batch_size:.1f}), "
        f"cache hit rate: {cache_stats.hit_rate:.2f}, "
        f"evictions: {cache_stats.evictions}"
    )

    # Served results are exact — identical to per-node index queries.
    check = int(stream[0])
    drift = np.abs(results[0] - index.query(check)).max()
    print(f"max drift vs direct query({check}): {drift:.2e}")

    # 5. Top-k, the dominant real workload: (ids, scores), best first.
    ids, scores = index.query_topk(check, 5)
    print(f"top-5 of node {check}: " + ", ".join(
        f"{i}:{s:.4f}" for i, s in zip(ids.tolist(), scores.tolist())
    ))
    # Batched variant bounds dense intermediates per chunk.
    many_ids, _, _ = index.query_many_topk(stream[:10], 5, batch=4)
    assert many_ids[0].tolist() == ids.tolist()


if __name__ == "__main__":
    main()
