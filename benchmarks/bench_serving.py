"""Serving layer: micro-batched throughput and cache hit rate, Zipf traffic.

Not a paper figure — this measures the query-*serving* win on top of the
batch engine: a stream of single-node requests with the skew of real PPR
traffic (a few hot users dominate — the "millions of users" shape) is
replayed through :class:`repro.serving.PPVService` and compared against
unbatched serving.

* **Throughput vs batch window** — the same arrival process replayed at
  several window sizes (window 0 = one backend call per request); wider
  windows form bigger ``query_many`` batches and amortise the skeleton
  slicing.  Expected: micro-batching beats unbatched serving by ≥ 2×.
* **Cache hit rate** — the LRU result cache, held by a one-shard
  :class:`repro.sharding.ShardRouter` behind the service, against the
  stream's intrinsic repeat fraction (the upper bound: every first
  occurrence is a compulsory miss).  An unbounded budget should sit near
  that bound; a tight budget trades hits for memory.

Smoke mode (``REPRO_SMOKE=1``) shrinks the dataset and stream and skips
the throughput assertion, so CI exercises the full serving path on every
push without timing flakiness.
"""

import os
import time

import numpy as np

from repro.bench import ExperimentTable, gpa_index, zipf_stream
from repro.serving import PPVService, SimulatedClock
from repro.sharding import ShardRouter

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
DATASET = "email" if SMOKE else "web"
PARTS = 4 if SMOKE else 8
STREAM = 256 if SMOKE else 1536
REPEAT = 1 if SMOKE else 3
MAX_BATCH = 64 if SMOKE else 256
ZIPF_EXP = 1.2
ARRIVAL_SPACING = 1e-4  # 10k requests/second
WINDOWS_MS = (0.0, 1.0, 5.0, 20.0)


def _serve_wall_seconds(
    index, stream, arrivals, window_s, cache_bytes=None
) -> tuple:
    """One replay of the stream; returns (wall, service) — wall is real
    compute time, the arrival process advances only the simulated clock.
    With ``cache_bytes`` the index sits in a one-shard router whose
    shard caches rows under that budget."""
    clock = SimulatedClock()
    engine = index
    if cache_bytes is not None:
        engine = ShardRouter([[index]], cache_bytes=cache_bytes, clock=clock)
    service = PPVService(
        engine,
        window=window_s,
        max_batch=MAX_BATCH,
        clock=clock,
    )
    t0 = time.perf_counter()
    out = service.serve(stream, arrivals)
    wall = time.perf_counter() - t0
    # Spot-check exactness on the way (serving must never drift).
    sample = int(stream[0])
    np.testing.assert_allclose(out[0], index.query(sample), atol=1e-12, rtol=0)
    return wall, service


def test_serving_throughput_vs_window():
    index = gpa_index(DATASET, PARTS)
    n = index.graph.num_nodes
    stream = zipf_stream(n, STREAM, exponent=ZIPF_EXP)
    arrivals = np.arange(stream.size) * ARRIVAL_SPACING
    index.query_many(stream[:8])  # build the stacked ops once, untimed

    table = ExperimentTable(
        "Serving Throughput",
        f"PPVService on {DATASET}: throughput vs batch window "
        f"(Zipf {ZIPF_EXP} stream, {STREAM} requests)",
        ["window (ms)", "wall (s)", "qps", "mean batch", "speedup"],
    )
    qps_by_window = {}
    batch_by_window = {}
    for window_ms in WINDOWS_MS:
        wall = np.inf
        service = None
        for _ in range(REPEAT):
            w, service = _serve_wall_seconds(
                index, stream, arrivals, window_ms / 1000.0
            )
            wall = min(wall, w)
        qps_by_window[window_ms] = stream.size / wall
        batch_by_window[window_ms] = service.stats.mean_batch_size
        table.add(
            window_ms,
            round(wall, 4),
            round(qps_by_window[window_ms], 1),
            round(service.stats.mean_batch_size, 1),
            round(qps_by_window[window_ms] / qps_by_window[WINDOWS_MS[0]], 2),
        )
    table.note(
        "window 0 = unbatched serving (one query_many call per request); "
        f"arrivals spaced {ARRIVAL_SPACING * 1e3:.1f} ms apart, "
        f"max_batch {MAX_BATCH}"
    )
    table.emit()

    best = max(qps_by_window[w] for w in WINDOWS_MS[1:])
    widest = WINDOWS_MS[-1]
    assert batch_by_window[widest] > batch_by_window[WINDOWS_MS[0]], (
        "wider windows must form bigger batches"
    )
    if not SMOKE:
        speedup = best / qps_by_window[0.0]
        assert speedup >= 2.0, (
            f"micro-batched serving speedup {speedup:.2f}x below 2x"
        )


def test_serving_cache_hit_rate():
    index = gpa_index(DATASET, PARTS)
    n = index.graph.num_nodes
    stream = zipf_stream(n, STREAM, exponent=ZIPF_EXP)
    arrivals = np.arange(stream.size) * ARRIVAL_SPACING
    unique = np.unique(stream).size
    repeat_fraction = 1.0 - unique / stream.size
    row_bytes = n * 8

    table = ExperimentTable(
        "Serving Cache",
        f"PPV result cache on {DATASET}: hit rate vs byte budget "
        f"(Zipf {ZIPF_EXP} stream, repeat fraction {repeat_fraction:.2f})",
        ["budget (rows)", "hit rate", "evictions", "entries", "MB"],
    )
    hit_rates = {}
    for budget_rows in (unique + 1, max(2, unique // 8)):
        _, service = _serve_wall_seconds(
            index, stream, arrivals, 0.005, cache_bytes=budget_rows * row_bytes
        )
        cache = service.backend.shards[0].cache
        hit_rates[budget_rows] = cache.stats.hit_rate
        table.add(
            budget_rows,
            round(cache.stats.hit_rate, 3),
            cache.stats.evictions,
            len(cache),
            round(cache.current_bytes / 1e6, 2),
        )
    table.note(
        "hit rate is bounded by the repeat fraction (first occurrences are "
        "compulsory misses; same-window repeats dedupe inside the batch, "
        "before the shard cache sees them)"
    )
    table.emit()

    unbounded = hit_rates[unique + 1]
    assert unbounded <= repeat_fraction + 1e-9
    # The skew makes repeats overwhelmingly hot-node repeats, so even with
    # window dedup the cache must capture most of them.
    assert unbounded >= 0.5 * repeat_fraction, (
        f"hit rate {unbounded:.3f} inconsistent with repeat fraction "
        f"{repeat_fraction:.3f}"
    )
    assert hit_rates[max(2, unique // 8)] <= unbounded + 1e-9
