"""Batch query engine: per-hub loop vs vectorized vs batched throughput.

Not a paper figure — this measures the serving-side win of the stacked
CSC/CSR query layout shared by all index families.  Three evaluations of
the same Eq. 4/Eq. 6 combination are compared on the synthetic datasets:

* ``reference`` — the per-hub Python loop (one dict probe + axpy per hub),
* ``vectorized`` — one skeleton-row slice plus one ``CSC @ weights``
  product per query,
* ``batched`` — ``query_many``: one sparse matmul per query batch.

Expected shape: both matrix-form paths beat the per-hub loop by an order
of magnitude, and on the largest dataset the batched path is ≥ 3× the
loop.  Batched vs vectorized is a wash for large ``n`` — the dense
``(batch, n)`` output write dominates once each query touches every
node — so batching pays off most on the smaller graphs and in the
distributed engines (shared per-machine skeleton slicing).  HGPA's
``query_many`` at 32 queries runs the per-query body once per node (its
``ROW_LOOP_BELOW`` is 64), so its two columns should be close; the
batched answer must equal ``query`` bitwise.
"""

import numpy as np

from repro.bench import ExperimentTable, bench_queries, gpa_index, hgpa_index, time_queries
from repro.core.hgpa import HGPAShare

DATASETS = ("email", "web", "pld_full")
LARGEST = "pld_full"
PARTS = 8
NUM_QUERIES = 32


def test_batch_queries_flat(benchmark):
    table = ExperimentTable(
        "Batch Queries",
        "Flat (GPA) query engine: ms/query by evaluation strategy",
        ["dataset", "reference", "vectorized", "batched", "batched speedup"],
    )
    speedups = {}
    for name in DATASETS:
        index = gpa_index(name, PARTS)
        queries = bench_queries(name, NUM_QUERIES)
        ref_ms = time_queries(lambda q: index.query_reference(q), queries) * 1000
        vec_ms = time_queries(index.query, queries) * 1000
        bat_ms = time_queries(index.query_many, queries, batched=True) * 1000
        speedups[name] = ref_ms / max(1e-9, bat_ms)
        table.add(
            name,
            round(ref_ms, 3),
            round(vec_ms, 3),
            round(bat_ms, 3),
            round(speedups[name], 1),
        )
    table.note(
        "reference = per-hub Python loop; batched = query_many "
        f"({NUM_QUERIES} queries per call)"
    )
    table.emit()
    assert speedups[LARGEST] >= 3.0, (
        f"{LARGEST}: batched speedup {speedups[LARGEST]:.1f}x below 3x"
    )

    index = gpa_index(LARGEST, PARTS)
    queries = bench_queries(LARGEST, NUM_QUERIES)
    benchmark(lambda: index.query_many(queries))


def test_batch_queries_hgpa():
    table = ExperimentTable(
        "Batch Queries HGPA",
        "HGPA query engine: ms/query, per-query vs batched",
        ["dataset", "per-query", "batched", "speedup"],
    )
    for name in DATASETS:
        index = hgpa_index(name)
        queries = bench_queries(name, NUM_QUERIES)
        one_ms = time_queries(index.query, queries) * 1000
        bat_ms = time_queries(index.query_many, queries, batched=True) * 1000
        table.add(
            name, round(one_ms, 3), round(bat_ms, 3), round(one_ms / max(1e-9, bat_ms), 1)
        )
        out, _ = index.query_many(queries)
        sample = int(queries[0])
        assert np.array_equal(out[0], index.query(sample))
    table.note(
        f"{NUM_QUERIES} queries per call are below HGPAShare.ROW_LOOP_BELOW "
        f"({HGPAShare.ROW_LOOP_BELOW}), so query_many runs the per-query body "
        "once per node and stacks the rows: level terms share little work "
        "below the root, and the batch body pays only from 64 rows "
        "(results/batch_rows.txt); batched also collects QueryStats "
        "(query_many's default) and is one call's mean, per-query the "
        "median of single calls"
    )
    table.emit()
