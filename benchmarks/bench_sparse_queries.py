"""Sparse query pipeline: CSR batch results vs dense batches vs per-query.

Not a paper figure — this measures the win of keeping batched query
results sparse end to end (``query_many_sparse``), closing the ROADMAP
item that HGPA batching could only *match* its per-query matmul path:
with sparse level-term accumulation, the dense ``(batch, n)``
accumulator disappears and batched HGPA beats per-query outright on
pruned indexes.

Three evaluations of the same queries are compared at serving batch
size on pruned indexes:

* ``per-query``  — the vectorised single-query path, once per node,
* ``dense``      — ``query_many(collect_stats=False)``: dense (batch, n),
* ``sparse``     — ``query_many_sparse(collect_stats=False)``: CSR.

Reported per engine: wall-clock ms/query, *peak intermediate bytes*
(tracemalloc around one batched call — the accumulators, weight blocks
and result buffers), and the result's nnz ratio.  Exactness is asserted
on the way (``toarray()`` equality — the stack-wide contract).  Every
path runs the whole batch once untimed first; the per-query and sparse
walls are the best of ``REPEAT`` alternating rounds, one call of each per
round, so the gate between them compares like with like.

**Pruning scale note.**  The paper's ``HGPA_ad`` discards offline scores
below ``1e-4`` on graphs of 10⁶–10⁸ nodes, where the mean PPV entry is
``1/n ≈ 1e-8`` — the threshold sits orders of magnitude above the mean
and rows keep a few hundred entries.  The stand-in graphs are ~200×
smaller (mean entry ~1e-4), so ``1e-4`` prunes almost nothing; the
benchmark therefore scales the threshold so rows land in the same
few-hundred-entries support regime the paper's HGPA_ad produces.

Expected shape: batched-sparse beats the per-query path in wall-clock
on the pruned large stand-in and cuts peak intermediate bytes ≥ 5× at
batch 256; the flat (GPA) sparse path beats its dense batch in both.
Machine-readable output lands in ``results/BENCH_sparse_queries.json``
alongside the text table.

Smoke mode (``REPRO_SMOKE=1``) shrinks the dataset and relaxes the
timing assertions so CI exercises the full sparse pipeline per push
without timing flakiness.
"""

import json
import os
import platform
import time
import tracemalloc

import numpy as np
import scipy

from repro.bench import (
    ExperimentTable,
    gpa_index,
    hgpa_index,
    kernel_backend_info,
    result_path,
    zipf_stream,
)
from repro.core.flat_index import topk_rows, topk_rows_reference

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
BATCH = 256
REPEAT = 2 if SMOKE else 7
# (engine, dataset, scaled HGPA_ad-regime prune) — see the module docstring.
HGPA_CONFIG = ("web", 1e-3) if SMOKE else ("pld_full", 2e-3)
GPA_CONFIG = ("email", 1e-3) if SMOKE else ("web", 1e-3)
GPA_PARTS = 4 if SMOKE else 8
TOPK_K = 10
ENVIRONMENT = {
    "smoke": SMOKE,
    "cpu_count": os.cpu_count(),
    "python": platform.python_version(),
    "numpy": np.__version__,
    "scipy": scipy.__version__,
    **kernel_backend_info(),
}


def _best_wall(fn, repeat=REPEAT) -> float:
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _alternating(fn_a, fn_b, rounds=REPEAT) -> tuple[float, float]:
    """Best wall of each of two callables, timed in alternating rounds
    (one call of each per round), so drift hits both sides alike."""
    best_a = best_b = np.inf
    for _ in range(rounds):
        best_a = min(best_a, _best_wall(fn_a, 1))
        best_b = min(best_b, _best_wall(fn_b, 1))
    return best_a, best_b


def _write_json(fields: dict) -> None:
    """Merge ``fields`` into the bench's JSON, keeping what the other
    test of this file wrote there."""
    out = result_path("BENCH_sparse_queries", ".json")
    payload = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    payload.update(fields)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def _peak_bytes(fn) -> int:
    """Peak python-heap bytes allocated during one call (numpy buffers
    route through the traced allocator, so dense accumulators and sparse
    blocks are both captured)."""
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def _measure(name, index, queries) -> dict:
    n = index.graph.num_nodes
    def per_query_path():
        return [index.query(int(u)) for u in queries.tolist()]

    # Warm every stacked/level op the batch touches, on every timed path,
    # so one-time builds are not charged.
    per_query_path()
    dense, _ = index.query_many(queries, collect_stats=False)
    sparse, _ = index.query_many_sparse(queries, collect_stats=False)
    assert (sparse.toarray() == dense).all(), f"{name}: sparse != dense"
    per_query, sparse_wall = _alternating(
        per_query_path,
        lambda: index.query_many_sparse(queries, collect_stats=False),
    )
    dense_wall = _best_wall(
        lambda: index.query_many(queries, collect_stats=False)
    )
    peak_dense = _peak_bytes(
        lambda: index.query_many(queries, collect_stats=False)
    )
    peak_sparse = _peak_bytes(
        lambda: index.query_many_sparse(queries, collect_stats=False)
    )
    return {
        "engine": name,
        "n": int(n),
        "batch": int(queries.size),
        "per_query_ms": per_query / queries.size * 1e3,
        "dense_batch_ms": dense_wall / queries.size * 1e3,
        "sparse_batch_ms": sparse_wall / queries.size * 1e3,
        "peak_dense_bytes": peak_dense,
        "peak_sparse_bytes": peak_sparse,
        "peak_ratio": peak_dense / max(1, peak_sparse),
        "nnz_per_row": sparse.nnz / max(1, queries.size),
        "nnz_ratio": sparse.nnz / max(1, queries.size) / n,
    }


def test_sparse_query_pipeline():
    hgpa_ds, hgpa_prune = HGPA_CONFIG
    gpa_ds, gpa_prune = GPA_CONFIG
    configs = [
        (
            f"HGPA_ad ({hgpa_ds}, prune={hgpa_prune:g})",
            hgpa_index(hgpa_ds, prune=hgpa_prune),
            hgpa_ds,
            hgpa_prune,
        ),
        (
            f"GPA ({gpa_ds}, prune={gpa_prune:g})",
            gpa_index(gpa_ds, GPA_PARTS, prune=gpa_prune),
            gpa_ds,
            gpa_prune,
        ),
    ]
    table = ExperimentTable(
        "Sparse Queries",
        "Sparse vs dense batch pipeline: ms/query and peak intermediate MB",
        [
            "engine",
            "per-query",
            "dense batch",
            "sparse batch",
            "peak dense MB",
            "peak sparse MB",
            "peak ratio",
            "nnz/row",
        ],
    )
    rows = []
    for name, index, dataset, prune in configs:
        queries = zipf_stream(index.graph.num_nodes, BATCH, seed=11)
        row = _measure(name, index, queries)
        row["dataset"] = dataset
        row["prune"] = prune
        rows.append(row)
        table.add(
            name,
            round(row["per_query_ms"], 4),
            round(row["dense_batch_ms"], 4),
            round(row["sparse_batch_ms"], 4),
            round(row["peak_dense_bytes"] / 1e6, 2),
            round(row["peak_sparse_bytes"] / 1e6, 2),
            round(row["peak_ratio"], 1),
            round(row["nnz_per_row"]),
        )
    table.note(
        f"batch {BATCH}, collect_stats=False (serving fast mode); peak = "
        "tracemalloc high-water of one batched call"
    )
    table.note(
        "prune scaled to the stand-ins so rows keep a few hundred entries "
        "— the support regime paper-scale HGPA_ad produces (see docstring)"
    )
    table.emit()
    payload = {
        "smoke": SMOKE,
        "batch": BATCH,
        "repeat": REPEAT,
        **kernel_backend_info(),
        "rows": rows,
    }
    _write_json(payload)

    hgpa_row, gpa_row = rows
    if SMOKE:
        # CI: exercise the full pipeline, assert only the deterministic
        # shape (peak allocation and support) — no wall-clock races on
        # shared runners.
        assert hgpa_row["peak_ratio"] >= 2.0
        assert gpa_row["peak_ratio"] >= 2.0
        assert hgpa_row["nnz_ratio"] < 0.5
    else:
        # The ROADMAP close-out: batched-sparse HGPA_ad beats its
        # per-query path, with ≥5× smaller peak intermediates at 256.
        assert hgpa_row["sparse_batch_ms"] < hgpa_row["per_query_ms"], (
            f"sparse {hgpa_row['sparse_batch_ms']:.3f} ms/query not below "
            f"per-query {hgpa_row['per_query_ms']:.3f}"
        )
        assert hgpa_row["peak_ratio"] >= 5.0, (
            f"peak reduction {hgpa_row['peak_ratio']:.1f}x below 5x"
        )
        assert gpa_row["sparse_batch_ms"] < gpa_row["dense_batch_ms"]
        assert gpa_row["peak_ratio"] >= 2.0


def test_topk_costs_less_than_its_rows():
    """ROADMAP item 8's loser row: the k-cut of a 256-row GPA block must
    cost less than the engine's ``query_many`` producing those rows.

    A test of its own, so the GPA gate above (item 19) cannot stop it.
    Both sides run in alternating rounds, best of each.
    """
    gpa_ds, gpa_prune = GPA_CONFIG
    index = gpa_index(gpa_ds, GPA_PARTS, prune=gpa_prune)
    queries = zipf_stream(index.graph.num_nodes, BATCH, seed=11)
    rows, _ = index.query_many(queries, collect_stats=False)
    ids, scores = topk_rows(rows, TOPK_K)
    ref_ids, ref_scores = topk_rows_reference(rows, TOPK_K)
    assert np.array_equal(ids, ref_ids) and np.array_equal(scores, ref_scores)
    rows_s, topk_s = _alternating(
        lambda: index.query_many(queries, collect_stats=False),
        lambda: topk_rows(rows, TOPK_K),
    )
    row = {
        "engine": f"GPA ({gpa_ds}, prune={gpa_prune:g})",
        "n": int(index.graph.num_nodes),
        "batch": int(queries.size),
        "k": TOPK_K,
        "rows_ms": rows_s * 1e3,
        "topk_ms": topk_s * 1e3,
        "environment": ENVIRONMENT,
    }
    table = ExperimentTable(
        "Sparse Queries Topk",
        "top-k of a GPA block against the rows it cuts: ms per block",
        ["engine", "rows", "k", "query_many", "topk_rows", "topk / rows"],
    )
    table.add(
        row["engine"],
        row["batch"],
        TOPK_K,
        round(row["rows_ms"], 2),
        round(row["topk_ms"], 2),
        round(topk_s / rows_s, 2),
    )
    table.note(
        f"best of {REPEAT} alternating rounds, collect_stats=False; "
        f"environment: {'smoke' if SMOKE else 'full'} scale, "
        f"nproc={ENVIRONMENT['cpu_count']}, Python {ENVIRONMENT['python']}, "
        f"numpy {ENVIRONMENT['numpy']}, scipy {ENVIRONMENT['scipy']}"
    )
    table.emit()
    _write_json({"topk": row})
    if not SMOKE:
        assert topk_s < rows_s, (
            f"top-k {topk_s * 1e3:.2f} ms not below its rows {rows_s * 1e3:.2f} ms"
        )
