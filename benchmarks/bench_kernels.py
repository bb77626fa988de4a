"""Fast-kernel dispatch: per-family baseline vs the active backend.

Not a paper figure — this measures the ``repro.kernels`` seam added for
the hot loops of the query stack: per-row top-k (dense and sparse), the
canonical CSC level product, the canonical sparse add, and the two
convergent solvers (full power iteration and the per-column-freezing
batched selective expansion).  Each family is timed twice through its
*public wrapper* — once pinned to the scipy baseline
(``kernels="scipy"``) and once on whatever backend the capability probe
picked — and the two results are asserted exactly equal on the way
(array-wise bitwise equality: the stack-wide exactness bar).

One end-to-end row repeats the comparison at the level users feel it:
a pruned GPA index serving a ``query_many_sparse`` + ``query_many_topk``
batch with the process default (``REPRO_KERNELS`` + a refreshed probe —
the one switch above the leaf functions) flipped between the two
backends.

With numba installed (the CI optional-deps job, ``REPRO_KERNELS=numba``)
the recorded speedup must reach ≥ 2× on at least one hot kernel; without
it the active backend *is* scipy, the ratios hover around 1×, and the
run degrades to a dispatch-overhead + exactness check.  Either way the
payload lands in ``results/BENCH_kernels.json`` with the active backend
name and the full capability report, so recorded numbers are always
attributable to what actually dispatched.

Smoke mode (``REPRO_SMOKE=1``) shrinks the inputs so CI exercises every
family per push without timing flakiness.
"""

import json
import os
import time

import numpy as np
import scipy.sparse as sp

from repro import datasets
from repro.bench import (
    ExperimentTable,
    gpa_index,
    kernel_backend_info,
    result_path,
    zipf_stream,
)
from repro.core.decomposition import as_view, partial_vectors
from repro.core.flat_index import topk_rows
from repro.core.power_iteration import power_iteration_ppv
from repro.core.sparse_ops import sparse_add, spgemm_scaled, topk_rows_sparse
from repro.kernels import active_kernels, probe
from repro.kernels.capability import ENV_VAR

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
DATASET = "email" if SMOKE else "web"
N = 20_000 if SMOKE else 120_000  # synthetic micro-kernel dimension
BATCH = 64 if SMOKE else 256
K = 50
REPEAT = 2 if SMOKE else 5
SEED = 7
# Kernels where a JIT win is expected and asserted (the pure-python
# inner loops the seam replaced); the solvers ride along unasserted —
# their scipy baselines are already vectorised matvecs.
HOT = ("topk_dense", "topk_sparse")


def _best_wall(fn, repeat=REPEAT) -> float:
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _canonical_random(rng, rows, cols, density, fmt) -> sp.spmatrix:
    mat = sp.random(rows, cols, density=density, format=fmt, rng=rng)
    mat.sort_indices()
    mat.sum_duplicates()
    return mat


def _assert_same_sparse(a, b, label):
    assert a.shape == b.shape, label
    assert np.array_equal(a.indptr, b.indptr), label
    assert np.array_equal(a.indices, b.indices), label
    assert np.array_equal(a.data, b.data), label


def _measure_family(label, run, check) -> dict:
    """Time ``run(backend)`` under scipy and the active backend; the two
    results must be exactly equal (``check`` raises otherwise)."""
    active = active_kernels()
    base_out = run("scipy")
    fast_out = run(active)
    check(base_out, fast_out)
    base_wall = _best_wall(lambda: run("scipy"))
    fast_wall = _best_wall(lambda: run(active))
    return {
        "kernel": label,
        "scipy_ms": base_wall * 1e3,
        "active_ms": fast_wall * 1e3,
        "speedup": base_wall / max(1e-12, fast_wall),
    }


def _micro_rows() -> list[dict]:
    rng = np.random.default_rng(SEED)
    rows = []

    dense = rng.random((BATCH, N))
    rows.append(
        _measure_family(
            "topk_dense",
            lambda kern: topk_rows(dense, K, kernels=kern),
            lambda a, b: (
                np.testing.assert_array_equal(a[0], b[0]),
                np.testing.assert_array_equal(a[1], b[1]),
            ),
        )
    )

    sparse_rows = _canonical_random(rng, BATCH, N, 300 / N, "csr")
    rows.append(
        _measure_family(
            "topk_sparse",
            lambda kern: topk_rows_sparse(sparse_rows, K, kernels=kern),
            lambda a, b: (
                np.testing.assert_array_equal(a[0], b[0]),
                np.testing.assert_array_equal(a[1], b[1]),
            ),
        )
    )

    w = _canonical_random(rng, N, N, 5 / N, "csr")
    part = _canonical_random(rng, BATCH, N, 200 / N, "csc")
    rows.append(
        _measure_family(
            "spgemm_csc",
            lambda kern: spgemm_scaled(part, w, 1.0 / 0.15, kernels=kern),
            lambda a, b: _assert_same_sparse(a, b, "spgemm_csc"),
        )
    )

    add_a = _canonical_random(rng, BATCH, N, 300 / N, "csr")
    add_b = _canonical_random(rng, BATCH, N, 300 / N, "csr")
    rows.append(
        _measure_family(
            "cs_add",
            lambda kern: sparse_add(add_a, add_b, kernels=kern),
            lambda a, b: _assert_same_sparse(a, b, "cs_add"),
        )
    )

    graph = datasets.load(DATASET)
    source = int(datasets.query_nodes(graph, 1, seed=SEED)[0])
    rows.append(
        _measure_family(
            "power_solve",
            lambda kern: power_iteration_ppv(graph, source, kernels=kern),
            lambda a, b: np.testing.assert_array_equal(a, b),
        )
    )

    view = as_view(graph)
    picks = datasets.query_nodes(graph, 40, seed=SEED + 1)
    hubs = np.sort(picks[:32])
    sources = np.sort(picks[32:])
    rows.append(
        _measure_family(
            "percol_solve",
            lambda kern: partial_vectors(
                view, hubs, sources, per_column=True, kernels=kern
            ),
            lambda a, b: (
                np.testing.assert_array_equal(a[0], b[0]),
                np.testing.assert_array_equal(a[1], b[1]),
            ),
        )
    )
    return rows


def _end_to_end_row() -> dict:
    """The whole-stack flip: one pruned GPA index, the process default
    switched the way ``tests/test_kernels.py`` switches it."""
    index = gpa_index(DATASET, 4, prune=1e-3)
    queries = zipf_stream(index.graph.num_nodes, BATCH, seed=11)
    saved = os.environ.get(ENV_VAR)
    active = active_kernels().backend

    def switch(backend):
        if backend is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = backend
        probe(refresh=True)

    def run():
        mat, _ = index.query_many_sparse(queries, collect_stats=False)
        ids, scores, _ = index.query_many_topk(queries, K)
        return mat, ids, scores

    try:
        switch("scipy")
        base = run()
        base_wall = _best_wall(run)
        switch(active)
        fast = run()
        fast_wall = _best_wall(run)
        _assert_same_sparse(base[0], fast[0], "end_to_end sparse")
        np.testing.assert_array_equal(base[1], fast[1])
        np.testing.assert_array_equal(base[2], fast[2])
    finally:
        switch(saved)
    return {
        "kernel": "end_to_end (sparse batch + topk)",
        "scipy_ms": base_wall * 1e3,
        "active_ms": fast_wall * 1e3,
        "speedup": base_wall / max(1e-12, fast_wall),
    }


def test_kernel_dispatch_speedups():
    info = kernel_backend_info()
    backend = info["kernel_backend"]
    rows = _micro_rows()
    rows.append(_end_to_end_row())

    table = ExperimentTable(
        "Kernels",
        f"Fast-kernel dispatch (active backend: {backend}): ms per call",
        ["kernel", "scipy ms", f"{backend} ms", "speedup"],
    )
    for row in rows:
        table.add(
            row["kernel"],
            round(row["scipy_ms"], 3),
            round(row["active_ms"], 3),
            round(row["speedup"], 2),
        )
    table.note(
        "every pair of results asserted exactly equal before timing — "
        "the speedup is never bought with drift"
    )
    if backend == "scipy":
        table.note(
            "active backend is the scipy baseline (numba unavailable or "
            "REPRO_KERNELS=scipy): ratios ~1x, exactness/dispatch check only"
        )
    table.emit()

    payload = {
        "smoke": SMOKE,
        "dataset": DATASET,
        "n": N,
        "batch": BATCH,
        "k": K,
        "repeat": REPEAT,
        **info,
        "rows": rows,
    }
    out = result_path("BENCH_kernels", ".json")
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    if backend == "numba":
        hot = [r for r in rows if r["kernel"] in HOT]
        best = max(r["speedup"] for r in hot)
        assert best >= 2.0, (
            f"numba active but best hot-kernel speedup {best:.2f}x < 2x: "
            + ", ".join(f"{r['kernel']}={r['speedup']:.2f}x" for r in hot)
        )
