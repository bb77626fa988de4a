"""Batch body vs loop of ``row``: where each family's ``ROW_LOOP_BELOW`` sits.

Not a paper figure — this is the crossover probe behind the one constant
per index family that decides how a batch is evaluated
(``HubShare.ROW_LOOP_BELOW``): a non-empty batch of fewer rows runs as a
loop of the single-row body ``share.row``, a larger one runs the family's
batch body (``share.dense`` / ``share.sparse``).

For GPA (``web``, 8 parts) and HGPA (``web``, default depth), both pruned
at ``1e-3``, and in both result forms, it times at 2, 4, 8, 16, 32, 64 and
256 rows:

* ``body`` — ``share.dense`` / ``share.sparse`` called directly (the
  sparse one followed by ``finalize_csr``, as ``evaluate`` runs it),
* ``loop`` — the row loop of ``share.evaluate``, forced at every size by a
  copy of the share whose ``ROW_LOOP_BELOW`` no batch reaches.

HGPA has no dense body — its ``share.dense`` is the loop, which beat the
removed one at every size and both scales — so its dense row reports the
loop alone (``—`` for the body).  Each cell is the median µs per row over
fresh uniform random batches (the bodies count no work); every batch is run
once untimed first (lazy level stacking) and checked bitwise, loop against
body, CSR arrays included.

Expected shape: HGPA's loop beats the sparse body up to 64 rows at
``REPRO_SCALE=1`` (the body closes in by 256), while at 10× the body wins
from about 32 rows — 64 sits between the two sizes.  GPA's dense body wins
from a few rows up to 64 (at 256 the loop ties it), its sparse body from
about 64.  The full-scale run
asserts the premise of HGPA's constant — its 16-row sparse loop beats the
sparse body — from its own timing: the two run in alternating rounds and
the best of each is compared (the sparse row's ``premise`` in the JSON
and a table note), since at 10× the medians of separate samples sit
inside the noise.  Timed that way the premise holds at 1× and fails at
10×, where the body wins at 16 rows (ROADMAP item 18); a failing run has
already written its tables.  Smoke mode (``REPRO_SMOKE=1``) asserts only
the bitwise equality.

Each run merges into the committed JSON and table by ``(index, form)``:
``-k hgpa`` replaces the HGPA rows and keeps the GPA rows as recorded.

``REPRO_SCALE=10 ... -k hgpa`` measures the 40 000-node point (about four
minutes to build); a non-unit scale writes ``results/batch_rows_x<scale>``.
"""

import copy
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import pytest
import scipy

from repro import datasets
from repro.bench import ExperimentTable, kernel_backend_info, result_path
from repro.core import build_gpa_index, build_hgpa_index
from repro.core.flat_index import HubShare
from repro.core.sparse_ops import finalize_csr

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
SCALE = datasets.scale_factor()
SIZES = (2, 4, 8, 16, 32, 64, 256)
BATCHES = 2 if SMOKE else 7
PREMISE_ROUNDS = 7
PRUNE = 1e-3
PARTS = 8
STEM = "batch_rows" if SCALE == 1 else f"batch_rows_x{SCALE:g}"
ENVIRONMENT = {
    "smoke": SMOKE,
    "repro_scale": SCALE,
    "cpu_count": os.cpu_count(),
    "python": platform.python_version(),
    "numpy": np.__version__,
    "scipy": scipy.__version__,
    **kernel_backend_info(),
}
BUILDERS = {
    "gpa": lambda g: build_gpa_index(g, PARTS, prune=PRUNE),
    "hgpa": lambda g: build_hgpa_index(g, prune=PRUNE),
}
ROWS: list[dict] = []  # every family measured by this pytest run


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.flags.c_contiguous and np.array_equal(a, b)
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("indptr", "indices", "data")
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paths(share, n: int, sparse: bool):
    """``(body, loop)`` of one result form; ``body`` is None when the
    family has no such body (HGPA's dense form is the loop)."""
    loop_share = copy.copy(share)
    loop_share.ROW_LOOP_BELOW = sys.maxsize

    def body(nodes):
        if sparse:
            return finalize_csr(share.sparse(nodes), (nodes.size, n))
        return share.dense(nodes)

    def loop(nodes):
        return loop_share.evaluate(nodes, sparse=sparse)

    has_body = sparse or type(share).dense is not HubShare.dense
    return (body if has_body else None), loop


def _premise(share, n: int, rng, size: int = 16) -> dict:
    """HGPA's sparse loop against its sparse body at ``size`` rows, timed
    in alternating rounds (a fresh batch per round, one call of each) and
    kept as the best of each, so a slow moment hits both sides alike."""
    body, loop = _paths(share, n, True)
    best_body = best_loop = np.inf
    for _ in range(PREMISE_ROUNDS):
        nodes = rng.integers(0, n, size)
        assert _same(loop(nodes), body(nodes))  # untimed: lazy level stacking
        best_body = min(best_body, _timed(lambda: body(nodes)) / size * 1e6)
        best_loop = min(best_loop, _timed(lambda: loop(nodes)) / size * 1e6)
    return {"rows": size, "body_us_per_row": best_body, "loop_us_per_row": best_loop}


def _measure(share, n: int, sparse: bool, rng) -> list[dict]:
    body, loop = _paths(share, n, sparse)
    has_body = body is not None
    cells = []
    for size in SIZES:
        body_us, loop_us = [], []
        for _ in range(BATCHES):
            nodes = rng.integers(0, n, size)
            if has_body:
                assert _same(loop(nodes), body(nodes)), (size, sparse)
                body_us.append(_timed(lambda: body(nodes)) / size * 1e6)
            else:
                loop(nodes)
            loop_us.append(_timed(lambda: loop(nodes)) / size * 1e6)
        cells.append(
            {
                "rows": size,
                "body_us_per_row": statistics.median(body_us) if has_body else None,
                "loop_us_per_row": statistics.median(loop_us),
            }
        )
    return cells


def _us(value: float | None) -> str:
    return "—" if value is None else f"{value:.0f}"


def _merged_rows() -> list[dict]:
    """The committed rows of this file's JSON, each ``(index, form)``
    measured by this run replaced (or appended) — so ``-k hgpa`` keeps
    the GPA rows of the last full run, and vice versa."""
    out = result_path(f"BENCH_{STEM}", ".json")
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"] if out.exists() else []
    fresh = {(r["index"], r["form"]): r for r in ROWS}
    merged = [fresh.pop((r["index"], r["form"]), r) for r in rows]
    return merged + list(fresh.values())


def _emit() -> None:
    rows = _merged_rows()
    table = ExperimentTable(
        STEM.replace("_", " ").title(),
        "µs per row, batch body / loop of row (median of "
        f"{BATCHES} random batches)",
        ["index", "form", "switch at", *(f"{s} rows" for s in SIZES)],
    )
    for row in rows:
        table.add(
            row["index"],
            row["form"],
            row["row_loop_below"],
            *(
                f"{_us(c['body_us_per_row'])} / {_us(c['loop_us_per_row'])}"
                for c in row["cells"]
            ),
        )
    table.note(
        "body = share.dense / share.sparse (+ finalize_csr); loop = "
        "share.evaluate's row loop forced at every size; "
        "— = no such body (HGPA's dense form is the loop)"
    )
    table.note(
        "switch at = the family's ROW_LOOP_BELOW: batches with fewer rows "
        "run the loop"
    )
    for row in rows:
        if "premise" in row:
            p = row["premise"]
            table.note(
                f"premise, {row['index']} {row['form']}, {p['rows']} rows, best of "
                f"{PREMISE_ROUNDS} alternating rounds: body {p['body_us_per_row']:.0f}"
                f" / loop {p['loop_us_per_row']:.0f}"
            )
    table.note(
        f"environment: {'smoke' if SMOKE else 'full'} scale, "
        f"REPRO_SCALE={SCALE:g}, nproc={ENVIRONMENT['cpu_count']}, "
        f"Python {ENVIRONMENT['python']}, numpy {ENVIRONMENT['numpy']}, "
        f"scipy {ENVIRONMENT['scipy']}"
    )
    table.emit()
    out = result_path(f"BENCH_{STEM}", ".json")
    payload = {**ENVIRONMENT, "sizes": list(SIZES), "batches": BATCHES, "rows": rows}
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


@pytest.mark.parametrize("family", ["gpa", "hgpa"])
def test_batch_rows(family):
    graph = datasets.load("web")
    t0 = time.perf_counter()
    index = BUILDERS[family](graph)
    build_s = time.perf_counter() - t0
    share = index._share()
    label = f"{family.upper()} web ({graph.num_nodes} nodes)"
    rng = np.random.default_rng(7)
    for form in ("sparse", "dense"):
        ROWS.append(
            {
                "index": label,
                "form": form,
                "row_loop_below": share.ROW_LOOP_BELOW,
                "build_s": build_s,
                "cells": _measure(share, graph.num_nodes, form == "sparse", rng),
            }
        )
    premise = None
    if family == "hgpa" and not SMOKE:
        premise = _premise(share, graph.num_nodes, rng)
        ROWS[-2]["premise"] = premise  # the sparse row
    _emit()
    if premise is not None:
        assert premise["loop_us_per_row"] < premise["body_us_per_row"], premise
