"""Shared machinery for the benchmark suite.

Every benchmark file regenerates one table or figure of the paper: it
sweeps the paper's parameter, prints the measured rows next to the paper's
qualitative expectation, writes the table under ``results/``, and times the
representative operation with pytest-benchmark.

Index builds are expensive relative to queries, so they are memoised here
and shared by every benchmark in the pytest session.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from collections.abc import Callable

import numpy as np

from repro import datasets
from repro.core.gpa import GPAIndex, build_gpa_index
from repro.core.hgpa import HGPAIndex, build_hgpa_index
from repro.core.jw import JWIndex, build_jw_index
from repro.approx.fastppv import FastPPVIndex, build_fastppv_index

__all__ = [
    "ExperimentTable",
    "results_dir",
    "result_path",
    "hgpa_index",
    "gpa_index",
    "jw_index",
    "fastppv_index",
    "bench_queries",
    "kernel_backend_info",
    "time_queries",
    "zipf_stream",
]


def results_dir() -> Path:
    """Directory where every benchmark writes its table."""
    path = Path(os.environ.get("REPRO_RESULTS", Path(__file__).resolve().parents[3] / "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def result_path(name: str, suffix: str) -> Path:
    """Where a benchmark persists ``name`` — table or JSON alike.

    Under ``REPRO_SMOKE=1`` the stem gains ``_smoke``, so a smoke run
    (CI, or the CI commands run locally) never overwrites the committed
    full-scale result of the same name.
    """
    smoke = "_smoke" if os.environ.get("REPRO_SMOKE") == "1" else ""
    return results_dir() / f"{name}{smoke}{suffix}"


@dataclass
class ExperimentTable:
    """A paper table/figure regenerated as text rows."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values: object) -> None:
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in self.rows)) if self.rows else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def emit(self) -> None:
        """Print the table and persist it under results/."""
        text = self.render()
        print("\n" + text)
        safe = self.experiment.lower().replace(" ", "_").replace("/", "-")
        result_path(safe, ".txt").write_text(text + "\n", encoding="utf-8")


def kernel_backend_info() -> dict[str, object]:
    """The ``kernel_backend`` field of bench payloads.

    Every leaf operation runs its numpy/scipy body, so this is always
    ``"scipy"``; the key stays so payloads recorded before and after
    compare field for field.
    """
    return {"kernel_backend": "scipy"}


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


# ----------------------------------------------------------------------
# Memoised index builders (shared across all benchmark files).
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def hgpa_index(
    dataset: str,
    *,
    max_levels: int | None = None,
    fanout: int = 2,
    tol: float = 1e-4,
    prune: float | None = None,
    seed: int = 0,
) -> HGPAIndex:
    return build_hgpa_index(
        datasets.load(dataset),
        max_levels=max_levels, fanout=fanout, tol=tol, prune=prune, seed=seed,
    )


@lru_cache(maxsize=None)
def gpa_index(
    dataset: str,
    parts: int,
    *,
    tol: float = 1e-4,
    prune: float | None = None,
    seed: int = 0,
) -> GPAIndex:
    return build_gpa_index(
        datasets.load(dataset), parts, tol=tol, prune=prune, seed=seed
    )


@lru_cache(maxsize=None)
def jw_index(dataset: str, num_hubs: int, *, tol: float = 1e-4) -> JWIndex:
    return build_jw_index(datasets.load(dataset), num_hubs=num_hubs, tol=tol)


@lru_cache(maxsize=None)
def fastppv_index(dataset: str, num_hubs: int, *, tol: float = 1e-4) -> FastPPVIndex:
    return build_fastppv_index(datasets.load(dataset), num_hubs, tol=tol)


# ----------------------------------------------------------------------
def bench_queries(dataset: str, count: int = 20, *, seed: int = 9) -> np.ndarray:
    """The evaluation protocol's random query nodes for a dataset."""
    return datasets.query_nodes(datasets.load(dataset), count, seed=seed)


def zipf_stream(
    n: int, size: int, *, exponent: float = 1.2, seed: int = 11
) -> np.ndarray:
    """A query stream whose node popularity follows a Zipf law.

    Rank-``r`` popularity ∝ ``r^-exponent``; ranks are mapped to node ids
    by a seeded permutation so the hot set is not just the lowest ids.
    The traffic shape of the serving benchmarks — a few hot users
    dominating millions of requests.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks**-exponent
    p /= p.sum()
    perm = rng.permutation(n)
    return perm[rng.choice(n, size=size, p=p)]


def time_queries(
    query_fn: Callable,
    queries: np.ndarray,
    *,
    repeat: int = 1,
    batched: bool = False,
    warmup: bool = True,
) -> float:
    """Median wall seconds per query of ``query_fn`` over the query set.

    In the default per-query mode ``query_fn`` is called once per node and
    the median of the individual timings is returned.  With
    ``batched=True`` the whole query array is handed to ``query_fn`` in a
    single call (e.g. an index's ``query_many``) and the wall time is
    divided by the number of queries, so the two modes are directly
    comparable.

    Unless ``warmup=False``, an untimed pass over the whole query set
    runs first in both modes so that one-time lazy work — the indexes
    build their stacked ``_ops`` / ``_level_ops`` matrices on first use,
    per hierarchy subgraph for HGPA — is not charged to the first timed
    repeat, which would skew the batched-vs-per-query comparison.
    """
    queries = np.asarray(queries)
    if queries.size == 0:
        return 0.0
    if batched:
        if warmup:
            query_fn(queries)
        per_query = []
        for _ in range(max(1, repeat)):
            t0 = time.perf_counter()
            query_fn(queries)
            per_query.append((time.perf_counter() - t0) / max(1, queries.size))
        return statistics.median(per_query)
    if warmup:
        for q in queries.tolist():
            query_fn(int(q))
    times = []
    for q in queries.tolist():
        t0 = time.perf_counter()
        for _ in range(repeat):
            query_fn(int(q))
        times.append((time.perf_counter() - t0) / repeat)
    return statistics.median(times)
