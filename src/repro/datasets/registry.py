"""Named dataset stand-ins for the paper's five evaluation graphs.

The originals (SNAP's Email/Web/Youtube, the Common-Crawl PLD sample and a
Meetup crawl) are not redistributable and unavailable offline, so each is
replaced by a seeded synthetic graph matching the *properties the
algorithms exploit*: hierarchical community structure (small vertex
separators), power-law degree skew, and the original's edge/node ratio.
Node counts are scaled down (configurable via the ``REPRO_SCALE``
environment variable) so the whole benchmark suite runs on one machine;
every run regenerates identical graphs.

Real SNAP edge lists drop in through :func:`repro.graph.io.read_edge_list`
if available — the registry is only the offline fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    hierarchical_community_digraph,
    meetup_like_digraph,
)

__all__ = ["DatasetSpec", "dataset_names", "spec", "load", "query_nodes", "scale_factor"]


def scale_factor() -> float:
    """Global size multiplier from the ``REPRO_SCALE`` env var (default 1)."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ReproError(f"REPRO_SCALE must be a float, got {raw!r}") from exc
    if value <= 0:
        raise ReproError("REPRO_SCALE must be positive")
    return value


@dataclass(frozen=True)
class DatasetSpec:
    """One stand-in dataset and the paper facts it mirrors."""

    name: str
    paper_name: str
    paper_nodes: int
    paper_edges: int
    paper_levels: int  # HGPA hierarchy depth the paper built
    base_nodes: int
    builder: Callable[[int], DiGraph]
    description: str

    def build(self) -> DiGraph:
        n = max(64, int(round(self.base_nodes * scale_factor())))
        return self.builder(n).with_dangling_policy("self_loop")


def _email(n: int) -> DiGraph:
    # email-EuAll: very sparse (m/n ≈ 1.6), huge degree-1 periphery.
    return hierarchical_community_digraph(
        n, avg_out_degree=1.8, cross_fraction=0.08, degree_exponent=1.7,
        centers_fraction=0.04, seed=101, name="email-like",
    )


def _web(n: int) -> DiGraph:
    # web-Google: m/n ≈ 5.8, strong host/directory hierarchy.
    return hierarchical_community_digraph(
        n, avg_out_degree=5.8, cross_fraction=0.10, degree_exponent=1.5,
        centers_fraction=0.05, seed=202, name="web-like",
    )


def _youtube(n: int) -> DiGraph:
    # com-Youtube: m/n ≈ 2.6, social communities.
    return hierarchical_community_digraph(
        n, avg_out_degree=2.6, cross_fraction=0.12, degree_exponent=1.6,
        centers_fraction=0.05, seed=303, name="youtube-like",
    )


def _pld(n: int) -> DiGraph:
    # PLD sample: m/n ≈ 6.1 hyperlink graph.
    return hierarchical_community_digraph(
        n, avg_out_degree=6.1, cross_fraction=0.10, degree_exponent=1.5,
        centers_fraction=0.05, seed=404, name="pld-like",
    )


def _pld_full(n: int) -> DiGraph:
    # PLD_full (Appendix B): same family, larger instance, ε = 1e-2 runs.
    return hierarchical_community_digraph(
        n, avg_out_degree=6.1, cross_fraction=0.10, degree_exponent=1.5,
        centers_fraction=0.05, seed=505, name="pld-full-like",
    )


def _meetup(index: int) -> Callable[[int], DiGraph]:
    def build(n: int) -> DiGraph:
        # Meetup M1–M5 (Table 6): dense event co-attendance, m/n ≈ 80–110;
        # scaled here to m/n ≈ 30–40 with the same event mechanism.
        events = int(n * 1.2)
        return meetup_like_digraph(
            n, events, mean_event_size=6.0, seed=600 + index,
            name=f"meetup-M{index}-like",
        )

    return build


_SPECS: dict[str, DatasetSpec] = {}


def _register(spec_: DatasetSpec) -> None:
    _SPECS[spec_.name] = spec_


_register(DatasetSpec(
    "email", "Email (email-EuAll)", 265_214, 420_045, 5,
    base_nodes=1500, builder=_email,
    description="European research institution email graph",
))
_register(DatasetSpec(
    "web", "Web (web-Google)", 875_713, 5_105_039, 12,
    base_nodes=4000, builder=_web,
    description="Google programming contest web graph",
))
_register(DatasetSpec(
    "youtube", "Youtube (com-Youtube)", 1_134_890, 2_987_624, 15,
    base_nodes=4500, builder=_youtube,
    description="Youtube social graph",
))
_register(DatasetSpec(
    "pld", "PLD (Common Crawl sample)", 3_000_000, 18_185_350, 15,
    base_nodes=6000, builder=_pld,
    description="pay-level-domain hyperlink sample",
))
_register(DatasetSpec(
    "pld_full", "PLD_full (Appendix B)", 101_000_000, 1_940_000_000, 15,
    base_nodes=15_000, builder=_pld_full,
    description="full hyperlink graph (Amazon EC2 experiment)",
))
for i, (paper_n, paper_m) in enumerate(
    [
        (997_304, 82_966_338),
        (1_197_009, 107_393_088),
        (1_396_054, 129_774_158),
        (1_596_455, 163_320_390),
        (1_796_226, 194_083_414),
    ],
    start=1,
):
    _register(DatasetSpec(
        f"meetup_m{i}", f"Meetup M{i}", paper_n, paper_m, 0,
        base_nodes=600 + 150 * (i - 1), builder=_meetup(i),
        description="event co-attendance social graph (scalability study)",
    ))


def dataset_names() -> list[str]:
    """All registered stand-in names."""
    return sorted(_SPECS)


def spec(name: str) -> DatasetSpec:
    """Spec for one dataset (raises for unknown names)."""
    try:
        return _SPECS[name]
    except KeyError:
        raise ReproError(
            f"unknown dataset {name!r}; available: {dataset_names()}"
        ) from None


@lru_cache(maxsize=None)
def _load_cached(name: str, scale_key: float) -> DiGraph:
    return spec(name).build()


def load(name: str) -> DiGraph:
    """Build (or fetch from cache) the named stand-in graph."""
    return _load_cached(name, scale_factor())


def query_nodes(graph: DiGraph, count: int, *, seed: int = 9) -> np.ndarray:
    """The evaluation protocol's random query nodes (Section 6.1)."""
    rng = np.random.default_rng(seed)
    count = min(count, graph.num_nodes)
    return rng.choice(graph.num_nodes, size=count, replace=False)
