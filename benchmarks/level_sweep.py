"""The level sweep Figures 14–16 share.

Each dataset is built at fixed depths ``L<k>`` (``max_levels=k``), at the
default depth (``max_levels=None``: ``max(1, ⌈log₂ n⌉ − 4)`` levels) and
unbounded (``max_levels=n``, a cap that never binds, so every leaf ends
edge-free).  Indexes come from the memoised ``repro.bench.hgpa_index``, so
the three figures share their builds within one pytest session.
"""

from __future__ import annotations

from collections.abc import Callable

from repro import datasets
from repro.bench import ExperimentTable, hgpa_index
from repro.core import HGPAIndex

DATASETS = ("email", "web", "youtube", "pld")
LEVELS = (2, 4, 6, 7, 8, 9, 10)


def level_table(
    experiment: str,
    title: str,
    metric: Callable[[str, HGPAIndex], float],
    *,
    rounds: int = 1,
) -> tuple[ExperimentTable, dict[str, list[float]]]:
    """One row per dataset: ``metric`` at every ``LEVELS`` entry, the
    default and the unbounded tree (in that order in the returned lists).

    A timed metric takes ``rounds > 1``: every round measures each index
    once, in turn, and a cell keeps its smallest value, so a burst of noise
    on a shared machine does not land on one column only.
    """
    table = ExperimentTable(
        experiment,
        title,
        ["dataset", *(f"L{lv}" for lv in LEVELS), "default", "unbounded", "depths"],
    )
    values: dict[str, list[float]] = {}
    for name in DATASETS:
        n = datasets.load(name).num_nodes
        indexes = [hgpa_index(name, max_levels=lv) for lv in LEVELS]
        indexes += [hgpa_index(name), hgpa_index(name, max_levels=n)]
        values[name] = [
            min(cell)
            for cell in zip(*([metric(name, ix) for ix in indexes] for _ in range(rounds)))
        ]
        depths = f"{indexes[-2].hierarchy.depth} / {indexes[-1].hierarchy.depth}"
        table.add(name, *values[name], depths)
    table.note(
        "L<k>: max_levels=k; default: max(1, ⌈log₂ n⌉ − 4) levels; "
        "unbounded: max_levels=n; depths: default / unbounded"
    )
    return table, values
