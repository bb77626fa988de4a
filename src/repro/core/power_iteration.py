"""Power-iteration PPV baselines.

Two implementations:

* :func:`power_iteration_ppv` — vectorised fixed point
  ``x ← (1-α)·Wᵀ·x + α·u_P``; the reference every exactness experiment is
  measured against, and the workhorse inside the Pregel+/Blogel engine
  programs.
* :func:`power_iteration_reference` — the paper's Algorithm 2 (Appendix C)
  transcribed faithfully: a queue of valued nodes, per-node teleport and
  scatter, dangling nodes optionally redirected to the query node.  Pure
  Python, kept for study and as an oracle in tests.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ConvergenceError, QueryError
from repro.graph.digraph import DiGraph

__all__ = ["power_iteration_ppv", "power_iteration_reference", "preference_vector"]


def preference_vector(graph: DiGraph, preference: int | Mapping[int, float]) -> np.ndarray:
    """Normalise a preference node (or weighted node set) to a distribution."""
    u = np.zeros(graph.num_nodes)
    if isinstance(preference, (int, np.integer)):
        if not 0 <= int(preference) < graph.num_nodes:
            raise QueryError(f"query node {preference} out of range")
        u[int(preference)] = 1.0
        return u
    if not preference:
        raise QueryError("preference set must not be empty")
    for node, weight in preference.items():
        if not 0 <= int(node) < graph.num_nodes:
            raise QueryError(f"preference node {node} out of range")
        if weight < 0:
            raise QueryError("preference weights must be non-negative")
        u[int(node)] = float(weight)
    total = u.sum()
    if total <= 0:
        raise QueryError("preference weights must not all be zero")
    return u / total


def power_iteration_ppv(
    graph: DiGraph,
    preference: int | Mapping[int, float],
    *,
    alpha: float = 0.15,
    tol: float = 1e-4,
    max_iter: int = 100_000,
) -> np.ndarray:
    """PPV by power iteration, converged when ``max |x_new − x| ≤ tol``.

    Dangling mass is absorbed (sub-stochastic ``W``), matching the
    convention of the decomposition algorithms; normalise graphs with
    ``with_dangling_policy("self_loop")`` for stochastic semantics.
    """
    u = preference_vector(graph, preference)
    wt = graph.transition_T()
    x = u.copy()
    for _ in range(max_iter):
        nxt = (1.0 - alpha) * (wt @ x) + alpha * u
        delta = np.abs(nxt - x).max()
        x = nxt
        if delta <= tol:
            return x
    raise ConvergenceError(f"power iteration: no convergence in {max_iter} iterations")


def power_iteration_reference(
    graph: DiGraph,
    query: int,
    *,
    alpha: float = 0.15,
    tol: float = 1e-4,
    max_iter: int = 100_000,
    dangling: str = "to_query",
) -> np.ndarray:
    """Algorithm 2 of the paper, queue-based, one node at a time.

    ``dangling="to_query"`` reproduces lines 14–16 (a dangling node's
    forward mass returns to the query node); ``"absorb"`` drops it, matching
    :func:`power_iteration_ppv` on graphs that still have dangling nodes.
    """
    if dangling not in ("to_query", "absorb"):
        raise QueryError(f"unknown dangling mode {dangling!r}")
    n = graph.num_nodes
    if not 0 <= query < n:
        raise QueryError(f"query node {query} out of range")
    ppv = np.zeros(n)
    ppv[query] = 1.0
    in_queue = np.zeros(n, dtype=bool)
    valued = [query]
    in_queue[query] = True
    for _ in range(max_iter):
        tmp = np.zeros(n)
        new_nodes: list[int] = []
        for u in valued:
            mass = ppv[u]
            if mass == 0.0:
                continue
            tmp[query] += mass * alpha  # teleport back to the origin
            succ = graph.successors(u)
            if succ.size == 0:
                if dangling == "to_query":
                    tmp[query] += mass * (1.0 - alpha)
                continue
            share = mass * (1.0 - alpha) / succ.size
            for v in succ.tolist():
                tmp[v] += share
                if not in_queue[v]:
                    in_queue[v] = True
                    new_nodes.append(v)
        valued.extend(new_nodes)
        converged = True
        for u in valued:
            if abs(ppv[u] - tmp[u]) > tol:
                converged = False
                break
        ppv = tmp
        if converged:
            return ppv
    raise ConvergenceError(f"Algorithm 2: no convergence in {max_iter} iterations")
