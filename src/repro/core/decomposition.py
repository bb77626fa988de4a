"""Jeh–Widom decomposition primitives (Sections 2, 5 and Appendix E).

Three computations, all expressed as sparse-matrix iterations so that many
sources/hubs are processed per pass:

* :func:`partial_vectors` — selective expansion (Eq. 9).  Walk mass at
  non-hub nodes deposits an ``α`` share into the result and forwards the
  rest; mass reaching a hub freezes.  The source node is always expanded at
  step 0, even when it is itself a hub, so ``p_h^H(h) = α`` exactly as the
  hubs theorem requires.
* :func:`skeleton_columns` — the paper's improved per-hub iteration
  (Eq. 8, Theorem 6): ``F ← (1-α)·W·F + α·x_h`` converges to the column
  ``s_·(h) = r_·(h)`` of local PPV values at hub ``h``.  Batched across
  hubs; space is ``O(|V|)`` per column, the paper's Section 5.2 point.
* :func:`skeleton_vectors_dp` — the *original* dynamic program (Eq. 10)
  that iterates full skeleton vectors for every node simultaneously.  Kept
  for the ablation benchmark comparing its memory footprint against Eq. 8.

Everything here works on :class:`~repro.graph.subgraph.VirtualSubgraph`
views in *local* coordinates; callers translate to global ids.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.digraph import DiGraph
from repro.graph.subgraph import VirtualSubgraph

__all__ = [
    "as_view",
    "partial_vectors",
    "skeleton_columns",
    "skeleton_single_hub",
    "skeleton_vectors_dp",
    "expected_iterations",
]


def as_view(graph: DiGraph | VirtualSubgraph) -> VirtualSubgraph:
    """Adapt a whole digraph to the :class:`VirtualSubgraph` interface."""
    if isinstance(graph, VirtualSubgraph):
        return graph
    return VirtualSubgraph(graph, np.arange(graph.num_nodes, dtype=np.int64))


def expected_iterations(alpha: float, tol: float) -> int:
    """Iterations for residual mass ``(1-α)^k`` to drop below ``tol``."""
    if tol >= 1.0:
        return 1
    return int(np.ceil(np.log(tol) / np.log(1.0 - alpha))) + 2


def partial_vectors(
    view: VirtualSubgraph,
    hub_local: np.ndarray,
    source_local: np.ndarray,
    *,
    alpha: float = 0.15,
    tol: float = 1e-4,
    max_iter: int = 100_000,
    per_column: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Partial vectors for many sources at once via selective expansion.

    Parameters
    ----------
    view:
        The (virtual) subgraph the walk is confined to.
    hub_local:
        Local indices of the blocking hub set ``H`` (may be empty, in which
        case the result is the full local PPV of every source).
    source_local:
        Local indices of the source nodes (columns of the result).
    per_column:
        Freeze each column individually once *its* expandable mass drops
        below ``tol`` (instead of iterating until the worst column
        converges).  Columns are independent, so the result is identical
        to solving each source on its own — which is what batched query
        paths need to reproduce per-query results exactly.

    Tours may *end* at a hub — only interior hub visits block a tour — so
    ``p_u^H(h)`` is the first-passage mass ``α·E(h)``; without it the hubs
    theorem cannot reconstruct PPV values at hub coordinates.

    Returns
    -------
    (D, E):
        ``D[v, j] = p_{source_j}^H(v)`` — the partial vectors (hub first-
        passage deposits included); and the final residual matrix ``E``
        whose hub rows hold the frozen pre-stop hub mass
        ``E[h, j] = p_{source_j}^H(h)/α`` (used by FastPPV's scheduled
        expansion).
    """
    n = view.num_nodes
    sources = np.asarray(source_local, dtype=np.int64)
    num_src = sources.size
    if n == 0 or num_src == 0:
        return np.zeros((n, num_src)), np.zeros((n, num_src))
    wt = view.transition_T()
    expandable = np.ones(n, dtype=bool)
    expandable[np.asarray(hub_local, dtype=np.int64)] = False
    d = np.zeros((n, num_src))
    e = np.zeros((n, num_src))
    frozen = np.nonzero(~expandable)[0]
    omalpha = 1.0 - alpha
    live = np.arange(num_src)  # output columns still iterating
    # Step 0: expand every source unconditionally (hub sources
    # included) — the zero-length tour deposits α at the source itself
    # and forwards (1-α) of its out-row, i.e. a column of Wᵀ.
    acc = np.zeros((n, num_src))
    acc[sources, live] = alpha
    res = wt[:, sources].toarray()
    res *= omalpha
    buf = np.empty_like(res)
    # Regular selective-expansion rounds on the still-live columns:
    # ``res`` is the residual E, ``buf`` its expandable (non-hub) part.
    for _ in range(max_iter):
        np.copyto(buf, res)
        buf[frozen] = 0.0
        done = buf.max(axis=0) <= tol
        if not per_column:
            done[:] = done.all()  # nobody retires before the worst column
        if done.any():
            # Retire: deposit (a) the frozen hub mass — tours stopping
            # at a hub belong to the partial vector — and (b) the
            # remaining sub-tolerance expandable mass, so the result
            # is a lower approximation within tol of the true limit
            # (Appendix E.1).
            e[:, live[done]] = res[:, done]
            d[:, live[done]] = acc[:, done] + alpha * res[:, done]
            keep = np.nonzero(~done)[0]
            if keep.size == 0:
                break
            live = live[keep]
            acc, res, buf = (np.take(a, keep, axis=1) for a in (acc, res, buf))
        nxt = wt @ buf
        nxt *= omalpha
        nxt[frozen] += res[frozen]
        buf *= alpha
        acc += buf
        res, buf = nxt, res
    else:
        raise ConvergenceError(
            f"partial_vectors: no convergence in {max_iter} iterations"
        )
    return d, e


def skeleton_columns(
    view: VirtualSubgraph,
    hub_local: np.ndarray,
    *,
    alpha: float = 0.15,
    tol: float = 1e-4,
    max_iter: int = 100_000,
    per_column: bool = False,
) -> np.ndarray:
    """Skeleton values ``s_u(h)`` for every node ``u`` and hub ``h`` (Eq. 8).

    Returns ``F`` with ``F[u, j] = r_u(h_j)`` w.r.t. ``view``: column ``j``
    is the full skeleton column of hub ``hub_local[j]``.  The iteration is
    the value-propagation fixed point ``F ← (1-α)·W·F + α·x_h``; each
    column is independent (Theorem 6), so batching is exact.

    ``per_column`` freezes each column as soon as *its* delta converges
    (instead of iterating until the worst column does), which makes the
    result independent of how the hubs are grouped into batches — the
    property incremental updates rely on to recompute a subset of columns
    bit-identically to a full rebuild.
    """
    n = view.num_nodes
    hubs = np.asarray(hub_local, dtype=np.int64)
    f = np.zeros((n, hubs.size))
    if n == 0 or hubs.size == 0:
        return f
    w = view.transition()
    omalpha = 1.0 - alpha
    live = np.arange(hubs.size)  # output columns still iterating
    cur = np.zeros((n, hubs.size))
    for _ in range(max_iter):
        nxt = w @ cur
        nxt *= omalpha
        nxt[hubs[live], np.arange(live.size)] += alpha
        # cur is dead once nxt exists: reuse it for |nxt - cur|.
        np.subtract(nxt, cur, out=cur)
        np.abs(cur, out=cur)
        done = cur.max(axis=0) <= tol * alpha
        cur = nxt
        if not per_column:
            done[:] = done.all()  # nobody retires before the worst column
        if done.any():
            f[:, live[done]] = cur[:, done]
            keep = np.nonzero(~done)[0]
            if keep.size == 0:
                break
            live = live[keep]
            cur = np.take(cur, keep, axis=1)
    else:
        raise ConvergenceError(
            f"skeleton_columns: no convergence in {max_iter} iterations"
        )
    return f


def skeleton_single_hub(
    view: VirtualSubgraph,
    hub_local: int,
    *,
    alpha: float = 0.15,
    tol: float = 1e-4,
    max_iter: int = 100_000,
) -> np.ndarray:
    """One skeleton column with ``O(|V|)`` peak memory — the paper's
    distributed formulation (Eq. 8) verbatim."""
    n = view.num_nodes
    f = np.zeros(n)
    w = view.transition()
    for _ in range(max_iter):
        nxt = (1.0 - alpha) * (w @ f)
        nxt[hub_local] += alpha
        delta = np.abs(nxt - f).max()
        f = nxt
        if delta <= tol * alpha:
            return f
    raise ConvergenceError(f"skeleton_single_hub: no convergence in {max_iter} iterations")


def skeleton_vectors_dp(
    view: VirtualSubgraph,
    hub_local: np.ndarray,
    *,
    alpha: float = 0.15,
    tol: float = 1e-4,
    max_iter: int = 100_000,
) -> np.ndarray:
    """The original Jeh–Widom dynamic program (Eq. 10), hub coordinates only.

    Iterates the skeleton vector of *every* node simultaneously —
    ``D_{k+1}[u] = (1-α)/|Out(u)| Σ D_k[Out_i(u)] + α·x_u`` — which needs
    ``O(|V|·|H|)`` memory throughout, the cost the paper's Section 5.2
    improves on.  Included for the ablation benchmark; the result equals
    :func:`skeleton_columns` (Theorem 6).
    """
    n = view.num_nodes
    hubs = np.asarray(hub_local, dtype=np.int64)
    d = np.zeros((n, hubs.size))
    if n == 0 or hubs.size == 0:
        return d
    # E_0[u] = x_u, restricted to the hub coordinates we are solving for.
    e = np.zeros((n, hubs.size))
    cols = np.arange(hubs.size)
    e[hubs, cols] = 1.0
    w = view.transition()
    for _ in range(max_iter):
        d = (1.0 - alpha) * (w @ d)
        d[hubs, cols] += alpha
        e = (1.0 - alpha) * (w @ e)
        if e.max() <= tol:
            return d
    raise ConvergenceError(f"skeleton_vectors_dp: no convergence in {max_iter} iterations")
