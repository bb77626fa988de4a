"""The kernel dispatch seam: one object that says how hot loops run.

A :class:`Kernels` bundle holds one optional callable per operation
family; ``None`` means "run the inline scipy/numpy baseline at the call
site" — the baselines stay where they always were (they are the
oracles), so the scipy backend is the empty bundle and a missing
accelerator changes nothing but speed.  :func:`resolve_kernels` is what
every dispatching call site funnels through:

* ``None``     → the process-wide default from the capability probe
  (``REPRO_KERNELS`` / auto-detection — one switch flips the stack);
* a string     → that backend by name;
* a bundle     → used as-is.

Nothing above the dispatching leaf functions carries a ``kernels``
argument: indexes, runtimes, shards and the service all run on the
process default, which forked workers inherit.

Bundles are cached per backend; building the numba bundle compiles the
kernels once and silently downgrades to scipy (reason recorded in the
report) if compilation fails.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.errors import QueryError
from repro.kernels.capability import KernelReport, probe
from repro.kernels.pykernels import KERNEL_OPS

__all__ = [
    "Kernels",
    "KernelsLike",
    "get_kernels",
    "active_kernels",
    "resolve_kernels",
]


@dataclass(frozen=True)
class Kernels:
    """One backend's kernel table (``None`` slot = inline baseline).

    ``backend`` names what actually dispatches (a requested-but-broken
    numba build carries ``backend="scipy"`` with the reason in
    ``report.notes``); ``report`` is the capability report benchmarks
    serialise next to their timings.
    """

    backend: str
    report: KernelReport
    topk_dense: Callable[..., Any] | None = None
    topk_sparse: Callable[..., Any] | None = None
    spgemm_csc: Callable[..., Any] | None = None
    cs_add: Callable[..., Any] | None = None
    power_solve: Callable[..., Any] | None = None
    percol_solve: Callable[..., Any] | None = None

    def implementation(self, op: str) -> Callable[..., Any]:
        """The callable that actually executes operation ``op``.

        An accelerated kernel when one is registered, else the baseline
        the call site runs inline — which is what the fallback tests
        assert: with numba absent or ``REPRO_KERNELS=scipy``, dispatch
        returns the original implementations.
        """
        if op not in KERNEL_OPS:
            raise QueryError(f"unknown kernel op {op!r}")
        fn: Callable[..., Any] | None = getattr(self, op)
        if fn is not None:
            return fn
        return _baseline(op)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        slots = [
            f.name
            for f in fields(self)
            if f.name in KERNEL_OPS and getattr(self, f.name) is not None
        ]
        return f"<Kernels backend={self.backend} accelerated={slots}>"


#: What dispatching call sites accept: a bundle, a backend name, or
#: ``None`` for the probe's process-wide default.
KernelsLike = Kernels | str | None


def _baseline(op: str) -> Callable[..., Any]:
    """The inline implementation a ``None`` slot falls back to.

    Late imports: the kernels package must stay importable from
    ``repro.core`` without a cycle.
    """
    import operator

    if op == "topk_dense":
        from repro.core.flat_index import topk_rows

        return topk_rows
    if op == "topk_sparse":
        from repro.core.sparse_ops import topk_rows_sparse

        return topk_rows_sparse
    if op == "spgemm_csc":
        return operator.matmul
    if op == "cs_add":
        return operator.add
    if op == "power_solve":
        from repro.core.power_iteration import power_iteration_ppv

        return power_iteration_ppv
    from repro.core.decomposition import partial_vectors

    return partial_vectors


_CACHE: dict[str, Kernels] = {}


def get_kernels(backend: str | None = None) -> Kernels:
    """The (cached) kernel bundle for ``backend``.

    ``None``/``"auto"`` resolve to the capability probe's pick; unknown
    names downgrade to scipy with the reason recorded — never an error,
    matching the probe's silent-fallback contract.
    """
    report = probe()
    name = report.backend if backend is None else backend.strip().lower()
    if name == "auto":
        name = report.backend
    cached = _CACHE.get(name)
    if cached is None:
        cached = _build(name, report)
        _CACHE[name] = cached
    return cached


def active_kernels() -> Kernels:
    """The process-wide default bundle (``REPRO_KERNELS`` / probe)."""
    return get_kernels(None)


def resolve_kernels(kernels: KernelsLike) -> Kernels:
    """Normalise a call-site ``kernels=`` argument to a bundle."""
    if isinstance(kernels, Kernels):
        return kernels
    return get_kernels(kernels)


def _build(name: str, report: KernelReport) -> Kernels:
    if name == "scipy":
        return Kernels(backend="scipy", report=report.retarget("scipy"))
    if name == "python":
        from repro.kernels.pykernels import build_kernels

        table = build_kernels(lambda f: f)
        return Kernels(
            backend="python", report=report.retarget("python"), **table
        )
    if name == "numba":
        from repro.kernels import numba_backend

        table, reason = numba_backend.load()
        if table is None:
            return Kernels(
                backend="scipy",
                report=report.with_downgrade(
                    "scipy", f"numba kernels unavailable: {reason}"
                ),
            )
        return Kernels(  # pragma: no cover - requires numba installed
            backend="numba", report=report.retarget("numba"), **table
        )
    return Kernels(
        backend="scipy",
        report=report.with_downgrade(
            "scipy", f"unknown kernel backend {name!r}; using scipy"
        ),
    )
