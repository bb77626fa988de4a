"""Pluggable fast kernels behind capability detection.

The query stack's hot loops (sparse products, level merging, per-row
top-k, the batched solves) dispatch through this package: a cached
capability :func:`probe` picks a backend (``REPRO_KERNELS=auto|scipy|
numba|python``, auto = numba when it compiles, else scipy) for the
whole process, worker processes included.  Only the six dispatching
leaf functions (``spgemm_scaled``, ``sparse_add``, ``topk_rows``,
``topk_rows_sparse``, ``partial_vectors``, ``power_iteration_ppv``)
also accept ``kernels=`` — a :class:`Kernels` bundle, a backend name,
or ``None`` for that default — which is how the equivalence tests and
``bench_kernels.py`` pin a backend.  Backends are exact, not
approximate: each kernel replays its scipy/numpy twin's accumulation
order term-by-term (dense bitwise-equal, sparse ``toarray``-equal), so
flipping the backend can never change a result, only its speed.
"""

from repro.kernels.capability import Capability, KernelReport, probe
from repro.kernels.dispatch import (
    Kernels,
    KernelsLike,
    active_kernels,
    get_kernels,
    resolve_kernels,
)

__all__ = [
    "Capability",
    "KernelReport",
    "Kernels",
    "KernelsLike",
    "probe",
    "active_kernels",
    "get_kernels",
    "resolve_kernels",
]
