"""Shared-memory publication of the stacked query-op buffers.

One :class:`ShmArena` is a single ``multiprocessing.shared_memory``
segment holding any number of named flat arrays back to back.  Its
:class:`ArenaDescriptor` — segment name plus per-array (dtype, shape,
offset) specs — is a tiny picklable value; a worker that receives it
attaches the segment once and maps every array as a zero-copy read-only
``np.ndarray`` view.  :func:`stacked_ops_arrays` /
:func:`build_ops_from_view` layer the repo's stacked ``(owned, partial
CSC, skeleton CSR, nnz-per-hub)`` query-op tuple on top: the matrices are
rebuilt worker-side via :mod:`repro.core.stacked`, so per-query IPC never
carries index data.

Segment names are ``repro-shm-<creator pid>-<counter>``, which is what
lets the test suite assert that no segment outlives its backend.
"""

from __future__ import annotations

from typing import Any

import itertools
import os
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.flat_index import StackedOps
from repro.core.stacked import csc_from_arrays, csr_from_arrays
from repro.errors import ExecutionError

__all__ = [
    "SHM_NAME_PREFIX",
    "ArraySpec",
    "ArenaDescriptor",
    "ArenaView",
    "ShmArena",
    "stacked_ops_arrays",
    "build_ops_from_view",
]

SHM_NAME_PREFIX = "repro-shm-"
_ALIGN = 16  # float64/int64 safe alignment for every array start
_counter = itertools.count()


@dataclass(frozen=True)
class ArraySpec:
    """Location of one named array inside an arena segment."""

    name: str
    dtype: str
    shape: tuple[Any, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        count = int(np.prod(self.shape, dtype=np.int64))
        return int(np.dtype(self.dtype).itemsize) * count


@dataclass(frozen=True)
class ArenaDescriptor:
    """Picklable handle to a published arena: shm name + array specs."""

    shm_name: str
    specs: tuple[ArraySpec, ...]

    def attach(self) -> "ArenaView":
        """Attach the segment (memoized per process) and map the arrays."""
        view = _VIEW_CACHE.get(self.shm_name)
        if view is None:
            view = ArenaView(self)
            _VIEW_CACHE[self.shm_name] = view
        return view


# One attachment per segment per process: every ops tuple (or store)
# read from the same arena shares a single mapping.
_VIEW_CACHE: dict[str, "ArenaView"] = {}

# Views of already-unlinked segments, pinned for process lifetime: their
# numpy arrays may still be referenced by callers, and letting the
# SharedMemory object be collected first would raise BufferError from
# its __del__ ("cannot close: exported pointers exist").  The mapping is
# pinned by the live views regardless, so this costs nothing extra.
_CLOSED_VIEWS: list["ArenaView"] = []


class _ZombieSharedMemory(shared_memory.SharedMemory):
    """A pinned view's handle after its segment was unlinked: cleanup is
    a no-op so interpreter-exit GC cannot trip on the still-exported
    numpy buffers (the OS reclaims the mapping at process exit)."""

    def close(self) -> None:  # pragma: no cover - exit-time path
        pass

    def __del__(self) -> None:
        pass


def _pin_view(view: "ArenaView") -> None:
    view._shm.__class__ = _ZombieSharedMemory
    _CLOSED_VIEWS.append(view)


class ArenaView:
    """Worker-side (or test-side) attachment: read-only array views.

    Attaching registers the segment with this process's resource
    tracker.  Pool workers are forked after the parent's tracker starts,
    so that is the creator's tracker, and the owning arena's unlink
    unregisters it.
    """

    def __init__(self, descriptor: ArenaDescriptor) -> None:
        self._shm = shared_memory.SharedMemory(name=descriptor.shm_name)
        self.arrays: dict[str, np.ndarray] = {}
        for spec in descriptor.specs:
            arr = np.frombuffer(
                self._shm.buf,
                dtype=np.dtype(spec.dtype),
                count=int(np.prod(spec.shape, dtype=np.int64)),
                offset=spec.offset,
            ).reshape(spec.shape)
            arr.flags.writeable = False
            self.arrays[spec.name] = arr


class ShmArena:
    """Owner side of one published segment; context-manageable.

    ``close`` (or ``__exit__``) unlinks the segment: attached workers
    keep their live mappings until process exit — POSIX semantics — but
    the name disappears, which is what the leak-check fixture asserts.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        # Sorted by array name so the segment layout is a pure function
        # of the published arrays, not of dict construction order.
        ordered = [
            (name, np.ascontiguousarray(arr))
            for name, arr in sorted(arrays.items())
        ]
        specs: list[ArraySpec] = []
        offset = 0
        for name, arr in ordered:
            offset = -(-offset // _ALIGN) * _ALIGN  # round up
            specs.append(
                ArraySpec(name, arr.dtype.str, tuple(arr.shape), offset)
            )
            offset += arr.nbytes
        name = f"{SHM_NAME_PREFIX}{os.getpid()}-{next(_counter)}"
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(offset, 1), name=name
        )
        for spec, (_, arr) in zip(specs, ordered):
            dst = np.frombuffer(
                self._shm.buf,
                dtype=arr.dtype,
                count=arr.size,
                offset=spec.offset,
            )
            dst[:] = arr.ravel()
        self.descriptor = ArenaDescriptor(name, tuple(specs))
        self._closed = False

    def close(self) -> None:
        """Unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # An in-process attachment (if any) keeps its live views — unlink
        # only removes the name; the memory goes when the mappings do.
        view = _VIEW_CACHE.pop(self.descriptor.shm_name, None)
        if view is not None:
            _pin_view(view)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def stacked_ops_arrays(ops: StackedOps, prefix: str = "") -> dict[str, np.ndarray]:
    """Flatten one stacked query-op tuple into named arena arrays.

    The inverse is :func:`build_ops_from_view`; ``prefix`` namespaces
    several ops (e.g. one per HGPA level) inside a single arena.
    """
    owned, part_csc, skel_csr, nnz_per_hub = ops
    return {
        prefix + "owned": owned,
        prefix + "part_data": part_csc.data,
        prefix + "part_indices": part_csc.indices,
        prefix + "part_indptr": part_csc.indptr,
        prefix + "skel_data": skel_csr.data,
        prefix + "skel_indices": skel_csr.indices,
        prefix + "skel_indptr": skel_csr.indptr,
        prefix + "nnz_per_hub": nnz_per_hub,
    }


def build_ops_from_view(
    view: ArenaView, prefix: str, num_nodes: int
) -> StackedOps:
    """Rebuild one stacked ops tuple from an attached arena."""
    try:
        a = {
            key: view.arrays[prefix + key]
            for key in (
                "owned",
                "part_data",
                "part_indices",
                "part_indptr",
                "skel_data",
                "skel_indices",
                "skel_indptr",
                "nnz_per_hub",
            )
        }
    except KeyError as exc:  # pragma: no cover - descriptor/arena mismatch
        raise ExecutionError(f"arena is missing stacked-ops array {exc}") from None
    owned = a["owned"]
    shape = (num_nodes, owned.size)
    part_csc = csc_from_arrays(
        a["part_data"], a["part_indices"], a["part_indptr"], shape
    )
    skel_csr = csr_from_arrays(
        a["skel_data"], a["skel_indices"], a["skel_indptr"], shape
    )
    return (owned, part_csc, skel_csr, a["nnz_per_hub"])
