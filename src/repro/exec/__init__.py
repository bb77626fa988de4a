"""The execution seam: serial or real-multiprocess query execution.

:class:`SerialBackend` preserves today's in-process behavior bitwise;
:class:`ProcessPoolBackend` runs registered states in worker processes
that attach the stacked query buffers read-only via shared memory
(:mod:`repro.exec.shm`); node ids go in over a pipe and result blocks
come back through a per-worker shared reply ring.  Both distributed runtimes and the sharding layer accept a
``backend=`` and dispatch through this seam.
"""

from repro.exec.backend import (
    ExecLease,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.exec.shm import (
    ArenaDescriptor,
    ArraySpec,
    ShmArena,
    stacked_ops_arrays,
)

__all__ = [
    "ExecutionBackend",
    "ExecLease",
    "SerialBackend",
    "ProcessPoolBackend",
    "ArenaDescriptor",
    "ArraySpec",
    "ShmArena",
    "stacked_ops_arrays",
]
