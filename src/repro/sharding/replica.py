"""One replica of a shard: a query backend plus health and load state.

A replica wraps any servable engine (an index family, a distributed
runtime, or an existing :class:`~repro.serving.adapters.QueryBackend`)
behind the uniform backend interface and adds what a router needs to
balance and fail over: cumulative load counters and a health flag with
optional *timed* recovery.  Health transitions are explicit (``mark_down``
/ ``mark_up``) or clock-driven (``mark_down(until=t)``), never inferred
from exceptions, so failure scenarios replay deterministically under a
:class:`~repro.serving.service.SimulatedClock`.

In the simulation several replicas may share one underlying engine object
(replicating a read-only index costs nothing in-process); in a real
deployment each replica would be a separate process holding its own copy
of the partition's precomputed vectors.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.updates import EdgeUpdate, UpdateReceipt
from repro.exec.backend import ExecLease
from repro.exec.states import engine_builder
from repro.serving.adapters import as_backend

if TYPE_CHECKING:
    from repro.exec.backend import ExecutionBackend
    from repro.faults.injector import ReplicaProbe

__all__ = ["Replica"]


class Replica:
    """A health-tracked query backend inside a shard's replica group."""

    def __init__(self, engine: Any, replica_id: int) -> None:
        self.backend = as_backend(engine)
        self.replica_id = int(replica_id)
        # Worker-side execution state, per (execution backend, engine
        # epoch): the lease unregisters ``_exec_key`` — on _drop_exec, or
        # when the replica is garbage-collected without one — and its
        # process-wide uid names the replica.  ``_exec_inline``: probed,
        # and the engine has no shared-memory layout.
        self._lease = ExecLease(self)
        self._exec_inline = False
        self.uid = self._lease.uid
        self.served_queries = 0
        self.served_batches = 0
        self.busy_seconds = 0.0
        self._down = False
        self._down_until: float | None = None
        # Fault-injection seam: a FaultInjector installs a probe here;
        # the shard consults it before every serve attempt.  None (the
        # default) costs one attribute read on the serving path.
        self.fault_hook: ReplicaProbe | None = None

    @property
    def num_nodes(self) -> int:
        return self.backend.num_nodes

    @property
    def epoch(self) -> int:
        """Graph version this replica currently serves."""
        return self.backend.epoch

    @property
    def _exec_key(self) -> tuple[str, int]:
        return ("replica", self.uid)

    # ----- updates ------------------------------------------------------
    def apply_update(
        self, update: EdgeUpdate, shared: dict[Any, Any] | None = None
    ) -> UpdateReceipt:
        """Apply one live edge update to this replica's backend.

        ``shared`` memoizes the index rebuild by engine identity so
        replicas sharing one engine object (the in-process default)
        recompute it once and flip together.
        """
        self._drop_exec()
        return self.backend.apply_update(update, shared=shared)

    # ----- health -------------------------------------------------------
    def mark_down(self, *, until: float | None = None) -> None:
        """Take the replica out of rotation, optionally only until
        clock time ``until`` (timed recovery)."""
        self._down = True
        self._down_until = None if until is None else float(until)

    def mark_up(self) -> None:
        self._down = False
        self._down_until = None

    def is_up(self, now: float) -> bool:
        """Health at clock time ``now``; a timed outage auto-recovers."""
        if self._down and self._down_until is not None and now >= self._down_until:
            self.mark_up()
        return not self._down

    # ----- worker-side execution ---------------------------------------
    def exec_submit(
        self, backend: ExecutionBackend | None, nodes: np.ndarray, *, sparse: bool
    ) -> Any:
        """Submit one batch to the execution backend, or ``None`` to
        serve inline.

        ``None`` means no backend was given or the engine has no
        worker-side layout (see
        :func:`~repro.exec.states.engine_builder`); otherwise returns a
        future resolving to ``(matrix, wall_seconds)``.  The engine's
        worker state registers lazily on first submit and is dropped by
        :meth:`apply_update` — a new epoch means a new engine object,
        registered afresh on the next submit.
        """
        if backend is None:
            return None
        lease = self._lease
        if lease.backend is not backend:
            self._drop_exec()
            lease.backend = backend
        if not lease.keys and not self._exec_inline:
            builder = engine_builder(self.backend, backend)
            if builder is None:
                self._exec_inline = True
            else:
                lease.register(self._exec_key, builder)
        if self._exec_inline:
            return None
        return backend.submit(self._exec_key, "serve", nodes, sparse)

    def note_served(self, num_queries: int, seconds: float) -> None:
        """Account a worker-served batch to this replica's load counters
        (the worker reports its measured compute wall)."""
        self.busy_seconds += float(seconds)
        self.served_queries += int(num_queries)
        self.served_batches += 1

    # ----- fault probes -------------------------------------------------
    def probe_faults(self, now: float) -> float:
        """Consult the injected fault hook before a serve attempt.

        Raises the scheduled fault when one is due (``WorkerDied``, a
        link fault), else returns the injected straggler latency at
        clock time ``now`` — charged to ``busy_seconds`` so stragglers
        show up in the shard makespan like real slow compute.  Without
        a hook this is a no-op returning 0.0.
        """
        if self.fault_hook is None:
            return 0.0
        self.fault_hook.before_serve(now)
        delay = float(self.fault_hook.latency(now))
        if delay > 0.0:
            self.busy_seconds += delay
        return delay

    def reset_exec(self) -> None:
        """Drop worker-side execution state so the next submit registers
        afresh — the transient-``WorkerDied`` retry path: with a process
        pool the key re-registers round-robin on a *different* worker,
        so one flaky worker doesn't permanently drain this replica."""
        self._drop_exec()

    def _drop_exec(self) -> None:
        self._lease.release()
        self._lease.backend = None
        self._exec_inline = False

    # ----- serving ------------------------------------------------------
    def _serve(
        self, verb: Callable[..., Any], nodes: np.ndarray
    ) -> tuple[Any, list[Any]]:
        t0 = time.perf_counter()
        out, meta = verb(nodes)
        self.busy_seconds += time.perf_counter() - t0
        self.served_queries += int(np.asarray(nodes).size)
        self.served_batches += 1
        return out, meta

    def query_many(self, nodes: np.ndarray) -> tuple[np.ndarray, list[Any]]:
        """Serve one batch, accounting load to this replica."""
        return self._serve(self.backend.query_many, nodes)

    def query_many_sparse(self, nodes: np.ndarray) -> tuple[Any, list[Any]]:
        """Serve one batch as sparse CSR rows, accounting load.

        Exact: ``toarray()`` equals the dense :meth:`query_many` result.
        """
        return self._serve(self.backend.query_many_sparse, nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "down" if self._down else "up"
        return f"<Replica {self.replica_id} ({state}) over {self.backend!r}>"
