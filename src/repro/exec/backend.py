"""The execution seam: where a machine's (or replica's) share runs.

Every layer above this module dispatches batched work the same way —
``register`` a keyed state builder once, then ``submit(key, method,
*args)`` per batch and resolve the returned future — so the *same*
runtime/sharding code runs serially in-process or fanned out over real
worker processes:

* :class:`SerialBackend` builds states lazily in-process and computes at
  submit time; it preserves today's single-threaded behavior bitwise and
  is the default everywhere.
* :class:`ProcessPoolBackend` runs each state in a worker process.
  Builders are picklable values carrying
  :class:`~repro.exec.shm.ArenaDescriptor` handles, so workers attach
  the stacked buffers read-only via shared memory.  Node ids go in over
  the pipe; a reply's array buffers come back through a ring of
  ``SLOTS`` shared reply slots per worker, and only the in-band pickle
  plus the slot spans cross the pipe.  Keys are assigned to workers
  round-robin in registration order (deterministic); a worker answers
  its tasks in FIFO order, so futures resolve by pipe order.  A dead
  worker fails its pending and future submissions with
  :class:`~repro.errors.WorkerDied` — the sharding layer's ``mark_down``
  failover signal — and is never respawned behind the caller's back.

Both backends are context managers; ``close`` tears down workers and
unlinks every arena the backend owns, which the test suite asserts
leaves no child process and no ``/dev/shm`` segment behind.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing as mp
import os
import pickle
import traceback
import weakref
from collections import deque
from collections.abc import Callable, Hashable
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Any, Self

import numpy as np

from repro.errors import ExecutionError, WorkerDied
from repro.exec.shm import ArenaDescriptor, ShmArena

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = ["ExecutionBackend", "ExecLease", "SerialBackend", "ProcessPoolBackend"]


class ExecutionBackend:
    """Protocol of the seam (see the module docstring).

    ``is_local`` tells callers whether builders may be plain in-process
    closures (serial) or must be picklable shared-state builders
    (process pool); layers use it to pick which builder to register.

    ``fault_hook`` is the fault-injection seam: when set (by a
    :class:`~repro.faults.injector.FaultInjector`), every ``submit`` is
    offered to the hook first, which may raise
    :class:`~repro.errors.WorkerDied` to simulate a worker death at the
    seam — exercising the exact failover path a real dead worker takes,
    deterministically.
    """

    is_local = True
    fault_hook: Callable[[Hashable, str], None] | None = None

    def register(self, key: Hashable, builder: Callable[[], Any]) -> None:
        raise NotImplementedError

    def unregister(self, key: Hashable) -> None:
        raise NotImplementedError

    def submit(self, key: Hashable, method: str, *args: Any) -> Any:
        raise NotImplementedError

    def create_arena(self, arrays: dict[str, np.ndarray]) -> ArenaDescriptor:
        raise NotImplementedError

    def memo_arena(
        self,
        owner: object,
        arrays_fn: Callable[[], dict[str, np.ndarray]],
    ) -> ArenaDescriptor:
        raise NotImplementedError

    def drop_arena(self, descriptor: ArenaDescriptor) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# Lease uids name worker-side registrations, so they must be unique for
# the life of the process, not of the owner: id() values recycle once a
# dropped owner is freed.
_UIDS = itertools.count()


class ExecLease:
    """What one owner (a replica, a runtime) holds on an execution backend.

    ``uid`` is process-wide unique, so keys built from it never collide
    with a dead owner's.  Keys registered and arenas created through the
    lease are released together — by :meth:`release`, or by the garbage
    collector when the owner is dropped without one — so a backend never
    pins the states of owners it no longer serves.  The lease holds no
    reference to its owner.
    """

    __slots__ = ("uid", "backend", "keys", "arenas")

    def __init__(
        self, owner: object, backend: ExecutionBackend | None = None
    ) -> None:
        self.uid = next(_UIDS)
        self.backend = backend
        self.keys: list[Hashable] = []
        self.arenas: list[ArenaDescriptor] = []
        weakref.finalize(owner, self.release).atexit = False

    def register(self, key: Hashable, builder: Callable[[], Any]) -> None:
        assert self.backend is not None
        self.backend.register(key, builder)
        self.keys.append(key)

    def create_arena(self, arrays: dict[str, np.ndarray]) -> ArenaDescriptor:
        assert self.backend is not None
        descriptor = self.backend.create_arena(arrays)
        self.arenas.append(descriptor)
        return descriptor

    def release(self) -> None:
        """Unregister every key and drop every arena (idempotent)."""
        if self.backend is not None:
            for key in self.keys:
                self.backend.unregister(key)
            for descriptor in self.arenas:
                self.backend.drop_arena(descriptor)
        self.keys.clear()
        self.arenas.clear()


class _ReadyFuture:
    """An already-resolved future (serial submissions compute inline)."""

    __slots__ = ("_value",)

    def __init__(self, value: Any) -> None:
        self._value = value

    def result(self) -> Any:
        return self._value


class SerialBackend(ExecutionBackend):
    """In-process execution: today's behavior, bitwise.

    States build lazily on first submission (preserving the runtimes'
    "never-queried deployments never stack" discipline) and methods run
    inline at ``submit`` time, so the machine-order of a serial fan-out
    is exactly the loop order of the caller.
    """

    is_local = True

    def __init__(self) -> None:
        self._builders: dict[Any, Any] = {}
        self._states: dict[Any, Any] = {}

    def register(self, key: Hashable, builder: Callable[[], Any]) -> None:
        if key in self._builders:
            raise ExecutionError(f"duplicate registration for key {key!r}")
        self._builders[key] = builder

    def unregister(self, key: Hashable) -> None:
        self._builders.pop(key, None)
        self._states.pop(key, None)

    def submit(self, key: Hashable, method: str, *args: Any) -> _ReadyFuture:
        if self.fault_hook is not None:
            self.fault_hook(key, method)
        state = self._states.get(key)
        if state is None:
            builder = self._builders.get(key)
            if builder is None:
                raise ExecutionError(f"no state registered for key {key!r}")
            state = self._states[key] = builder()
        return _ReadyFuture(getattr(state, method)(*args))

    def close(self) -> None:
        self._builders.clear()
        self._states.clear()


# ----------------------------------------------------------------------
# Worker process main loop


class _Lazy:
    """Deferred builder call: registration stays cheap; the state (arena
    attach + view construction) materialises on the key's first task."""

    __slots__ = ("builder", "state")

    def __init__(self, builder: Callable[[], Any]) -> None:
        self.builder = builder
        self.state: Any = None

    def get(self) -> Any:
        if self.state is None:
            self.state = self.builder()
        return self.state


# Each worker's replies rotate through SLOTS slots of an anonymous shared
# ring mapped before the fork.  The parent reads a reply before it sends
# the task whose reply would overwrite it (see ProcessPoolBackend.submit).
SLOTS = 2
SLOT_BYTES = 64 << 20  # virtual: only the pages a reply writes are touched

Span = tuple[int, int]  # (ring offset, nbytes) of one out-of-band buffer


def _to_ring(value: Any, ring: mmap.mmap, slot: int) -> tuple[bytes, list[Span]]:
    """Pickle ``value``, copying its out-of-band buffers into ``slot``.

    A buffer that does not fit the slot's remaining room stays in-band.
    """
    spans: list[Span] = []
    end = (slot + 1) * SLOT_BYTES

    def out_of_band(buf: pickle.PickleBuffer) -> bool:
        raw = buf.raw()
        start = spans[-1][0] + spans[-1][1] if spans else slot * SLOT_BYTES
        if start + raw.nbytes > end:
            return True
        ring[start : start + raw.nbytes] = raw
        spans.append((start, raw.nbytes))
        return False

    return pickle.dumps(value, protocol=5, buffer_callback=out_of_band), spans


def _worker_main(conn: Connection, ring: mmap.mmap) -> None:
    states: dict[Any, Any] = {}
    replies = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        op = msg[0]
        if op == "register":
            states[msg[1]] = _Lazy(msg[2])
        elif op == "unregister":
            states.pop(msg[1], None)
        elif op == "submit":
            _, task_id, key, method, args = msg
            slot = replies % SLOTS
            replies += 1
            try:
                value = getattr(states[key].get(), method)(*args)
                reply = _to_ring(("ok", task_id, value), ring, slot)
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                err = ("err", task_id, repr(exc), traceback.format_exc())
                reply = _to_ring(err, ring, slot)
            conn.send(reply)
        elif op == "close":
            break
    conn.close()
    # Skip interpreter teardown: live zero-copy views keep the attached
    # segments' buffers exported, and a regular exit would spray harmless
    # but noisy BufferErrors from SharedMemory.__del__.  The parent (or
    # the shared resource tracker, on a crash) owns all cleanup.
    os._exit(0)


# ----------------------------------------------------------------------
# Parent side


class _ProcFuture:
    __slots__ = ("_worker", "task_id", "done", "value", "error")

    def __init__(self, worker: "_Worker", task_id: int) -> None:
        self._worker = worker
        self.task_id = task_id
        self.done = False
        self.value = None
        self.error = None

    def result(self) -> Any:
        while not self.done:
            self._worker.pump()
        if self.error is not None:
            raise self.error
        return self.value


class _Worker:
    """One worker process plus its command pipe, reply ring and futures."""

    def __init__(self, ctx: Any, index: int, timeout: float) -> None:
        self.index = index
        self.timeout = timeout
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.ring = mmap.mmap(-1, SLOTS * SLOT_BYTES)
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn, self.ring), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.pending: deque[_ProcFuture] = deque()
        self.alive = True

    def send(self, msg: tuple[Any, ...]) -> None:
        if not self.alive:
            raise WorkerDied(f"worker {self.index} is dead")
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            self.fail(f"worker {self.index} died (pipe closed on send)")
            raise WorkerDied(f"worker {self.index} is dead") from None

    def pump(self) -> None:
        """Receive one reply and resolve the oldest pending future."""
        if not self.alive:  # pending were already failed by fail()
            return
        try:
            if not self.conn.poll(self.timeout):
                self.proc.terminate()
                self.fail(
                    f"worker {self.index} timed out after {self.timeout}s"
                )
                return
            data, spans = self.conn.recv()
        except (EOFError, OSError):
            self.fail(f"worker {self.index} died mid-batch")
            return
        with memoryview(self.ring) as ring:
            buffers = [bytearray(ring[o : o + n]) for o, n in spans]
        msg = pickle.loads(data, buffers=buffers)
        fut = self.pending.popleft()
        if msg[0] == "ok":
            fut.value = msg[2]
        else:
            fut.error = ExecutionError(
                f"worker {self.index} task failed: {msg[2]}\n{msg[3]}"
            )
        fut.done = True

    def fail(self, reason: str) -> None:
        """Mark dead and fail every outstanding future with WorkerDied."""
        self.alive = False
        while self.pending:
            fut = self.pending.popleft()
            fut.error = WorkerDied(reason)
            fut.done = True

    def shutdown(self, grace: float) -> None:
        if self.alive:
            try:
                self.conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        self.proc.join(timeout=grace)
        if self.proc.is_alive():  # pragma: no cover - hung worker
            self.proc.terminate()
            self.proc.join(timeout=grace)
        self.conn.close()
        self.ring.close()
        self.alive = False


class ProcessPoolBackend(ExecutionBackend):
    """Real multiprocess execution behind the seam.

    ``num_workers`` worker processes are forked up front, before any
    arena exists, so children inherit nothing they should not — except
    their reply rings and the resource tracker, started first so that
    every worker reports to the parent's.  Registered keys pin to
    workers round-robin in registration order; all arenas created through the backend are owned
    by it and unlinked at ``close``.  ``timeout`` bounds every wait on a
    worker reply — a hung worker is terminated and surfaces as
    :class:`~repro.errors.WorkerDied` instead of stalling the caller.
    """

    is_local = False

    def __init__(self, num_workers: int, *, timeout: float = 120.0) -> None:
        if num_workers < 1:
            raise ExecutionError("need at least one worker")
        ctx = mp.get_context("fork")  # the reply rings are inherited
        # Workers share the parent's resource tracker only if it runs
        # before they fork; a worker forked earlier starts its own on its
        # first arena attach, and that one outlives close() unwaited.
        resource_tracker.ensure_running()
        self.num_workers = int(num_workers)
        self._workers = [
            _Worker(ctx, i, timeout) for i in range(self.num_workers)
        ]
        self._assignment: dict[Any, Any] = {}
        self._rr = 0
        self._tasks = itertools.count()
        self._arenas: dict[str, ShmArena] = {}
        self._memo: dict[int, ArenaDescriptor] = {}
        self._closed = False

    # ----- state registry ----------------------------------------------
    def register(self, key: Hashable, builder: Callable[[], Any]) -> None:
        if key in self._assignment:
            raise ExecutionError(f"duplicate registration for key {key!r}")
        worker = self._workers[self._rr % self.num_workers]
        self._rr += 1
        self._assignment[key] = worker
        try:
            worker.send(("register", key, builder))
        except WorkerDied:
            # Leave no half-registration behind: the caller may retry the
            # key (failover re-registers on a healthy sibling's worker).
            del self._assignment[key]
            raise

    def unregister(self, key: Hashable) -> None:
        worker = self._assignment.pop(key, None)
        if worker is not None and worker.alive:
            try:
                worker.send(("unregister", key))
            except WorkerDied:
                pass

    def submit(self, key: Hashable, method: str, *args: Any) -> _ProcFuture:
        if self.fault_hook is not None:
            self.fault_hook(key, method)
        worker = self._assignment.get(key)
        if worker is None:
            raise ExecutionError(f"no state registered for key {key!r}")
        if len(worker.pending) >= SLOTS:
            worker.pump()  # free the slot this task's reply will reuse
        fut = _ProcFuture(worker, next(self._tasks))
        worker.send(("submit", fut.task_id, key, method, args))
        worker.pending.append(fut)
        return fut

    # ----- arena ownership ---------------------------------------------
    def create_arena(self, arrays: dict[str, np.ndarray]) -> ArenaDescriptor:
        """Publish named arrays in a new backend-owned arena."""
        arena = ShmArena(arrays)
        self._arenas[arena.descriptor.shm_name] = arena
        return arena.descriptor

    def memo_arena(
        self,
        owner: object,
        arrays_fn: Callable[[], dict[str, np.ndarray]],
    ) -> ArenaDescriptor:
        """Publish once per live ``owner`` (e.g. a shared engine object).

        The arena lives as long as the owner: it is dropped when the
        owner is collected — before ``id(owner)`` can name another
        object, so a later owner at the same address publishes afresh.
        """
        descriptor = self._memo.get(id(owner))
        if descriptor is None:
            descriptor = self._memo[id(owner)] = self.create_arena(arrays_fn())
            weakref.finalize(owner, self._forget, id(owner)).atexit = False
        return descriptor

    def _forget(self, owner_id: int) -> None:
        descriptor = self._memo.pop(owner_id, None)  # None: closed since
        if descriptor is not None:
            self.drop_arena(descriptor)

    def drop_arena(self, descriptor: ArenaDescriptor) -> None:
        arena = self._arenas.pop(descriptor.shm_name, None)
        if arena is not None:
            arena.close()

    # ----- lifecycle ----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.shutdown(grace=5.0)
        for name in sorted(self._arenas):
            self._arenas[name].close()
        self._arenas.clear()
        self._memo.clear()
        self._assignment.clear()

    def __del__(self) -> None:  # pragma: no cover - safety net, tests use close()
        try:
            self.close()
        except Exception:
            pass
