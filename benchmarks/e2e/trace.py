"""Benchmark-side tracing: an in-memory span recorder and instance proxies.

The program under test has no tracing of its own yet (that is the later
``repro.obs`` issue), so the per-layer numbers of the e2e benchmark come
from spans recorded *here*, around calls into each layer's public
methods:

* :class:`Recorder` keeps spans in memory — name, start, end, the span
  that caused it, a per-batch id shared by every span of one routed
  batch, the harness phase, and an optional measured value — and
  computes each span's *self time* (its duration minus the part of that
  interval its children cover).
* :class:`Proxies` shadows public methods on the *instances* the harness
  built with recording wrappers, and restores them afterwards; nothing
  under ``src/`` is edited and classes are never patched.
* :func:`capture_calls` records the arguments of a module-level leaf
  function during one real batch, so a probe can replay the call on real
  inputs.

Spans are written out only when the run ends (:meth:`Recorder.write_jsonl`,
:meth:`Recorder.write_chrome_trace`).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

__all__ = [
    "Recorder",
    "Proxies",
    "TracedFuture",
    "capture_calls",
    "NAME",
    "START",
    "END",
    "PARENT",
    "BATCH",
    "PHASE",
    "VALUE",
]

# Field positions of a finished span (``Recorder.spans[sid]``).
NAME, START, END, PARENT, BATCH, PHASE, VALUE = range(7)

# An open span's frame on the recorder's stack.
_F_SID, _F_NAME, _F_START, _F_PARENT, _F_BATCH, _F_PHASE = range(6)


class Recorder:
    """In-memory spans of one single-threaded traced run.

    A span is stored when it *ends*, as one tuple of atoms: the garbage
    collector stops tracking such tuples, so a run that records a million
    spans does not pay for a million tracked containers in every
    collection (lists did, in tens of milliseconds per pause).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.phase = ""
        self.values: dict[int, Any] = {}
        self._done: list[tuple[Any, ...]] = []
        self._stack: list[list[Any]] = []
        self._next_sid = 0
        self._next_batch = 0

    @property
    def spans(self) -> list[tuple[Any, ...]]:
        """Finished spans indexed by span id, built on each read:
        ``(name, start, end, parent, batch, phase, value)``."""
        values = self.values
        return [(*span[1:], values.get(span[0])) for span in sorted(self._done)]

    # ----- recording ----------------------------------------------------
    def begin(self, name: str, batch_root: bool = False) -> int:
        """Open a span under the innermost open one; returns its id.

        A ``batch_root`` span starts a new batch id; every open ancestor
        that has none yet adopts it (the ``submit`` that filled the batch
        caused it), and descendants inherit it.
        """
        stack = self._stack
        if stack:
            top = stack[-1]
            parent, batch = top[_F_SID], top[_F_BATCH]
        else:
            parent, batch = -1, -1
        if batch_root:
            batch = self._next_batch
            self._next_batch += 1
            for frame in stack:
                if frame[_F_BATCH] < 0:
                    frame[_F_BATCH] = batch
        sid = self._next_sid
        self._next_sid += 1
        frame = [sid, name, 0.0, parent, batch, self.phase]
        stack.append(frame)
        frame[_F_START] = self.clock()  # last: keep bookkeeping outside
        return sid

    def end(self, sid: int) -> None:
        now = self.clock()  # first: keep bookkeeping outside
        f = self._stack.pop()
        self._done.append((f[0], f[1], f[2], now, f[3], f[4], f[5]))

    @contextmanager
    def span(self, name: str, batch_root: bool = False) -> Iterator[int]:
        sid = self.begin(name, batch_root)
        try:
            yield sid
        finally:
            self.end(sid)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        *,
        batch: int = -1,
        value: Any = None,
    ) -> int:
        """Append a finished span (synthetic trees, merged measurements)."""
        sid = self._next_sid
        self._next_sid += 1
        self._done.append((sid, name, start, end, parent, batch, self.phase))
        if value is not None:
            self.values[sid] = value
        return sid

    # ----- analysis -----------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals
        (clipped to the span), so overlapping or repeated children are
        never subtracted twice."""
        spans = self.spans
        kids: dict[int, list[int]] = {}
        for sid, span in enumerate(spans):
            if span[PARENT] >= 0:
                kids.setdefault(span[PARENT], []).append(sid)
        out = [0.0] * len(spans)
        for sid, span in enumerate(spans):
            lo, hi = span[START], span[END]
            covered, cursor = 0.0, lo
            for k in sorted(kids.get(sid, ()), key=lambda c: spans[c][START]):
                a = max(spans[k][START], cursor)
                b = min(spans[k][END], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            out[sid] = (hi - lo) - covered
        return out

    # ----- export -------------------------------------------------------
    def _records(self) -> Iterator[dict[str, Any]]:
        selfs = self.self_times()
        for sid, span in enumerate(self.spans):  # one build for the loop
            yield {
                "id": sid,
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "self": selfs[sid],
                "parent": span[PARENT],
                "batch": span[BATCH],
                "phase": span[PHASE],
                "value": span[VALUE],
            }

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self._records():
                fh.write(json.dumps(record) + "\n")

    def write_chrome_trace(self, path: str) -> None:
        """``chrome://tracing`` / Perfetto complete events, µs timestamps
        relative to the first span; the layer (name prefix) is the
        category."""
        origin = min((s[2] for s in self._done), default=0.0)
        events = [
            {
                "name": r["name"],
                "cat": r["name"].split(".", 1)[0],
                "ph": "X",
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": r["id"],
                    "parent": r["parent"],
                    "batch": r["batch"],
                    "phase": r["phase"],
                    "self_us": r["self"] * 1e6,
                    "value": r["value"],
                },
            }
            for r in self._records()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class TracedFuture:
    """Stands in for an execution-backend future so the wait is a span.

    Futures use ``__slots__`` and cannot carry an instance proxy; callers
    only ever read ``result()``, which is what this forwards.  The span's
    value is ``(submit span id, measured result)`` so a task's round trip
    can be taken from submit start to result end.
    """

    __slots__ = ("_future", "_recorder", "_name", "_submit_sid", "_measure")

    def __init__(
        self,
        future: Any,
        recorder: Recorder,
        name: str,
        submit_sid: int,
        measure: Callable[[Any], Any] | None,
    ) -> None:
        self._future = future
        self._recorder = recorder
        self._name = name
        self._submit_sid = submit_sid
        self._measure = measure

    def result(self) -> Any:
        rec = self._recorder
        sid = rec.begin(self._name)
        try:
            value = self._future.result()
        except BaseException:
            rec.end(sid)
            raise
        rec.end(sid)
        measured = self._measure(value) if self._measure is not None else None
        rec.values[sid] = (self._submit_sid, measured)
        return value


class Proxies:
    """Recording wrappers over public methods of harness-built instances."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        *,
        batch_root: bool = False,
        measure: Callable[[tuple[Any, ...], Any], Any] | None = None,
        future_name: str | None = None,
        future_measure: Callable[[Any], Any] | None = None,
    ) -> bool:
        """Shadow ``obj.attr`` with a wrapper recording span ``name``.

        ``measure(args, result)`` (run after the span closed) becomes the
        span's value.  With ``future_name`` the returned future is wrapped
        in a :class:`TracedFuture`.  Wrapping an already wrapped method is
        a no-op (returns ``False``), so a deployment can be re-scanned
        after an update swapped engine objects underneath it.
        """
        fn = getattr(obj, attr)
        if getattr(fn, "_e2e_proxy", False):
            return False
        try:
            inst = vars(obj)
        except TypeError:
            raise TypeError(
                f"{type(obj).__name__} has no instance dict; cannot proxy {attr!r}"
            ) from None
        had, prev = attr in inst, inst.get(attr)
        rec = self.recorder
        begin, end, values = rec.begin, rec.end, rec.values

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = begin(name, batch_root)
            try:
                ret = fn(*args, **kwargs)
            except BaseException:
                end(sid)
                raise
            end(sid)
            if measure is not None:
                values[sid] = measure(args, ret)
            if future_name is not None:
                return TracedFuture(ret, rec, future_name, sid, future_measure)
            return ret

        wrapper._e2e_proxy = True  # type: ignore[attr-defined]
        setattr(obj, attr, wrapper)
        self._undo.append((obj, attr, had, prev))
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        for obj, attr, had, prev in reversed(self._undo):
            if had:
                setattr(obj, attr, prev)
            else:
                delattr(obj, attr)
        self._undo.clear()


@contextmanager
def capture_calls(
    module: Any, name: str, sink: list[tuple[tuple[Any, ...], dict[str, Any]]]
) -> Iterator[None]:
    """Record ``(args, kwargs)`` of every call to ``module.name`` made
    inside the block (the function still runs), then put it back."""
    original = getattr(module, name)

    def spy(*args: Any, **kwargs: Any) -> Any:
        sink.append((args, kwargs))
        return original(*args, **kwargs)

    setattr(module, name, spy)
    try:
        yield
    finally:
        setattr(module, name, original)
