"""The span recorder and the instance proxies of the e2e benchmark."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if getattr(sys.modules.get("trace"), "__file__", None) not in (None, str(HERE / "trace.py")):
    del sys.modules["trace"]  # the stdlib's tracer, imported by someone earlier

from trace import (  # noqa: E402  (the benchmark's trace.py, next to this file)
    BATCH,
    NAME,
    PARENT,
    VALUE,
    Proxies,
    Recorder,
    TracedFuture,
    capture_calls,
)

from repro.core import build_gpa_index  # noqa: E402
from repro.graph import hierarchical_community_digraph  # noqa: E402


# ----- self time on synthetic span trees -------------------------------
def test_self_time_nested():
    rec = Recorder()
    root = rec.add("root", 0.0, 10.0)
    child = rec.add("child", 2.0, 8.0, root)
    rec.add("grandchild", 3.0, 5.0, child)
    assert rec.self_times() == pytest.approx([4.0, 4.0, 2.0])


def test_self_time_siblings_and_overlap():
    rec = Recorder()
    root = rec.add("root", 0.0, 10.0)
    rec.add("a", 1.0, 3.0, root)
    rec.add("b", 3.0, 4.0, root)  # adjacent sibling
    rec.add("c", 6.0, 9.0, root)
    rec.add("d", 8.0, 12.0, root)  # overlaps c and runs past the parent
    # Children cover [1, 4] and [6, 10] of the root: 3 + 4 of its 10.
    assert rec.self_times()[root] == pytest.approx(3.0)


def test_self_time_zero_length():
    rec = Recorder()
    root = rec.add("root", 5.0, 5.0)
    rec.add("child", 5.0, 5.0, root)
    lone = rec.add("lone", 1.0, 2.0)
    rec.add("instant", 1.5, 1.5, lone)
    assert rec.self_times() == pytest.approx([0.0, 0.0, 1.0, 0.0])


def test_live_spans_nest_and_share_a_batch_id():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    with rec.span("serving.submit") as outer:
        with rec.span("sharding.router.query_many", batch_root=True) as root:
            with rec.span("core.engine.query_many") as leaf:
                pass
        with rec.span("sharding.router.query_many", batch_root=True) as second:
            pass
    spans = rec.spans
    assert spans[outer][NAME] == "serving.submit"
    assert spans[root][PARENT] == outer and spans[leaf][PARENT] == root
    # The submit that caused the first batch adopts its id; the leaf inherits it.
    assert spans[outer][BATCH] == spans[root][BATCH] == spans[leaf][BATCH] == 0
    assert spans[second][BATCH] == 1
    # Clock ticks: outer [0, 7], root [1, 4], leaf [2, 3], second [5, 6].
    assert rec.self_times() == pytest.approx([7 - 3 - 1, 3 - 1, 1, 1])


def test_exports(tmp_path):
    rec = Recorder()
    root = rec.add("sharding.router.query_many", 1.0, 2.0, batch=3, value=64)
    rec.add("core.engine.query_many", 1.25, 1.75, root, batch=3)
    rec.write_jsonl(str(tmp_path / "spans.jsonl"))
    rec.write_chrome_trace(str(tmp_path / "spans.trace.json"))
    lines = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [x["name"] for x in lines] == ["sharding.router.query_many", "core.engine.query_many"]
    assert lines[0]["self"] == pytest.approx(0.5) and lines[0]["value"] == 64
    assert lines[1]["parent"] == 0 and lines[1]["batch"] == 3
    events = json.loads((tmp_path / "spans.trace.json").read_text())["traceEvents"]
    assert events[0]["ph"] == "X" and events[0]["cat"] == "sharding"
    assert events[1]["ts"] == pytest.approx(0.25e6) and events[1]["dur"] == pytest.approx(0.5e6)


# ----- proxies ----------------------------------------------------------
class _Adder:
    def __init__(self) -> None:
        self.calls = 0

    def add(self, a: int, b: int = 0) -> int:
        self.calls += 1
        return a + b

    def boom(self) -> None:
        raise ValueError("boom")


def test_proxy_records_and_restores():
    rec = Recorder()
    px = Proxies(rec)
    target = _Adder()
    shadowed = _Adder()
    shadowed.add = lambda a, b=0: -1  # an instance attribute of its own
    original = shadowed.add
    assert px.wrap(target, "add", "layer.add", measure=lambda args, ret: ret)
    assert not px.wrap(target, "add", "layer.add")  # idempotent
    px.wrap(target, "boom", "layer.boom")
    px.wrap(shadowed, "add", "layer.shadowed")
    assert target.add(2, b=3) == 5 and shadowed.add(1) == -1
    with pytest.raises(ValueError):
        target.boom()
    spans = rec.spans
    assert [s[NAME] for s in spans] == ["layer.add", "layer.shadowed", "layer.boom"]
    assert spans[0][VALUE] == 5
    px.restore()
    assert "add" not in vars(target) and "boom" not in vars(target)
    assert target.add.__func__ is _Adder.add
    assert shadowed.add is original
    target.add(1)
    assert len(rec.spans) == 3  # nothing records after restore


def test_traced_future_links_submit_and_result():
    class _Future:
        def result(self):
            return ("block", 0.25)

    class _Backend:
        def submit(self, key):
            return _Future()

    rec = Recorder()
    px = Proxies(rec)
    backend = _Backend()
    px.wrap(backend, "submit", "exec.submit", future_name="exec.result",
            future_measure=lambda value: value[1])
    future = backend.submit("k")
    assert isinstance(future, TracedFuture)
    assert future.result() == ("block", 0.25)
    spans = rec.spans
    assert [s[NAME] for s in spans] == ["exec.submit", "exec.result"]
    assert spans[1][VALUE] == (0, 0.25)


def test_capture_calls_restores_the_function():
    import repro.core.sparse_ops as sparse_ops

    original = sparse_ops.sparse_add
    calls: list = []
    with capture_calls(sparse_ops, "sparse_add", calls):
        assert sparse_ops.sparse_add is not original
    assert sparse_ops.sparse_add is original and calls == []


def test_proxies_leave_served_answers_bitwise_unchanged():
    """Instrument a small cached, sharded service the way the benchmark
    does: same bits with proxies on, and every attribute back after."""
    from layers import instrument  # the benchmark's own instrumentation map
    from workloads import WORKLOADS, Deployment, build_router, build_service

    graph = hierarchical_community_digraph(
        240, seed=3, avg_out_degree=4
    ).with_dangling_policy("self_loop")
    index = build_gpa_index(graph, 4, prune=1e-3)
    w = WORKLOADS["zipf_dense_cached"]
    nodes = np.random.default_rng(5).integers(0, graph.num_nodes, 3 * w.max_batch).tolist()

    def serve(traced: bool):
        router = build_router(w, index, index, pool=None)
        service = build_service(w, router)
        dep = Deployment(workload=w, graph=graph, index=index, router=router, service=service)
        rec = Recorder()
        px = Proxies(rec)
        if traced:
            instrument(dep, px, [])
        tickets = [service.submit(u) for u in nodes]
        service.flush()
        rows = np.vstack([t.result for t in tickets])
        px.restore()
        leftovers = [
            name
            for obj in (service, router, *router.shards, *(s.cache for s in router.shards))
            for name, attr in vars(obj).items()
            if getattr(attr, "_e2e_proxy", False)
        ]
        return rows, rec, leftovers

    plain, _, _ = serve(traced=False)
    traced, rec, leftovers = serve(traced=True)
    assert np.array_equal(plain, traced)
    assert leftovers == []
    names = {s[NAME] for s in rec.spans}
    assert {"serving.submit", "sharding.router.query_many", "serving.cache.get",
            "sharding.shard.query_many_finish", "core.engine.query_many"} <= names
