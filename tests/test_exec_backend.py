"""The execution seam: shared arenas, process workers, exactness, failover.

The contracts under test are the seam's non-negotiables: a
:class:`ProcessPoolBackend` answer is *bitwise* equal to the serial one
(same buffers, same scipy kernels, same bits) for both distributed
runtimes and the shard router; arena descriptors pickle into zero-copy
read-only views; a dead worker surfaces as :class:`WorkerDied` and the
sharding layer fails over via ``mark_down``; and closing a backend leaves
no child process and no ``/dev/shm`` segment behind (also asserted
suite-wide by the ``no_exec_leaks`` fixture in ``conftest.py``).
"""

import gc
import glob
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import datasets
from repro.core import build_gpa_index, build_hgpa_ad_index, build_hgpa_index
from repro.core.updates import EdgeUpdate, apply_edge_update
from repro.distributed import DistributedGPA, DistributedHGPA
from repro.errors import ExecutionError, ShardingError, WorkerDied
from repro.exec import (
    ProcessPoolBackend,
    SerialBackend,
    ShmArena,
    stacked_ops_arrays,
)
from repro.exec import backend as exec_backend
from repro.exec.shm import build_ops_from_view
from repro.exec.states import ShareHost, engine_builder
from repro.graph import hierarchical_community_digraph
from repro.sharding.router import ShardRouter

from conftest import assert_one_row_equals_batches, sixty_four_nodes


def _shm_segments() -> list[str]:
    return glob.glob("/dev/shm/repro-shm-*")


def _query_nodes(num_nodes: int, size: int = 24, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, num_nodes, size=size)


def assert_csr_bitwise(a, b) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


class _SleepyState:
    """A worker state guaranteed to be mid-task when its worker is
    killed — makes the died-mid-batch path deterministic to test."""

    def nap(self, seconds: float) -> str:
        time.sleep(seconds)
        return "done"


def _sleepy_builder() -> _SleepyState:
    return _SleepyState()


@pytest.fixture
def pool():
    backend = ProcessPoolBackend(2)
    yield backend
    backend.close()


class TestArena:
    def test_descriptor_pickle_roundtrip_preserves_readonly_views(self):
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5),
            "c": np.arange(6, dtype=np.float64).reshape(2, 3),
        }
        with ShmArena(arrays) as arena:
            descriptor = pickle.loads(pickle.dumps(arena.descriptor))
            view = descriptor.attach()
            for name, arr in arrays.items():
                got = view.arrays[name]
                assert np.array_equal(got, arr)
                assert got.dtype == arr.dtype and got.shape == arr.shape
                # zero-copy view of the segment, not of the originals
                assert not np.shares_memory(got, arr)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[...] = 0
        assert not _shm_segments()

    def test_shared_stacked_ops_roundtrip(self, gpa_small):
        part_csc, skel_csr, nnz_per_hub = gpa_small._ops()
        ops = (gpa_small.hubs, part_csc, skel_csr, nnz_per_hub)
        with ShmArena(stacked_ops_arrays(ops)) as arena:
            descriptor = pickle.loads(pickle.dumps(arena.descriptor))
            owned, got_csc, got_csr, got_nnz = build_ops_from_view(
                descriptor.attach(), "", gpa_small.graph.num_nodes
            )
            assert np.array_equal(owned, gpa_small.hubs)
            assert_csr_bitwise(got_csc, part_csc)
            assert_csr_bitwise(got_csr, skel_csr)
            assert np.array_equal(got_nnz, nnz_per_hub)
            assert got_csc.shape == part_csc.shape
            assert not got_csc.data.flags.writeable
        assert not _shm_segments()

    def test_close_is_idempotent(self):
        arena = ShmArena({"x": np.ones(3)})
        arena.close()
        arena.close()
        assert not _shm_segments()


class TestBackendRegistry:
    def test_serial_duplicate_key_rejected(self):
        backend = SerialBackend()
        backend.register("k", lambda: None)
        with pytest.raises(ExecutionError, match="duplicate"):
            backend.register("k", lambda: None)

    def test_serial_missing_key_rejected(self):
        with pytest.raises(ExecutionError, match="no state"):
            SerialBackend().submit("missing", "dense")

    def test_process_pool_needs_a_worker(self):
        with pytest.raises(ExecutionError, match="at least one"):
            ProcessPoolBackend(0)

    def test_context_manager_cleans_up(self):
        with ProcessPoolBackend(2) as backend:
            backend.create_arena({"x": np.arange(4, dtype=np.float64)})
            assert _shm_segments()
        assert not _shm_segments()
        assert not mp.active_children()


    def test_pool_started_before_any_arena_leaves_no_process(self):
        # Workers forked before the parent had a resource tracker each
        # started one of their own on their first arena attach; those
        # outlived close(), re-parented, with nobody to wait for them.
        # A fresh interpreter in its own session makes every process it
        # starts, however re-parented, findable by session id.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", _POOL_FIRST_SCRIPT],
            capture_output=True, text=True, timeout=120, env=env,
            start_new_session=True,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.splitlines() == ["[28.0, 28.0]", "left: []"]

    def test_one_pool_serves_successive_routers(self):
        # Replica keys were built from id(): a later router's replicas at
        # recycled addresses collided with registrations nobody dropped
        # (the fifth router of this loop, on this dataset).
        index = build_gpa_index(datasets.load("email"), 4)
        nodes = _query_nodes(index.graph.num_nodes, size=16, seed=6)
        d0, _ = index.query_many(nodes)
        with ProcessPoolBackend(2) as pool:
            for _ in range(30):
                router = ShardRouter([[index, index]] * 2, backend=pool)
                d1, _ = router.query_many(nodes)
                router.query_many(nodes)  # second replica of each shard
                assert np.array_equal(d0, d1)
                assert len(pool._assignment) == 4  # collected routers let go
            router.close()
            assert not pool._assignment

    def test_one_pool_serves_successive_engines(self):
        # An engine's arena is memoized by object identity, so it must go
        # with the engine: a later index at the freed one's address would
        # otherwise be served the old index's vectors (and every dead
        # engine's segment would stay until the pool closed).
        graph = datasets.load("email")
        nodes = _query_nodes(graph.num_nodes, size=16, seed=7)
        with ProcessPoolBackend(2) as pool:
            index = router = None
            for i in range(12):
                del index, router  # free the address before the next build
                gc.collect()
                index = build_gpa_index(graph, 4, alpha=0.1 + 0.02 * i)
                router = ShardRouter([[index, index]] * 2, backend=pool)
                d1, _ = router.query_many(nodes)
                d0, _ = index.query_many(nodes)
                assert np.array_equal(d0, d1), i
                assert len(pool._arenas) == 1
            # An update's successor engine publishes afresh; the retired
            # one's arena goes once nothing serves it.
            update = EdgeUpdate.insert(0, graph.num_nodes - 1)
            assert router.apply_update(update).changed
            d1, _ = router.query_many(nodes)
            successor = router.shards[0].replicas[0].backend.engine
            assert successor is not index
            assert np.array_equal(successor.query_many(nodes)[0], d1)
            assert len(pool._arenas) == 2  # `index` is still referenced here
            del index
            gc.collect()
            assert len(pool._arenas) == 1
            del router, successor
            gc.collect()
            assert not pool._arenas and not pool._memo
            assert not _shm_segments()


    @pytest.mark.parametrize("family", ["gpa", "hgpa"])
    def test_dropped_runtimes_release_their_states(self, request, family):
        # The serial machine builder was a closure over the runtime, so
        # the backend pinned every runtime it ever served (40 deployments
        # left 80 machine states registered); on a pool the arenas stayed
        # until it closed, under keys built from id().
        index = request.getfixturevalue(f"{family}_small")
        runtime_cls = DistributedGPA if family == "gpa" else DistributedHGPA
        nodes = _query_nodes(index.graph.num_nodes, size=8, seed=3)
        d0, _ = index.query_many(nodes)
        serial = SerialBackend()
        for _ in range(40):
            runtime = runtime_cls(index, 2, backend=serial)
            d1, _ = runtime.query_many(nodes)
            assert np.array_equal(d1, runtime_cls(index, 2).query_many(nodes)[0])
            np.testing.assert_allclose(d1, d0, rtol=0, atol=1e-12)
            assert len(serial._builders) == len(serial._states) == 2
            del runtime
            gc.collect()
            assert not serial._builders and not serial._states
        with ProcessPoolBackend(2) as pool:
            for _ in range(6):
                runtime = runtime_cls(index, 2, backend=pool)
                d2, _ = runtime.query_many(nodes)
                assert np.array_equal(d1, d2)
                assert len(pool._assignment) == len(pool._arenas) == 2
                del runtime
                gc.collect()
                assert not pool._assignment and not pool._arenas
                assert not _shm_segments()

    def test_update_releases_the_old_deployment(self, gpa_small):
        nodes = _query_nodes(gpa_small.graph.num_nodes, size=8, seed=4)
        update = EdgeUpdate.insert(0, gpa_small.graph.num_nodes - 1)
        with ProcessPoolBackend(2) as pool:
            runtime = DistributedGPA(gpa_small, 2, backend=pool)
            runtime.query_many(nodes)
            before = set(pool._arenas)
            assert runtime.apply_update(update).changed
            assert not pool._assignment and not pool._arenas
            d1, _ = runtime.query_many(nodes)
            assert len(pool._arenas) == 2 and not before & set(pool._arenas)
            serial = DistributedGPA(gpa_small, 2)
            serial.apply_update(update)
            assert np.array_equal(d1, serial.query_many(nodes)[0])


_POOL_FIRST_SCRIPT = """
import os
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.exec import ProcessPoolBackend


class Attached:
    def __init__(self, descriptor):
        self.view = descriptor.attach()

    def total(self):
        return float(self.view.arrays["x"].sum())


class Builder:
    def __init__(self, descriptor):
        self.descriptor = descriptor

    def __call__(self):
        return Attached(self.descriptor)


pool = ProcessPoolBackend(2)  # before any arena, hence any tracker
descriptor = pool.create_arena({"x": np.arange(8, dtype=np.float64)})
for key in range(2):
    pool.register(key, Builder(descriptor))
print([pool.submit(key, "total").result() for key in range(2)])
pool.close()
mine = {os.getpid(), resource_tracker._resource_tracker._pid}
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        continue  # ended while we were listing
    session = int(stat[stat.rindex(")") + 2 :].split()[3])
    if session == os.getsid(0) and int(pid) not in mine:
        left.append(int(pid))
print("left:", left)
"""


class TestRuntimeBitwise:
    """Process-pool runtimes equal serial ones bit for bit."""

    @pytest.mark.parametrize("family", ["gpa", "hgpa"])
    def test_distributed_runtime_matches_serial(self, request, family):
        index = request.getfixturevalue(f"{family}_small")
        runtime_cls = DistributedGPA if family == "gpa" else DistributedHGPA
        nodes = _query_nodes(index.graph.num_nodes)
        serial = runtime_cls(index, 4)
        d0, rep0 = serial.query_many(nodes)
        s0, _ = serial.query_many_sparse(nodes)
        with ProcessPoolBackend(2) as pool:
            dist = runtime_cls(index, 4, backend=pool)
            d1, rep1 = dist.query_many(nodes)
            s1, _ = dist.query_many_sparse(nodes)
            assert np.array_equal(d0, d1)
            assert_csr_bitwise(s0, s1)
            for a, b in zip(rep0, rep1):
                assert a.per_machine_entries == b.per_machine_entries
                assert a.communication_bytes == b.communication_bytes

    @pytest.mark.parametrize("family", ["gpa", "hgpa", "hgpa_ad"])
    def test_one_row_equals_its_row_in_a_batch(self, request, small_graph, family):
        """Index shares in pool workers and machine shares on either
        backend answer a lone node exactly as they answer it in a batch."""
        if family == "hgpa_ad":
            index = build_hgpa_ad_index(small_graph, tol=1e-6, seed=0)
        else:
            index = request.getfixturevalue(f"{family}_small")
        runtime_cls = DistributedGPA if family == "gpa" else DistributedHGPA
        hubs = sorted(index.hub_partials)
        nodes = sixty_four_nodes(hubs, index.graph.num_nodes)
        with ProcessPoolBackend(2) as pool:
            for backend in (None, pool):
                for machines in (1, 4):
                    runtime = runtime_cls(index, machines, backend=backend)
                    assert_one_row_equals_batches(runtime, nodes)
            router = ShardRouter([[index, index]] * 2, backend=pool)
            # RouteInfo names the replica round-robin picked: not compared.
            assert_one_row_equals_batches(router, nodes, meta=False)
            router.close()

    def test_router_matches_serial(self, gpa_small):
        nodes = _query_nodes(gpa_small.graph.num_nodes, size=30, seed=1)
        serial = ShardRouter([[gpa_small, gpa_small]] * 2)
        d0, i0 = serial.query_many(nodes)
        s0, _ = serial.query_many_sparse(nodes)
        ids0, scores0, _ = serial.query_many_topk(nodes, 5, sparse=True)
        with ProcessPoolBackend(2) as pool:
            router = ShardRouter([[gpa_small, gpa_small]] * 2, backend=pool)
            d1, i1 = router.query_many(nodes)
            s1, _ = router.query_many_sparse(nodes)
            ids1, scores1, _ = router.query_many_topk(nodes, 5, sparse=True)
            assert np.array_equal(d0, d1)
            assert_csr_bitwise(s0, s1)
            assert np.array_equal(ids0, ids1)
            assert np.array_equal(scores0, scores1)
            assert i0 == i1  # same replica picks, same epochs
            assert serial.meter.total_bytes == router.meter.total_bytes

    def test_router_update_then_query_matches_serial(self, gpa_small):
        nodes = _query_nodes(gpa_small.graph.num_nodes, size=16, seed=2)
        update = EdgeUpdate.insert(0, gpa_small.graph.num_nodes - 1)
        serial = ShardRouter([[gpa_small]])
        serial.apply_update(update)
        d0, _ = serial.query_many(nodes)
        with ProcessPoolBackend(2) as pool:
            router = ShardRouter([[gpa_small]], backend=pool)
            router.query_many(nodes)  # publish the epoch-0 engine first
            receipt = router.apply_update(update)
            d1, infos = router.query_many(nodes)
            assert np.array_equal(d0, d1)
            if receipt.changed:
                assert all(info.epoch == 1 for info in infos)


    def test_pool_forked_after_threaded_solves_serves_the_index(self, gpa_small):
        """A pool forked after a build and an update, both solved on
        threads, serves the updated index's rows bit for bit."""
        update = EdgeUpdate.insert(0, gpa_small.graph.num_nodes - 1)
        index, receipt = apply_edge_update(gpa_small, update)
        assert receipt.changed
        nodes = _query_nodes(index.graph.num_nodes, size=16, seed=8)
        with ProcessPoolBackend(2) as pool:
            router = ShardRouter([[index, index]], backend=pool)
            dense, _ = router.query_many(nodes)
            assert np.array_equal(dense, index.query_many(nodes)[0])
            sparse, _ = router.query_many_sparse(nodes)
            assert_csr_bitwise(sparse, index.query_many_sparse(nodes)[0])
            router.close()

    @pytest.mark.parametrize("alpha", [0.15, 0.2, 0.85])
    def test_one_machine_deployment_equals_its_index(self, alpha):
        """An index *is* the one-machine deployment: same evaluator, every
        hub owned, scaled by the same ``* (1/alpha)`` — so the answers are
        bitwise equal for every alpha, on either backend, and so is a
        pool-backed router over the index (``x / alpha`` on the machine
        side used to differ from the index at alpha = 0.2)."""
        g = hierarchical_community_digraph(
            120, avg_out_degree=3, seed=4
        ).with_dangling_policy("self_loop")
        nodes = np.arange(0, 120, 5)
        with ProcessPoolBackend(2) as pool:
            for index, runtime_cls in (
                (build_gpa_index(g, 3, alpha=alpha, tol=1e-6, seed=0), DistributedGPA),
                (build_hgpa_index(g, alpha=alpha, tol=1e-6, seed=0), DistributedHGPA),
            ):
                dense, stats = index.query_many(nodes)
                sparse, _ = index.query_many_sparse(nodes)
                for backend in (None, pool):
                    one = runtime_cls(index, 1, backend=backend)
                    d1, reports = one.query_many(nodes)
                    s1, _ = one.query_many_sparse(nodes)
                    assert np.array_equal(d1, dense)
                    assert_csr_bitwise(s1, sparse)
                    assert [r.per_machine_entries for r in reports] == [
                        [s.entries_processed] for s in stats
                    ]
                router = ShardRouter([[index, index]] * 2, backend=pool)
                assert np.array_equal(router.query_many(nodes)[0], dense)
                assert_csr_bitwise(router.query_many_sparse(nodes)[0], sparse)
                router.close()


class TestFailover:
    def _router(self, engine, pool):
        return ShardRouter([[engine, engine]], backend=pool)

    def test_worker_death_mid_batch_retries_in_place(self, gpa_small, pool):
        # A transient worker death is retried once on the same replica:
        # the execution key re-registers round-robin on the pool's next
        # (healthy) worker, so the victim replica recovers in place
        # instead of being marked down.
        nodes = _query_nodes(gpa_small.graph.num_nodes, size=20, seed=3)
        d0, _ = ShardRouter([[gpa_small, gpa_small]]).query_many(nodes)
        router = self._router(gpa_small, pool)
        shard = router.shards[0]
        plan = shard.query_many_submit(nodes)
        victim = plan.replica
        worker = pool._assignment[victim._exec_key]
        worker.proc.kill()
        worker.proc.join()
        out, infos = shard.query_many_finish(plan)
        assert victim.is_up(shard.clock.now())
        assert all(info.replica == victim.replica_id for info in infos)
        assert router.res_stats.worker_retries == 1
        assert np.array_equal(out, d0)

    def test_worker_death_on_submit_fails_over(self, gpa_small, pool):
        nodes = _query_nodes(gpa_small.graph.num_nodes, size=12, seed=4)
        router = self._router(gpa_small, pool)
        shard = router.shards[0]
        shard.query_many(nodes)  # register both replicas' worker states
        shard.query_many(nodes)
        victim = shard.replicas[0]
        worker = pool._assignment[victim._exec_key]
        worker.proc.kill()
        worker.proc.join()
        out, infos = shard.query_many(nodes)
        assert not victim.is_up(shard.clock.now())
        assert all(info.replica == 1 for info in infos)

    def test_every_replica_down_raises(self, gpa_small, pool):
        nodes = _query_nodes(gpa_small.graph.num_nodes, size=8, seed=5)
        router = self._router(gpa_small, pool)
        router.query_many(nodes)
        for worker in pool._workers:
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
        with pytest.raises(ShardingError, match="marked down"):
            router.shards[0].query_many(nodes)

    def test_dead_worker_future_raises_worker_died(self, pool):
        pool.register("sleeper", _sleepy_builder)
        future = pool.submit("sleeper", "nap", 60.0)
        worker = pool._assignment["sleeper"]
        worker.proc.kill()
        worker.proc.join()
        with pytest.raises(WorkerDied):
            future.result()


class _Tap:
    """A parent-side pipe end that keeps every message it receives."""

    def __init__(self, conn):
        self.conn = conn
        self.got = []

    def __getattr__(self, name):
        return getattr(self.conn, name)

    def recv(self):
        msg = self.conn.recv()
        self.got.append(msg)
        return msg


def _reply_shapes(index, backend):
    """One key per kind of share on ``backend``: a replica's dense and
    sparse ``serve`` and a runtime machine's, as ``(key, method, *args
    after the nodes)``.  The runtime is returned too: its machine key
    lives as long as it does."""
    if backend.is_local:
        host = ShareHost(index._share())
        builder = lambda: host  # noqa: E731
    else:
        builder = engine_builder(SimpleNamespace(engine=index), backend)
    backend.register("dense", builder)
    backend.register("sparse", builder)
    runtime = DistributedGPA(index, 2, backend=backend)
    tasks = [
        ("dense", "serve", False),
        ("sparse", "serve", True),
        (runtime._exec_key(0), "serve", False),
    ]
    return runtime, tasks


def _assert_reply_bitwise(got, want) -> None:
    """Equal bit for bit, but for the trailing compute wall."""
    assert len(got) == len(want)
    for a, b in zip(got[:-1], want[:-1]):
        if hasattr(a, "indptr"):
            assert_csr_bitwise(a, b)
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestReplyRing:
    """Replies ride each worker's ring of ``SLOTS`` shared slots; only
    the in-band pickle and the slot spans cross the pipe."""

    def _round_trip(self, index):
        """More tasks than slots in flight on one worker, resolved in
        reverse, against the serial answers; returns the pipe messages."""
        n = index.graph.num_nodes
        batches = [_query_nodes(n, size=24, seed=seed) for seed in range(3)]
        serial = SerialBackend()
        _keep, tasks = _reply_shapes(index, serial)
        want = [
            serial.submit(key, method, nodes, *args).result()
            for nodes in batches
            for key, method, *args in tasks
        ]
        with ProcessPoolBackend(1) as pool:
            _keep, tasks = _reply_shapes(index, pool)
            worker = pool._workers[0]
            worker.conn = tap = _Tap(worker.conn)
            futures = [
                pool.submit(key, method, nodes, *args)
                for nodes in batches
                for key, method, *args in tasks
            ]
            assert len(futures) > exec_backend.SLOTS
            got = [future.result() for future in reversed(futures)][::-1]
            for reply, expected in zip(got, want):
                _assert_reply_bitwise(reply, expected)
            # Every block is private: writing one changes no other reply,
            # resolved before it or after.
            block = got[0][0]
            assert block.flags.writeable
            block[...] = -1.0
            for reply, expected in zip(got[1:], want[1:]):
                _assert_reply_bitwise(reply, expected)
            again = pool.submit("dense", "serve", batches[0], False).result()
            _assert_reply_bitwise(again, want[0])
            return tap.got

    def test_replies_survive_slot_reuse(self, gpa_small):
        messages = self._round_trip(gpa_small)
        assert max(len(data) for data, _spans in messages) < 1024

    def test_reply_larger_than_a_slot_stays_in_band(self, gpa_small, monkeypatch):
        # Patched before the pool forks: the ring and the worker both
        # see the small slots, and a dense block no longer fits one.
        monkeypatch.setattr(exec_backend, "SLOT_BYTES", 4096)
        messages = self._round_trip(gpa_small)
        assert max(len(data) for data, _spans in messages) > 4096

    def test_only_a_header_crosses_the_pipe(self, gpa_small):
        n = gpa_small.graph.num_nodes
        nodes = _query_nodes(n, size=256, seed=8)
        with ProcessPoolBackend(1) as pool:
            pool.register(
                "dense", engine_builder(SimpleNamespace(engine=gpa_small), pool)
            )
            worker = pool._workers[0]
            worker.conn = tap = _Tap(worker.conn)
            block, _wall = pool.submit("dense", "serve", nodes, False).result()
        assert block.shape == (256, n) and block.dtype == np.float64
        (message,) = tap.got
        assert len(pickle.dumps(message)) < 1024

    def test_worker_death_with_every_slot_outstanding_raises(self):
        with ProcessPoolBackend(1) as pool:
            pool.register("sleeper", _sleepy_builder)
            futures = [
                pool.submit("sleeper", "nap", 60.0)
                for _ in range(exec_backend.SLOTS)
            ]
            worker = pool._workers[0]
            worker.proc.kill()
            worker.proc.join()
            t0 = time.perf_counter()
            with pytest.raises(WorkerDied):
                pool.submit("sleeper", "nap", 0.0)
            for future in futures:
                with pytest.raises(WorkerDied):
                    future.result()
            assert time.perf_counter() - t0 < 10.0
