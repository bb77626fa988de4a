"""Tests for the simulated cluster and the distributed GPA/HGPA runtimes.

The contracts under test are the paper's headline properties: distributed
results equal centralized ones, each machine communicates with the
coordinator exactly once per query (Theorem 4's O(n·|V|) bound), storage
partitions without duplication, and pre-computation splits evenly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SparseVec
from repro.core.flat_index import FlatShare, stack_ops
from repro.core.hgpa import HGPAShare
from repro.core.updates import EdgeUpdate, apply_edge_update
from repro.distributed import (
    DEFAULT_COST_MODEL,
    CostModel,
    DistributedGPA,
    DistributedHGPA,
    Machine,
    NetworkMeter,
    precompute_report,
)
from repro.errors import ClusterError, QueryError

from conftest import EXACT_ATOL
from test_updates import _deletable_edge, _missing_edge


@pytest.fixture(scope="module")
def dist_hgpa(request):
    index = request.getfixturevalue("hgpa_small")
    return DistributedHGPA(index, 4)


@pytest.fixture(scope="module")
def dist_gpa(request):
    index = request.getfixturevalue("gpa_small")
    return DistributedGPA(index, 4)


class TestMachine:
    def test_put_get(self):
        m = Machine(0)
        vec = SparseVec.one_hot(3)
        m.put(("hub", 3), vec, build_seconds=0.5)
        assert m.get(("hub", 3)) is vec
        assert m.offline_seconds == 0.5
        assert m.stored_bytes == vec.wire_bytes
        assert m.stored_vectors == 1

    def test_duplicate_key_rejected(self):
        m = Machine(0)
        m.put(("hub", 1), SparseVec.one_hot(1))
        with pytest.raises(ClusterError):
            m.put(("hub", 1), SparseVec.one_hot(1))

    def test_missing_key(self):
        with pytest.raises(ClusterError):
            Machine(0).get(("hub", 9))


class TestNetworkMeter:
    def test_accounting(self):
        meter = NetworkMeter()
        meter.record("machine-0", "coordinator", 1024)
        meter.record("machine-1", "coordinator", 1024)
        assert meter.total_bytes == 2048
        assert meter.total_messages == 2
        assert meter.total_kilobytes == pytest.approx(2.0)
        meter.reset()
        assert meter.total_bytes == 0


class TestCostModel:
    def test_monotone(self):
        cm = CostModel()
        assert cm.compute_seconds(2_000_000) > cm.compute_seconds(1_000)
        assert cm.transfer_seconds(10_000, 1) > cm.transfer_seconds(100, 1)

    def test_latency_per_message(self):
        cm = CostModel(latency_seconds=0.01)
        assert cm.transfer_seconds(0, 5) == pytest.approx(0.05)


class TestDistributedCorrectness:
    @pytest.mark.parametrize("u", [0, 42, 150, 199])
    def test_hgpa_equals_centralized(self, dist_hgpa, hgpa_small, u):
        vec, _ = dist_hgpa.query(u)
        np.testing.assert_allclose(vec, hgpa_small.query(u), atol=1e-9)

    @pytest.mark.parametrize("u", [0, 42, 150, 199])
    def test_gpa_equals_centralized(self, dist_gpa, gpa_small, u):
        vec, _ = dist_gpa.query(u)
        np.testing.assert_allclose(vec, gpa_small.query(u), atol=1e-9)

    def test_hub_query_distributed(self, dist_hgpa, reference_ppv):
        hub = int(dist_hgpa.index.hierarchy.hub_nodes()[0])
        vec, _ = dist_hgpa.query(hub)
        assert np.abs(vec - reference_ppv(hub)).max() < EXACT_ATOL

    @pytest.mark.parametrize("machines", [1, 2, 7])
    def test_any_machine_count(self, hgpa_small, reference_ppv, machines):
        dep = DistributedHGPA(hgpa_small, machines)
        vec, _ = dep.query(33)
        assert np.abs(vec - reference_ppv(33)).max() < EXACT_ATOL

    def test_bad_query(self, dist_hgpa, dist_gpa):
        for dep in (dist_hgpa, dist_gpa):
            with pytest.raises(QueryError):
                dep.query(12_345)


class TestCommunicationBound:
    def test_one_message_per_machine(self, dist_hgpa):
        dist_hgpa.coordinator.meter.reset()
        _, report = dist_hgpa.query(10)
        # one payload per machine + the tiny broadcast
        assert len(report.per_machine_bytes) == dist_hgpa.num_machines
        assert dist_hgpa.coordinator.meter.total_messages == 2 * dist_hgpa.num_machines

    def test_theorem4_bound(self, dist_hgpa):
        """Each machine's vector has at most |V| entries: O(n·|V|) total."""
        _, report = dist_hgpa.query(10)
        n = dist_hgpa.num_nodes
        per_vector_cap = 16 + 12 * n
        for nbytes in report.per_machine_bytes:
            assert nbytes <= per_vector_cap
        assert report.communication_bytes <= dist_hgpa.num_machines * (
            per_vector_cap + 8
        )

    def test_report_fields(self, dist_hgpa):
        _, report = dist_hgpa.query(77)
        assert report.runtime_seconds > 0
        assert report.wall_seconds > 0
        assert report.communication_kb == report.communication_bytes / 1024
        assert report.load_imbalance >= 1.0


class TestFinishQueryPairing:
    def test_metrics_keyed_by_machine_id(self):
        """Regression: entries and bytes must pair by machine id even when
        ``machines`` is not sorted by id (the old code zipped a
        machines-ordered list against a sorted-key list)."""
        from repro.distributed.cluster import ClusterBase
        from repro.distributed.coordinator import Coordinator

        cb = ClusterBase(num_nodes=4)
        cb.machines = [Machine(2), Machine(0), Machine(1)]  # shuffled on purpose
        cb.coordinator = Coordinator(num_nodes=4)
        entries = {2: 2_000_000, 0: 0, 1: 10}
        partials = {
            0: np.array([1.0, 2.0, 3.0, 4.0]),  # 4 entries -> most bytes
            1: np.array([1.0, 0.0, 0.0, 0.0]),
            2: np.array([0.0, 0.0, 0.0, 0.0]),  # heavy compute, empty vector
        }
        result, report = cb._finish_query(
            5, dict(partials), {}, entries_by_machine=entries
        )
        np.testing.assert_allclose(result, sum(partials.values()))
        # Lists are ordered by ascending machine id.
        assert report.per_machine_entries == [0, 10, 2_000_000]
        assert report.per_machine_bytes == [16 + 12 * 4, 16 + 12 * 1, 16]
        # The paper runtime pairs machine 2's compute with *its own* bytes.
        expected = max(
            DEFAULT_COST_MODEL.compute_seconds(entries[mid])
            + DEFAULT_COST_MODEL.transfer_seconds(report.per_machine_bytes[mid], 1)
            for mid in (0, 1, 2)
        )
        assert report.runtime_seconds == pytest.approx(expected)

    def test_entries_override(self):
        from repro.distributed.cluster import ClusterBase
        from repro.distributed.coordinator import Coordinator

        cb = ClusterBase(num_nodes=2)
        cb.machines = [Machine(0), Machine(1)]
        cb.coordinator = Coordinator(num_nodes=2)
        partials = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        _, report = cb._finish_query(
            0, partials, {}, entries_by_machine={0: 7, 1: 9}
        )
        assert report.per_machine_entries == [7, 9]


class TestOwnershipPrecompute:
    def test_gpa_owned_hub_lists(self, dist_gpa):
        seen = {}
        for mid in sorted(dist_gpa._machine_owned):
            owned, part_csc, skel_csr, nnz = dist_gpa._ops_for(mid)
            assert np.all(np.diff(owned) > 0)  # sorted, unique
            assert part_csc.shape == (dist_gpa.num_nodes, owned.size)
            assert skel_csr.shape == (dist_gpa.num_nodes, owned.size)
            assert nnz.size == owned.size
            for h in owned.tolist():
                assert dist_gpa._hub_owner[h] == mid
                seen[h] = mid
        assert set(seen) == set(dist_gpa.index.hub_partials)

    def test_hgpa_owned_level_lists(self, dist_hgpa):
        seen = set()
        for (mid, sid), owned in dist_hgpa._level_owned.items():
            sg = dist_hgpa.index.hierarchy.subgraphs[sid]
            assert np.all(np.isin(owned, sg.hubs))
            assert np.all(np.diff(owned) > 0)
            ops = dist_hgpa._ops_for(mid, sid)
            assert ops is not None and ops[1].shape[1] == owned.size
            for h in owned.tolist():
                assert dist_hgpa._hub_owner[h] == mid
                seen.add(h)
        assert seen == set(dist_hgpa.index.hub_partials)

    def test_stacked_ops_lazy(self, gpa_small, hgpa_small):
        """_deploy must not build the stacked matmul buffers: they appear
        on first query (and only for the levels that query touches)."""
        gpa = DistributedGPA(gpa_small, 3)
        assert gpa._machine_ops == {}
        out, _ = gpa.query_many([0, 5])
        assert set(gpa._machine_ops) == set(gpa._machine_owned)
        np.testing.assert_allclose(out[0], gpa_small.query(0), atol=EXACT_ATOL)

        hgpa = DistributedHGPA(hgpa_small, 3)
        assert hgpa._level_ops == {}
        vec, _ = hgpa.query(7)
        assert 0 < len(hgpa._level_ops) <= len(hgpa._level_owned)
        np.testing.assert_allclose(vec, hgpa_small.query(7), atol=EXACT_ATOL)

    def test_owner_maps_cover_all_nodes(self, dist_gpa, dist_hgpa):
        for runtime in (dist_gpa, dist_hgpa):
            owners = runtime.owner_map()
            assert owners.shape == (runtime.num_nodes,)
            assert owners.min() >= 0 and owners.max() < runtime.num_machines
        for h, mid in dist_gpa._hub_owner.items():
            assert dist_gpa.owner_map()[h] == mid
        for u, mid in dist_hgpa._own_owner.items():
            assert dist_hgpa.owner_map()[u] == mid


def _assert_shares_sum_to(shares, index, nodes):
    """The shares' rows sum to the index's rows (bitwise when there is one
    share), their ``work`` entries sum to the index's ``entries_processed``,
    each share's sparse form equals its own dense form and does the same
    work but for the lookups, and a batch's work is its nodes' — for a
    batch and, through ``row``, for every node of it asked alone."""
    for u in nodes.tolist():
        rows = [share.row(u) for share in shares]
        _, stats = index.query_detailed(u)
        np.testing.assert_allclose(
            sum(rows), index.query(u), rtol=0, atol=1e-12
        )
        work = [share.work(np.asarray([u]), False) for share in shares]
        assert sum(int(w[0, 0]) for w in work) == stats.entries_processed
        for share, vec in zip(shares, rows):
            for sparse in (False, True):
                block = share.evaluate([u], sparse=sparse)
                if sparse:
                    block = block.toarray()
                assert np.array_equal(block, vec[None])
    dense, stats = index.query_many(nodes)
    parts = [share.evaluate(nodes, sparse=False) for share in shares]
    total = sum(parts)
    if len(shares) == 1:
        assert np.array_equal(total, dense)
    np.testing.assert_allclose(total, dense, rtol=0, atol=1e-12)
    work = [share.work(nodes, False) for share in shares]
    assert sum(w[0] for w in work).tolist() == [s.entries_processed for s in stats]
    for share, rows, dense_work in zip(shares, parts, work):
        sparse_rows = share.evaluate(nodes, sparse=True)
        assert np.array_equal(sparse_rows.toarray(), rows)
        sparse_work = share.work(nodes, True)
        assert np.array_equal(sparse_work[:2], dense_work[:2])
        for form, block in ((False, dense_work), (True, sparse_work)):
            alone = [share.work(nodes[k : k + 1], form) for k in range(nodes.size)]
            assert np.array_equal(np.hstack(alone), block)


_WORK_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
_SPLIT_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestHubSplits:
    """A machine's answer is a share of one sum (Eq. 5, Theorem 4), not a
    second algorithm: *any* split of the hubs and own vectors over the
    machines — not just the runtimes' round-robin — sums to the index."""

    @settings(**_SPLIT_SETTINGS)
    @given(machines=st.integers(1, 5), seed=st.integers(0, 10_000))
    def test_any_flat_split_sums_to_the_index(self, gpa_small, machines, seed):
        index, rng = gpa_small, np.random.default_rng(seed)
        n = index.graph.num_nodes
        hub_machine = rng.integers(0, machines, index.hubs.size)
        own_machine = rng.integers(0, machines, n)
        stores = (index.hub_partials, index.node_partials)

        def own_of(mid):
            return lambda hub, u: (
                stores[0 if hub else 1][u] if own_machine[u] == mid else None
            )

        shares = [
            FlatShare(
                stack_ops(
                    index.hubs[hub_machine == mid],
                    index.hub_partials,
                    index.skeleton_cols,
                    n,
                ),
                index.hubs,
                own_of(mid),
                index.alpha,
            )
            for mid in range(machines)
        ]
        nodes = rng.integers(0, n, 12)
        nodes[:3] = rng.choice(index.hubs, 3)  # hub queries too
        _assert_shares_sum_to(shares, index, nodes)

    @settings(**_SPLIT_SETTINGS)
    @given(machines=st.integers(1, 5), seed=st.integers(0, 10_000))
    def test_any_hgpa_split_sums_to_the_index(self, hgpa_small, machines, seed):
        index, rng = hgpa_small, np.random.default_rng(seed)
        n = index.graph.num_nodes
        own_machine = rng.integers(0, machines, n)  # hubs: their level's share
        stores = (index.hub_partials, index.leaf_ppv)

        def share_of(mid):
            level_ops = {}
            for sg in index.hierarchy.subgraphs:
                owned = sg.hubs[own_machine[sg.hubs] == mid]
                if owned.size:
                    level_ops[sg.node_id] = stack_ops(
                        owned, index.hub_partials, index.skeleton_cols, n
                    )
            return HGPAShare(
                index.hierarchy,
                level_ops.get,
                lambda hub, u: (
                    stores[0 if hub else 1][u] if own_machine[u] == mid else None
                ),
                index.alpha,
                n,
            )

        hubs = np.asarray(sorted(index.hub_partials))
        nodes = rng.integers(0, n, 12)
        nodes[:3] = rng.choice(hubs, 3)  # hub queries too
        _assert_shares_sum_to(
            [share_of(mid) for mid in range(machines)], index, nodes
        )

    @settings(**_SPLIT_SETTINGS)
    @given(machines=st.integers(1, 5), seed=st.integers(0, 10_000))
    def test_batched_reports_equal_per_query_reports(
        self, gpa_small, hgpa_small, machines, seed
    ):
        rng = np.random.default_rng(seed)
        for index, runtime_cls in (
            (gpa_small, DistributedGPA),
            (hgpa_small, DistributedHGPA),
        ):
            runtime = runtime_cls(index, machines)
            nodes = rng.integers(0, index.graph.num_nodes, 6)
            out, reports = runtime.query_many(nodes)
            _, sparse_reports = runtime.query_many_sparse(nodes)
            np.testing.assert_allclose(
                out, index.query_many(nodes)[0], rtol=0, atol=1e-12
            )
            for k, u in enumerate(nodes.tolist()):
                vec, one = runtime.query(u)
                np.testing.assert_allclose(vec, out[k], rtol=0, atol=1e-12)
                for report in (reports[k], sparse_reports[k]):
                    assert report.query == one.query == u
                    assert report.per_machine_entries == one.per_machine_entries
                    assert report.per_machine_bytes == one.per_machine_bytes
                    assert report.communication_bytes == one.communication_bytes


def _flat_reference(index, u, sparse):
    """``FlatPPVIndex.query_reference``'s counters for ``u``; in the
    sparse form the lookups are the stored skeleton entries at ``u``."""
    _, ref = index.query_reference(u)
    lookups = ref.skeleton_lookups
    if sparse:
        cols = [index.skeleton_cols[h] for h in index.hubs.tolist()]
        lookups = sum(int((col.idx == u).any()) for col in cols)
    return [ref.entries_processed, ref.vectors_used, lookups]


def _hgpa_reference(index, u, sparse):
    """``HGPAIndex.query_detailed``'s counters for ``u``, the sparse
    lookups counted along its chain."""
    _, ref = index.query_detailed(u)
    lookups = ref.skeleton_lookups
    if sparse:
        hubs = [h for sg in index.hierarchy.chain(u) for h in sg.hubs.tolist()]
        cols = [index.skeleton_cols[h] for h in hubs]
        lookups = sum(int((col.idx == u).any()) for col in cols)
    return [ref.entries_processed, ref.vectors_used, lookups]


class TestWorkOracles:
    """``HubShare.work`` counts what the hub-by-hub references count, on
    indexes moved by edge updates, and a runtime's per-machine entries sum
    to the index's."""

    def _check(self, index, runtime_cls, reference, machines, rng):
        n = index.graph.num_nodes
        hubs = np.asarray(sorted(index.hub_partials), dtype=np.int64)
        nodes = rng.integers(0, n, 40)
        nodes[:5] = rng.choice(hubs, 5)  # hub queries too
        share = index._share()
        for sparse in (False, True):
            want = [reference(index, u, sparse) for u in nodes.tolist()]
            assert share.work(nodes, sparse).T.tolist() == want
        _, reports = runtime_cls(index, machines).query_many(nodes)
        entries = [reference(index, u, False)[0] for u in nodes.tolist()]
        assert [sum(r.per_machine_entries) for r in reports] == entries

    def _run(self, index, runtime_cls, reference, machines, ops, seed):
        rng = np.random.default_rng(seed)
        self._check(index, runtime_cls, reference, machines, rng)
        for op in ops:
            pick = _missing_edge if op == "insert" else _deletable_edge
            u, v = pick(index.graph, rng)
            index, _ = apply_edge_update(index, EdgeUpdate(op, u, v))
            self._check(index, runtime_cls, reference, machines, rng)

    @settings(**_WORK_SETTINGS)
    @given(
        machines=st.integers(1, 4),
        ops=st.lists(st.sampled_from(["insert", "delete"]), max_size=2),
        seed=st.integers(0, 10_000),
    )
    def test_flat_work_is_the_reference_count(self, gpa_small, machines, ops, seed):
        self._run(gpa_small, DistributedGPA, _flat_reference, machines, ops, seed)

    @settings(**_WORK_SETTINGS)
    @given(
        machines=st.integers(1, 4),
        ops=st.lists(st.sampled_from(["insert", "delete"]), max_size=2),
        seed=st.integers(0, 10_000),
    )
    def test_hgpa_work_is_the_reference_count(self, hgpa_small, machines, ops, seed):
        self._run(hgpa_small, DistributedHGPA, _hgpa_reference, machines, ops, seed)


class TestDeployment:
    def test_validate(self, dist_hgpa, dist_gpa):
        dist_hgpa.validate_deployment()
        dist_gpa.validate_deployment()

    def test_no_duplicated_storage(self, hgpa_small):
        dep = DistributedHGPA(hgpa_small, 3)
        assert dep.total_stored_bytes() == hgpa_small.total_bytes()

    def test_space_shrinks_with_machines(self, hgpa_small):
        small = DistributedHGPA(hgpa_small, 2).max_machine_bytes()
        large = DistributedHGPA(hgpa_small, 8).max_machine_bytes()
        assert large < small

    def test_offline_split(self, hgpa_small):
        dep = DistributedHGPA(hgpa_small, 4)
        report = precompute_report(dep)
        assert report.num_machines == 4
        assert report.makespan_seconds <= report.total_seconds
        assert report.total_seconds == pytest.approx(
            hgpa_small.offline_seconds(), rel=1e-6
        )
        assert 0.0 < report.parallel_efficiency <= 1.0

    def test_offline_makespan_shrinks(self, hgpa_small):
        m2 = precompute_report(DistributedHGPA(hgpa_small, 2)).makespan_seconds
        m8 = precompute_report(DistributedHGPA(hgpa_small, 8)).makespan_seconds
        assert m8 < m2

    def test_cluster_needs_machines(self, hgpa_small):
        with pytest.raises(ClusterError):
            DistributedHGPA(hgpa_small, 0)


class TestWireVersion:
    """The runtimes' ``wire_version=2`` flag: identical answers, int64-id
    payloads on the machine→coordinator leg (16 bytes/entry vs 12)."""

    @pytest.mark.parametrize("runtime_cls", [DistributedGPA, DistributedHGPA])
    def test_v2_results_identical_bytes_larger(self, request, runtime_cls):
        index = request.getfixturevalue(
            "gpa_small" if runtime_cls is DistributedGPA else "hgpa_small"
        )
        nodes = np.arange(0, 12)
        v1 = runtime_cls(index, 4)
        v2 = runtime_cls(index, 4, wire_version=2)
        d1, rep1 = v1.query_many(nodes)
        d2, rep2 = v2.query_many(nodes)
        assert np.array_equal(d1, d2)
        m1, _ = v1.query_many_sparse(nodes)
        m2, _ = v2.query_many_sparse(nodes)
        assert np.array_equal(m1.toarray(), m2.toarray())
        total_v1 = sum(r.communication_bytes for r in rep1)
        total_v2 = sum(r.communication_bytes for r in rep2)
        assert total_v2 > total_v1  # 16-byte entries vs 12-byte
