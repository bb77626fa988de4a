"""The one packed layout of stored vectors (``repro.core.stacked``).

Every set of stored vectors — stacked query ops, a machine's hub store,
a worker arena's own vectors, an HGPA archive — is packed and unpacked
by this module, so its round trips, its zero-copy views and the exact
scipy matrices it builds are checked here once, over generated vector
lists (``None`` entries, empty vectors and empty lists included).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SparseVec
from repro.core.persistence import load_hgpa_index, save_hgpa_index
from repro.core.stacked import (
    pack_store,
    pack_vectors,
    rows_matrix,
    stack_columns,
    unpack_store,
    unpack_vectors,
)
from repro.distributed import DistributedGPA, DistributedHGPA

N = 40


@st.composite
def sparse_vecs(draw):
    idx = draw(st.lists(st.integers(0, N - 1), max_size=8, unique=True))
    val = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False).filter(bool),
            min_size=len(idx),
            max_size=len(idx),
        )
    )
    return SparseVec(np.asarray(idx, dtype=np.int64), np.asarray(val))


vec_lists = st.lists(st.none() | sparse_vecs(), max_size=12)
held_lists = st.lists(sparse_vecs(), max_size=12)


def _held(vecs):
    return [SparseVec.empty() if v is None else v for v in vecs]


def _same_matrix(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestPackVectors:
    @settings(max_examples=80, deadline=None)
    @given(vec_lists)
    def test_round_trip(self, vecs):
        indptr, idx, val = pack_vectors(vecs)
        assert indptr.dtype == np.int64 and indptr.size == len(vecs) + 1
        assert idx.dtype == np.int64 and val.dtype == np.float64
        assert unpack_vectors(indptr, idx, val) == _held(vecs)

    @settings(max_examples=60, deadline=None)
    @given(vec_lists)
    def test_unpacked_are_read_only_views(self, vecs):
        indptr, idx, val = pack_vectors(vecs)
        for vec in unpack_vectors(indptr, idx, val):
            assert not vec.idx.flags.writeable and not vec.val.flags.writeable
            assert vec.idx.base is idx and vec.val.base is val
            if vec.nnz:
                assert np.shares_memory(vec.idx, idx)
                assert np.shares_memory(vec.val, val)
        assert idx.flags.writeable  # views freeze themselves, not the buffer


class TestStackers:
    """The stackers equal the matrices scipy builds from the plain
    concatenations (the layout every stacked-ops consumer relies on)."""

    @settings(max_examples=80, deadline=None)
    @given(held_lists)
    def test_columns(self, cols):
        if cols:
            want = sp.csc_matrix(
                (
                    np.concatenate([v.val for v in cols]),
                    np.concatenate([v.idx for v in cols]),
                    np.concatenate([[0], np.cumsum([v.nnz for v in cols])]),
                ),
                shape=(N, len(cols)),
            )
        else:
            want = sp.csc_matrix((N, 0))
        got = stack_columns(cols, N)
        _same_matrix(got, want)
        assert got.indices.dtype == np.int32  # scipy's index downcast

    @settings(max_examples=80, deadline=None)
    @given(vec_lists)
    def test_rows(self, vecs):
        counts = [0 if v is None else v.nnz for v in vecs]
        if any(counts):
            held = [v for v in vecs if v is not None and v.nnz]
            want = sp.csr_matrix(
                (
                    np.concatenate([v.val for v in held]),
                    np.concatenate([v.idx for v in held]),
                    np.concatenate([[0], np.cumsum(counts)]),
                ),
                shape=(len(vecs), N),
            )
        else:
            want = sp.csr_matrix((len(vecs), N))
        _same_matrix(rows_matrix(vecs, N), want)


class TestKeyedStore:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(0, 10**6), sparse_vecs(), max_size=10))
    def test_round_trip(self, store):
        ids, indptr, idx, val = pack_store(store)
        assert ids.dtype == np.int64 and ids.tolist() == sorted(store)
        back = unpack_store(ids, indptr, idx, val)
        assert list(back) == sorted(store)
        assert back == store

    def test_archive_writes_format_1(self, hgpa_small, tmp_path):
        path = tmp_path / "index.npz"
        save_hgpa_index(hgpa_small, path)
        meta = {
            "format_version": np.int64, "alpha": np.float64,
            "tol": np.float64, "prune": np.float64, "fanout": np.int64,
            "graph_indptr": hgpa_small.graph.indptr.dtype,
            "graph_indices": hgpa_small.graph.indices.dtype,
            "graph_name": np.array(hgpa_small.graph.name).dtype,
            "sub_levels": np.int64, "sub_parents": np.int64,
            "sub_node_counts": np.int64, "sub_hub_counts": np.int64,
            "sub_nodes": np.int64, "sub_hubs": np.int64,
        }
        per_store = {
            "keys": np.int64, "nnz": np.int64, "idx": np.int64,
            "val": np.float64, "cost": np.float64,
        }
        attrs = {"hub": "hub_partials", "skel": "skeleton_cols", "leaf": "leaf_ppv"}
        stores = {kind: getattr(hgpa_small, attr) for kind, attr in attrs.items()}
        for kind in stores:
            meta.update({f"{kind}_{f}": t for f, t in per_store.items()})
        with np.load(path) as data:
            assert data.files == list(meta)
            assert {k: data[k].dtype for k in data.files} == {
                k: np.dtype(t) for k, t in meta.items()
            }
            for kind, store in stores.items():
                keys = data[f"{kind}_keys"].tolist()
                assert keys == sorted(store)
                assert data[f"{kind}_nnz"].tolist() == [store[k].nnz for k in keys]
                assert np.array_equal(
                    data[f"{kind}_idx"], np.concatenate([store[k].idx for k in keys])
                )
        loaded = load_hgpa_index(path)
        for kind, store in stores.items():
            back = getattr(loaded, attrs[kind])
            assert list(back) == sorted(store) and back == store


@pytest.mark.parametrize("runtime", [DistributedGPA, DistributedHGPA])
def test_machine_hub_store_views_its_stacked_csc(runtime, gpa_small, hgpa_small):
    """A machine binds its hub partials to its stacked CSC's ``indices``
    and ``data``, exactly as a worker does — no index copy of its own."""
    index = gpa_small if runtime is DistributedGPA else hgpa_small
    dep = runtime(index, 3)
    dep.query_many(np.arange(index.graph.num_nodes))
    ops_cache = dep._machine_ops if runtime is DistributedGPA else dep._level_ops
    checked = 0
    for key, (owned, part_csc, _, _) in ops_cache.items():
        mid = key if runtime is DistributedGPA else key[0]
        for h in owned.tolist():
            stored = dep.machines[mid].store[("hub", h)]
            assert stored == index.hub_partials[h]
            if stored.nnz:
                assert np.shares_memory(stored.idx, part_csc.indices)
                assert np.shares_memory(stored.val, part_csc.data)
                checked += 1
    assert checked
