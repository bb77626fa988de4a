"""Golden digests of every work counter the engines report.

The rows are the answer; the counters are what the paper measures about
computing it — entries combined, vectors used, skeleton lookups, the
per-machine entries and bytes of a distributed query, the network meter —
and they are pure functions of the stored index and the query.  The
digests below pin them exactly, so a change to *how* they are computed
cannot move them:

* every :class:`QueryStats` field;
* every :class:`QueryReport` field except the measured ``wall_seconds``;
* FastPPV's ``expansions`` and ``residual_mass`` (its wall aside);
* a runtime's coordinator meter, bytes and messages, per call.

Each engine is asked for both result forms at batch sizes 1, 2, 63, 64
and 300 (the one-row path, the smallest batch body, both sides of HGPA's
64-row loop threshold, and a batch cut into ``DEFAULT_BATCH`` chunks),
and once per node through its one-query verb (``query_detailed`` /
``query``).  The engines are the serving contract's matrix and the
``web`` indexes of ``tests/test_golden_build.py`` with 4-machine
runtimes, also after that file's ``UPDATES`` applied through the
runtimes.  The digests were computed at commit ``3252e05``, when every
read body still counted its own work.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from test_golden_build import UPDATES, web_graph

from repro.approx import build_fastppv_index
from repro.core import build_gpa_index, build_hgpa_index
from repro.core.updates import EdgeUpdate
from repro.distributed import DistributedGPA, DistributedHGPA

SIZES = (1, 2, 63, 64, 300)
# FastPPV expands each query's frontier in Python (~5 ms a row) and makes
# its records before it picks the result form, so its sparse form is
# asked only at the sizes that take different paths through ``_rows``.
FAST_SPARSE_SIZES = (1, 2)
ONE = 8  # nodes asked alone through the one-query verb

# sha256 per (engine, verb): see :func:`counters_digest` / :func:`one_digest`.
DIGESTS = {
    "jw_small/dense": "191f7bb4a8327c9a709cd7bc54c857603aeee800e4455e6c3bbc49129371c8a8",
    "jw_small/sparse": "191f7bb4a8327c9a709cd7bc54c857603aeee800e4455e6c3bbc49129371c8a8",
    "jw_small/one": "303b95b3174f26ad5d0ed898827f34f74fa484f76c3956882be92ccd3a8a08ae",
    "gpa_small/dense": "1cc493be33fafd571d6d8b1ffe41a14210431a64307bb7fb8d5baedcdfc5127d",
    "gpa_small/sparse": "1cc493be33fafd571d6d8b1ffe41a14210431a64307bb7fb8d5baedcdfc5127d",
    "gpa_small/one": "80d6458ecb6fda77d2870238fa7fb91134d67aca0e92a0deb47fb24f35124fd0",
    "hgpa_small/dense": "a7801593a1330b1654a098d0c90fcba5f4a0abb120a940529ff1b1d5221c9dfc",
    "hgpa_small/sparse": "76f7520d0bd8c9f14d98e8f457f55701327725d9ae9e0fcb69737c8b1c06d597",
    "hgpa_small/one": "f24e4102c73fc4fcb7b59c55cbb089e2eb12958b0f163d65b36ab6a23e8c2f4f",
    "fast_small/dense": "802bb0b14cfa26debdd0801e5a37a883c8ae7c0609b262bb9635f7ccffe6c012",
    "fast_small/sparse": "04b83dad82a2c99883f5230091f15de25880500075bdb48246c15c25a5fa026d",
    "fast_small/one": "60541efc0ef3b8260c592583d5811b1cc2434098ab76583c1faa1a95c4b9db45",
    "dist_gpa/dense": "50ebed0d8c09a6fa0829699709fe5cf38dc797783b7775973935b9a0dd33658e",
    "dist_gpa/sparse": "50ebed0d8c09a6fa0829699709fe5cf38dc797783b7775973935b9a0dd33658e",
    "dist_gpa/one": "1fae787d9b9861cd25b5529ba5ffd3b5b144059f5cf634ab7b41c5afa67a107e",
    "dist_hgpa/dense": "6a8a375aeab19f6b1a26bf867410cea5501753ebbc70de8292b9fd8b7c40fbfb",
    "dist_hgpa/sparse": "6a8a375aeab19f6b1a26bf867410cea5501753ebbc70de8292b9fd8b7c40fbfb",
    "dist_hgpa/one": "cde17b6a2168ff376647cefb00fe1ff5fbd1a35c778e7cd9f2d0a0d08f6f195e",
    "gpa_web/dense": "52319b97e45936c5d2588dee04bf3d8d4040674af41af4d8dd5c30835fe14e71",
    "gpa_web/sparse": "8678eb621fdcecb29a4f514fad9bb4067cdc416b3eb6480f9b88a9370ba3d913",
    "gpa_web/one": "90e728eab1813230a3a5853972141389c7fa61b65bea17c2c6316fe15d49fe30",
    "hgpa_web/dense": "2e5680ebaeba7943ca74870a28de57fa595aa7ab0771900cf6c90bcbd167f366",
    "hgpa_web/sparse": "1ff61f8f56392e65c95bcedc486cca095f4cb0c70b2a65dcb076b1d89cbee46b",
    "hgpa_web/one": "bda2139d409662e053864c59acd9f900ea8689cbd68c753b07499d6a654d5de3",
    "dist_gpa_web/dense": "c06b6cf17cf32abb4af12dca3a43890e70d416c246b63e6a374126bda3eb2af4",
    "dist_gpa_web/sparse": "c06b6cf17cf32abb4af12dca3a43890e70d416c246b63e6a374126bda3eb2af4",
    "dist_gpa_web/one": "53a9841db70eac3207089f541f92903b4f977b3ac4fa83bf8ba94aebb0d57d23",
    "dist_hgpa_web/dense": "1580a1ec987b55ab493dc82fe334694af6690d9dcf5ddc1cdcf188a57b5a089a",
    "dist_hgpa_web/sparse": "1580a1ec987b55ab493dc82fe334694af6690d9dcf5ddc1cdcf188a57b5a089a",
    "dist_hgpa_web/one": "5710d8dba294cbe9c4a2bcc39dcc6bb59398e7583bf5006297a3203d65f1d75c",
    "gpa_web_updated/dense": "d66a238dfb8b8c451284c26c70bed13e5af867a81eba2441ad5aede719719ea9",
    "gpa_web_updated/sparse": "049379f10b2de9ebdcd7e1b147685390ce499ba49bed9e103662d2e9b365ca4a",
    "gpa_web_updated/one": "823445e652a4042ed64b67bf9fd33a964ad511cca5fd9faa4efbeb5d48472340",
    "hgpa_web_updated/dense": "c2b9dca84d64b5dc5f9043da96033dbf21818e47bddeccaa529a38a7b1d7e4bf",
    "hgpa_web_updated/sparse": "c27ba5571d7f6bbc4976c69613b7bd7a833c99af1244dc8a80affa530f383289",
    "hgpa_web_updated/one": "a45db34070df52be7128935a3eaf2a20547725d6790e76e723fab8681370f2ee",
    "dist_gpa_web_updated/dense": "672357f57ee6122bd39b7bdf2cf295601adbb8dad40e3643bd05ec7fdaf668dd",
    "dist_gpa_web_updated/sparse": "672357f57ee6122bd39b7bdf2cf295601adbb8dad40e3643bd05ec7fdaf668dd",
    "dist_gpa_web_updated/one": "a7b2535e291b7a7e616a9f0d0ae7a237123757393093a662d1d269ff85b9be9b",
    "dist_hgpa_web_updated/dense": "d2c9ac40c86e300b32961d07a1a2da29dea1363747c4021eece30f7502e4ae10",
    "dist_hgpa_web_updated/sparse": "d2c9ac40c86e300b32961d07a1a2da29dea1363747c4021eece30f7502e4ae10",
    "dist_hgpa_web_updated/one": "5ff09bfb2c7d69bb30c99aceb8ba3103d9350a1a6fe3fabb9939d9a993839023",
}


def _hash_meta(sha, meta) -> None:
    """Every field of every record but ``wall_seconds``, by name, ints as
    int64 and floats as float64 bits."""
    for record in meta:
        for name, value in sorted(dataclasses.asdict(record).items()):
            if name == "wall_seconds":
                continue
            arr = np.asarray(value)
            dtype = np.float64 if arr.dtype.kind == "f" else np.int64
            sha.update(name.encode())
            sha.update(arr.astype(dtype).tobytes())


def _meter(engine) -> np.ndarray:
    coordinator = getattr(engine, "coordinator", None)
    if coordinator is None:
        return np.zeros(2, dtype=np.int64)
    meter = coordinator.meter
    return np.asarray([meter.total_bytes, meter.total_messages], dtype=np.int64)


def counters_digest(engine, nodes: np.ndarray, sparse: bool, sizes=SIZES) -> str:
    """The batch verb's records and meter movement at every size."""
    sha = hashlib.sha256()
    verb = engine.query_many_sparse if sparse else engine.query_many
    for size in sizes:
        before = _meter(engine)
        _, meta = verb(nodes[:size])
        assert len(meta) == size
        _hash_meta(sha, meta)
        sha.update((_meter(engine) - before).tobytes())
    return sha.hexdigest()


def one_digest(engine, nodes: np.ndarray) -> str:
    """The one-query verb's record and meter movement for ``ONE`` nodes."""
    sha = hashlib.sha256()
    one = getattr(engine, "query_detailed", None) or engine.query
    for u in nodes[:ONE].tolist():
        before = _meter(engine)
        _, meta = one(u)
        _hash_meta(sha, [meta])
        sha.update((_meter(engine) - before).tobytes())
    return sha.hexdigest()


def batch_nodes(engine) -> np.ndarray:
    """300 seeded nodes with hub queries among them (size 1 asks a
    non-hub, every larger size at least one hub)."""
    index = getattr(engine, "index", engine)
    hubs = np.asarray(sorted(index.hub_partials), dtype=np.int64)
    nodes = np.random.default_rng(46).integers(0, engine.num_nodes, 300)
    nodes = nodes[~np.isin(nodes, hubs)]
    nodes = np.resize(nodes, 300)
    nodes[[1, 5, 10, 62, 63, 299]] = hubs[:6]
    return nodes


# ----------------------------------------------------------------------
# The serving contract's engines (tests/test_serving.py::TestEngineContract)


@pytest.fixture(scope="module")
def fast_small(small_graph):
    return build_fastppv_index(small_graph, 25, tol=1e-6)


@pytest.fixture(scope="module")
def dist_gpa(gpa_small):
    return DistributedGPA(gpa_small, 3)


@pytest.fixture(scope="module")
def dist_hgpa(hgpa_small):
    return DistributedHGPA(hgpa_small, 3)


# ----------------------------------------------------------------------
# ``web`` (tests/test_golden_build.py), before and after its updates


@pytest.fixture(scope="module")
def web():
    return web_graph()


@pytest.fixture(scope="module")
def gpa_web(web):
    return build_gpa_index(web, 8, prune=1e-3)


@pytest.fixture(scope="module")
def hgpa_web(web):
    return build_hgpa_index(web, prune=1e-3)


@pytest.fixture(scope="module")
def dist_gpa_web(gpa_web):
    return DistributedGPA(gpa_web, 4)


@pytest.fixture(scope="module")
def dist_hgpa_web(hgpa_web):
    return DistributedHGPA(hgpa_web, 4)


@pytest.fixture(scope="module")
def updated_web(gpa_web, hgpa_web):
    """Runtimes on each ``web`` index with every update of ``UPDATES``
    applied through them, and the indexes they end on."""
    runtimes = {
        "gpa_web": DistributedGPA(gpa_web, 4),
        "hgpa_web": DistributedHGPA(hgpa_web, 4),
    }
    engines = {}
    for name, runtime in runtimes.items():
        for op, u, v in UPDATES:
            assert runtime.apply_update(EdgeUpdate(op, u, v)).changed
        engines[f"{name}_updated"] = runtime.index
        engines[f"dist_{name}_updated"] = runtime
    return engines


ENGINES = [
    "jw_small",
    "gpa_small",
    "hgpa_small",
    "fast_small",
    "dist_gpa",
    "dist_hgpa",
    "gpa_web",
    "hgpa_web",
    "dist_gpa_web",
    "dist_hgpa_web",
]
UPDATED = [
    "gpa_web_updated",
    "hgpa_web_updated",
    "dist_gpa_web_updated",
    "dist_hgpa_web_updated",
]


def _check(engine, name: str) -> None:
    nodes = batch_nodes(engine)
    sparse_sizes = FAST_SPARSE_SIZES if name == "fast_small" else SIZES
    got = {
        f"{name}/dense": counters_digest(engine, nodes, False),
        f"{name}/sparse": counters_digest(engine, nodes, True, sparse_sizes),
        f"{name}/one": one_digest(engine, nodes),
    }
    assert got == {key: DIGESTS.get(key) for key in got}


@pytest.mark.parametrize("name", ENGINES)
def test_counters(request, name):
    _check(request.getfixturevalue(name), name)


@pytest.mark.parametrize("name", UPDATED)
def test_counters_after_updates(updated_web, name):
    _check(updated_web[name], name)


def _digest(meta) -> str:
    sha = hashlib.sha256()
    _hash_meta(sha, meta)
    return sha.hexdigest()


def test_digest_sees_one_moved_counter(gpa_small, dist_gpa):
    nodes = batch_nodes(gpa_small)[:64]
    _, stats = gpa_small.query_many(nodes)
    before = _digest(stats)
    stats[40] = dataclasses.replace(
        stats[40], skeleton_lookups=stats[40].skeleton_lookups + 1
    )
    assert _digest(stats) != before
    # Two machines' entries swapped: the same multiset, paired otherwise.
    _, reports = dist_gpa.query_many(nodes[:2])
    before = _digest(reports)
    entries = reports[1].per_machine_entries
    assert entries[0] != entries[1]
    entries[0], entries[1] = entries[1], entries[0]
    assert _digest(reports) != before
