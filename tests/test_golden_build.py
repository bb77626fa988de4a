"""Golden digests of the partition hierarchy and of every stored vector.

The partitioner is free to get faster, never to move a label: a hierarchy
with one node on the other side of one cut is a different HGPA index.  The
digests below are compared exactly — there is no tolerance to loosen.  If a
change is *meant* to build a different index, recompute them and say why in
the change.

``HIERARCHY_DIGESTS`` and ``VECTOR_DIGESTS`` were computed before the
partitioner's numpy rewrite, on hierarchies that recurse until every leaf is
edge-free; they are checked on builds with ``max_levels=graph.num_nodes``,
a cap that never binds.  The ``DEFAULT_*`` digests pin the default depth,
``max(1, ⌈log₂ n⌉ − 4)`` levels, which is a shallower, different index on
``web`` (8 levels, not 18) and ``community_fanout2`` (6, not 11), and the
same one on ``community_fanout4``, whose unbounded tree is 6 levels deep.

``UPDATE_DIGESTS`` pin the stores of GPA(8) and default-depth HGPA on
``web`` after each update of ``UPDATES``, applied in order, together with
how many store keys each update re-solved.  They were computed at commit
``1443cbe``, when every solve still ran on the calling thread, so they
also pin that the solver threads move no bit and no store's key order.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import build_gpa_index, build_hgpa_index
from repro.core.updates import EdgeUpdate, apply_edge_update
from repro.datasets import spec
from repro.graph import DiGraph, hierarchical_community_digraph
from repro.partition import PartitionHierarchy, build_hierarchy

# sha256 over every subgraph's (node_id, level, parent, nodes, hubs, children).
HIERARCHY_DIGESTS = {
    "web": "5b6c4f2af0d9eaf550b28286d39cffc2b9432b385b9629902f24db4a5950f2e1",
    "community_fanout2": "09e34758e5cb9a962d5d88d506cf8f2cce54ce5ee1b2d96ff05eba02fee56988",
    "community_fanout4": "31569bc606caf0553d474128c7cba9c3a19fb3ad8bfdc5647777ec2e599edf70",
}
# sha256 over every store, in dict order: key, stored ids, stored values.
VECTOR_DIGESTS = {
    "hgpa_web": "4be2d9fa5350de818e722c877b7ed804b2a25ff86a79355d34c32dcce0872c35",
    "gpa_web": "c62fd8d77831b7be6d10aea05558806a5cf3e047fc57b25a4c4ca96a42838999",
}
DEFAULT_HIERARCHY_DIGESTS = {
    "web": "2a77e91bcff95c4e6be796dddd4965719d5daa3a7f41a4d0d3d96c135f8533ce",
    "community_fanout2": "169c6ec4fa35ebf7d37cff10e7e680f1d875be06060361ac08c8d2464b581442",
    "community_fanout4": "31569bc606caf0553d474128c7cba9c3a19fb3ad8bfdc5647777ec2e599edf70",
}
DEFAULT_VECTOR_DIGESTS = {
    "hgpa_web": "9c7d797fd83a710d626e93b3f55d3f547a7d458bfeb546bb2e29a9410007d41b",
}
# Alternating seeded inserts and deletes, each of which changes ``web``.
UPDATES = [
    ("insert", 150, 3126),
    ("delete", 1022, 1020),
    ("insert", 647, 2335),
    ("delete", 3555, 3548),
    ("insert", 2086, 3782),
]
# Per update: (len(stats.rebuilt_keys), stores_digest after it).
UPDATE_DIGESTS = {
    "gpa_web": [
        (542, "cfc2f15bf49cbfe153bd146ae793867f67683ed0d0a256802151c50b2541dce4"),
        (472, "caeba4eed8a6d887856618cc9ded332fb19b03db0b686912dbfa19e3db7cd28e"),
        (471, "db3f1493b0b61a58b5f2a007abef836fee36c145c9bae69e5778c0cc0c289c23"),
        (472, "a36d204486053fc5f2dca32c287884a858efde8699915c3efe1c95325b6b00d3"),
        (478, "f02699bb2b0ef585a42287f96b728fecbf1c2523daec0e9af34fed1756ae48af"),
    ],
    "hgpa_web": [
        (716, "e6232666c1273deea160cb30cf19a54060f4ad611c23313ea9bb0396a67cba05"),
        (1278, "5641c44f71168e01254d9d805e196a36f6ce15080ed5ea0c31dc7f10ddb1a9a3"),
        (677, "d2dabc6b4ad17a86600f07eaa07d772bbfc003a2a8a62c7f6c64c741655b3dcc"),
        (704, "8dcdd557bbe0925fe1227f3fa51d94140c8ec170f09ee239a748c1a29b06b28f"),
        (681, "6dbc1e7dede8e0489067c09040dcc0e8c442e2fdeab9a6ac31022a2ebf6251b0"),
    ],
}


def hierarchy_digest(h: PartitionHierarchy) -> str:
    sha = hashlib.sha256()
    for sg in h.subgraphs:
        parent = -1 if sg.parent is None else sg.parent
        for arr in (
            [sg.node_id, sg.level, parent, sg.nodes.size, sg.hubs.size, len(sg.children)],
            sg.nodes,
            sg.hubs,
            sg.children,
        ):
            sha.update(np.asarray(arr, dtype=np.int64).tobytes())
    return sha.hexdigest()


def index_digest(index) -> str:
    own = index.leaf_ppv if hasattr(index, "leaf_ppv") else index.node_partials
    return stores_digest(index.hub_partials, index.skeleton_cols, own)


def stores_digest(*stores: dict) -> str:
    sha = hashlib.sha256()
    for store in stores:
        sha.update(np.int64(len(store)).tobytes())
        for key, vec in store.items():
            sha.update(np.asarray([key, vec.idx.size], dtype=np.int64).tobytes())
            sha.update(np.asarray(vec.idx, dtype=np.int64).tobytes())
            sha.update(np.asarray(vec.val, dtype=np.float64).tobytes())
    return sha.hexdigest()


def web_graph() -> DiGraph:
    """``web`` at its base size, whatever ``REPRO_SCALE`` says."""
    s = spec("web")
    return s.builder(s.base_nodes).with_dangling_policy("self_loop")


def community_graph(seed: int) -> DiGraph:
    g = hierarchical_community_digraph(600, avg_out_degree=4, seed=seed)
    return g.with_dangling_policy("self_loop")


@pytest.fixture(scope="module")
def web() -> DiGraph:
    return web_graph()


@pytest.fixture(scope="module")
def gpa_web(web):
    return build_gpa_index(web, 8, prune=1e-3)


@pytest.fixture(scope="module")
def hgpa_web(web):
    return build_hgpa_index(web, prune=1e-3)


def test_web_hgpa_hierarchy_and_vectors(web):
    # build_hgpa_index partitions with build_hierarchy(web, max_levels=...).
    index = build_hgpa_index(web, prune=1e-3, max_levels=web.num_nodes)
    assert index.hierarchy.depth == 18
    assert hierarchy_digest(index.hierarchy) == HIERARCHY_DIGESTS["web"]
    assert index_digest(index) == VECTOR_DIGESTS["hgpa_web"]


def test_web_hgpa_default_depth(hgpa_web):
    assert hgpa_web.hierarchy.depth == 8
    assert hierarchy_digest(hgpa_web.hierarchy) == DEFAULT_HIERARCHY_DIGESTS["web"]
    assert index_digest(hgpa_web) == DEFAULT_VECTOR_DIGESTS["hgpa_web"]


def test_web_gpa_vectors(gpa_web):
    assert index_digest(gpa_web) == VECTOR_DIGESTS["gpa_web"]


@pytest.mark.parametrize("family", ["gpa_web", "hgpa_web"])
def test_web_update_digests(request, family):
    index = request.getfixturevalue(family)
    for (op, u, v), (rebuilt, digest) in zip(UPDATES, UPDATE_DIGESTS[family]):
        index, receipt = apply_edge_update(index, EdgeUpdate(op, u, v))
        assert len(receipt.stats.rebuilt_keys) == rebuilt, (op, u, v)
        assert index_digest(index) == digest, (op, u, v)


@pytest.mark.parametrize(("name", "seed", "fanout"), [
    ("community_fanout2", 21, 2),
    ("community_fanout4", 22, 4),
])
def test_generator_hierarchies(name, seed, fanout):
    g = community_graph(seed)
    unbounded = build_hierarchy(g, fanout=fanout, max_levels=g.num_nodes, seed=seed)
    assert hierarchy_digest(unbounded) == HIERARCHY_DIGESTS[name]
    default = build_hierarchy(g, fanout=fanout, seed=seed)
    assert hierarchy_digest(default) == DEFAULT_HIERARCHY_DIGESTS[name]


def test_digest_sees_one_moved_label():
    h = build_hierarchy(community_graph(21), fanout=2, seed=21)
    before = hierarchy_digest(h)
    leaf = next(sg for sg in h.subgraphs if sg.is_leaf and sg.parent is not None)
    sibling = next(
        h.subgraphs[c] for c in h.subgraphs[leaf.parent].children if c != leaf.node_id
    )
    moved = int(leaf.nodes[0])
    leaf.nodes = leaf.nodes[1:]
    sibling.nodes = np.sort(np.append(sibling.nodes, moved))
    assert hierarchy_digest(h) != before

