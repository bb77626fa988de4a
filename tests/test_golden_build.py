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
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import build_gpa_index, build_hgpa_index
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


def test_web_hgpa_hierarchy_and_vectors(web):
    # build_hgpa_index partitions with build_hierarchy(web, max_levels=...).
    index = build_hgpa_index(web, prune=1e-3, max_levels=web.num_nodes)
    assert index.hierarchy.depth == 18
    assert hierarchy_digest(index.hierarchy) == HIERARCHY_DIGESTS["web"]
    digest = stores_digest(index.hub_partials, index.skeleton_cols, index.leaf_ppv)
    assert digest == VECTOR_DIGESTS["hgpa_web"]


def test_web_hgpa_default_depth(web):
    index = build_hgpa_index(web, prune=1e-3)
    assert index.hierarchy.depth == 8
    assert hierarchy_digest(index.hierarchy) == DEFAULT_HIERARCHY_DIGESTS["web"]
    digest = stores_digest(index.hub_partials, index.skeleton_cols, index.leaf_ppv)
    assert digest == DEFAULT_VECTOR_DIGESTS["hgpa_web"]


def test_web_gpa_vectors(web):
    index = build_gpa_index(web, 8, prune=1e-3)
    digest = stores_digest(index.hub_partials, index.skeleton_cols, index.node_partials)
    assert digest == VECTOR_DIGESTS["gpa_web"]


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

