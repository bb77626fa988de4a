"""Persist and reload HGPA indexes.

The paper's workflow is offline pre-computation followed by online serving;
that split needs the index to survive a process restart.  This module
stores everything — graph CSR, the partition hierarchy, every pre-computed
vector and its build cost — in a single compressed ``.npz`` archive using
flat concatenated arrays (no pickling, loadable anywhere numpy runs): each
vector store in :mod:`repro.core.stacked`'s keyed-store layout, its
``indptr`` kept as per-vector ``nnz`` (format 1).
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.hgpa import HGPAIndex
from repro.core.stacked import pack_store, unpack_store
from repro.errors import SerializationError
from repro.graph.digraph import DiGraph
from repro.partition.hierarchy import PartitionHierarchy, SubgraphNode

__all__ = ["save_hgpa_index", "load_hgpa_index"]

_FORMAT_VERSION = 1

_STORES = (("hub", "hub_partials"), ("skel", "skeleton_cols"), ("leaf", "leaf_ppv"))
"""``(archive prefix, index attribute)`` of each stored-vector set."""


def save_hgpa_index(index: HGPAIndex, path: str | os.PathLike) -> None:
    """Write the full index (graph + hierarchy + vectors) to ``path``."""
    h = index.hierarchy
    nodes_concat = (
        np.concatenate([sg.nodes for sg in h.subgraphs])
        if h.subgraphs
        else np.empty(0, dtype=np.int64)
    )
    hubs_concat = (
        np.concatenate([sg.hubs for sg in h.subgraphs])
        if h.subgraphs
        else np.empty(0, dtype=np.int64)
    )
    payload: dict[str, np.ndarray] = {
        "format_version": np.asarray([_FORMAT_VERSION]),
        "alpha": np.asarray([index.alpha]),
        "tol": np.asarray([index.tol]),
        "prune": np.asarray([index.prune]),
        "fanout": np.asarray([h.fanout]),
        "graph_indptr": index.graph.indptr,
        "graph_indices": index.graph.indices,
        "graph_name": np.array(index.graph.name),
        "sub_levels": np.asarray([sg.level for sg in h.subgraphs], dtype=np.int64),
        "sub_parents": np.asarray(
            [-1 if sg.parent is None else sg.parent for sg in h.subgraphs],
            dtype=np.int64,
        ),
        "sub_node_counts": np.asarray(
            [sg.nodes.size for sg in h.subgraphs], dtype=np.int64
        ),
        "sub_hub_counts": np.asarray(
            [sg.hubs.size for sg in h.subgraphs], dtype=np.int64
        ),
        "sub_nodes": nodes_concat,
        "sub_hubs": hubs_concat,
    }
    for kind, attr in _STORES:
        keys, indptr, idx, val = pack_store(getattr(index, attr))
        payload[f"{kind}_keys"] = keys
        payload[f"{kind}_nnz"] = np.diff(indptr)
        payload[f"{kind}_idx"] = idx
        payload[f"{kind}_val"] = val
        payload[f"{kind}_cost"] = np.asarray(
            [index.build_cost.get((kind, k), 0.0) for k in keys.tolist()]
        )
    np.savez_compressed(path, **payload)


def load_hgpa_index(path: str | os.PathLike) -> HGPAIndex:
    """Reload an index written by :func:`save_hgpa_index`."""
    with np.load(path, allow_pickle=False) as data:
        if "format_version" not in data:
            raise SerializationError(f"{path}: not a repro index archive")
        version = int(data["format_version"][0])
        if version != _FORMAT_VERSION:
            raise SerializationError(
                f"{path}: unsupported index format {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        graph = DiGraph(
            data["graph_indptr"], data["graph_indices"], name=str(data["graph_name"])
        )
        levels = data["sub_levels"]
        parents = data["sub_parents"]
        node_counts = data["sub_node_counts"]
        hub_counts = data["sub_hub_counts"]
        node_off = np.zeros(levels.size + 1, dtype=np.int64)
        np.cumsum(node_counts, out=node_off[1:])
        hub_off = np.zeros(levels.size + 1, dtype=np.int64)
        np.cumsum(hub_counts, out=hub_off[1:])
        subgraphs: list[SubgraphNode] = []
        for i in range(levels.size):
            subgraphs.append(
                SubgraphNode(
                    node_id=i,
                    level=int(levels[i]),
                    nodes=data["sub_nodes"][node_off[i] : node_off[i + 1]].copy(),
                    parent=None if parents[i] < 0 else int(parents[i]),
                    hubs=data["sub_hubs"][hub_off[i] : hub_off[i + 1]].copy(),
                )
            )
        for sg in subgraphs:
            if sg.parent is not None:
                subgraphs[sg.parent].children.append(sg.node_id)
        hierarchy = PartitionHierarchy(graph, subgraphs, int(data["fanout"][0]))
        index = HGPAIndex(
            graph=graph,
            hierarchy=hierarchy,
            alpha=float(data["alpha"][0]),
            tol=float(data["tol"][0]),
            prune=float(data["prune"][0]),
        )
        for kind, attr in _STORES:
            keys = data[f"{kind}_keys"]
            indptr = np.zeros(keys.size + 1, dtype=np.int64)
            np.cumsum(data[f"{kind}_nnz"], out=indptr[1:])
            getattr(index, attr).update(
                unpack_store(keys, indptr, data[f"{kind}_idx"], data[f"{kind}_val"])
            )
            for k, cost in zip(keys.tolist(), data[f"{kind}_cost"].tolist()):
                index.build_cost[(kind, k)] = cost
        return index
