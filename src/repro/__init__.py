"""repro — Distributed Algorithms on Exact Personalized PageRank.

A from-scratch Python reproduction of Guo, Cao, Cong, Lu and Lin (SIGMOD
2017): the GPA and HGPA algorithms for computing *exact* Personalized
PageRank vectors on a coordinator-based share-nothing cluster, together
with every substrate the paper's evaluation uses — a METIS-like multilevel
partitioner, hub selection by minimum vertex cover, a simulated cluster
with byte-accounted communication, Pregel+/Blogel-style engine baselines,
the FastPPV approximate baseline, and accuracy metrics.

Quickstart::

    from repro import datasets
    from repro.core import build_hgpa_index, power_iteration_ppv

    graph = datasets.load("email")
    index = build_hgpa_index(graph, tol=1e-6)
    ppv = index.query(42)                      # exact PPV of node 42
    ref = power_iteration_ppv(graph, 42, tol=1e-6)
"""

from repro import (
    approx,
    core,
    datasets,
    distributed,
    engines,
    graph,
    metrics,
    partition,
    serving,
    sharding,
)
from repro.errors import (
    ClusterError,
    ConvergenceError,
    GraphError,
    IndexBuildError,
    PartitionError,
    QueryError,
    ReproError,
    SerializationError,
    ServingError,
    ShardingError,
)

__version__ = "1.0.0"

__all__ = [
    "graph",
    "partition",
    "core",
    "distributed",
    "engines",
    "approx",
    "metrics",
    "datasets",
    "serving",
    "sharding",
    "ReproError",
    "GraphError",
    "PartitionError",
    "IndexBuildError",
    "QueryError",
    "ConvergenceError",
    "ClusterError",
    "SerializationError",
    "ServingError",
    "ShardingError",
    "__version__",
]
