"""The paper's core: exact PPV computation — power iteration, the
Jeh–Widom decomposition, PPV-JW, GPA and HGPA."""

from repro.core.decomposition import (
    as_view,
    expected_iterations,
    partial_vectors,
    skeleton_columns,
    skeleton_single_hub,
    skeleton_vectors_dp,
)
from repro.core.flat_index import FlatPPVIndex, QueryStats
from repro.core.gpa import GPAIndex, build_gpa_index
from repro.core.hgpa import HGPAIndex, build_hgpa_ad_index, build_hgpa_index
from repro.core.updates import (
    EdgeUpdate,
    UpdateBatch,
    UpdateReceipt,
    UpdateStats,
    affected_sources,
    apply_edge_update,
    apply_update_batch,
    delete_edge,
    delete_edge_flat,
    insert_edge,
    insert_edge_flat,
)
from repro.core.jw import JWIndex, build_jw_index
from repro.core.persistence import load_hgpa_index, save_hgpa_index
from repro.core.linearity import normalize_preference, ppv_for_preference_set
from repro.core.power_iteration import (
    power_iteration_ppv,
    power_iteration_reference,
    preference_vector,
)
from repro.core.sparsevec import SparseVec

__all__ = [
    "SparseVec",
    "QueryStats",
    "power_iteration_ppv",
    "power_iteration_reference",
    "preference_vector",
    "as_view",
    "partial_vectors",
    "skeleton_columns",
    "skeleton_single_hub",
    "skeleton_vectors_dp",
    "expected_iterations",
    "FlatPPVIndex",
    "JWIndex",
    "build_jw_index",
    "GPAIndex",
    "build_gpa_index",
    "HGPAIndex",
    "build_hgpa_index",
    "build_hgpa_ad_index",
    "normalize_preference",
    "ppv_for_preference_set",
    "save_hgpa_index",
    "load_hgpa_index",
    "insert_edge",
    "delete_edge",
    "UpdateStats",
    "EdgeUpdate",
    "UpdateBatch",
    "UpdateReceipt",
    "affected_sources",
    "apply_edge_update",
    "apply_update_batch",
    "insert_edge_flat",
    "delete_edge_flat",
]
