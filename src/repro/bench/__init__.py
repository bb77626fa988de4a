"""Benchmark harness: memoised index builders and table reporting."""

from repro.bench.harness import (
    ExperimentTable,
    bench_queries,
    fastppv_index,
    gpa_index,
    hgpa_index,
    jw_index,
    kernel_backend_info,
    result_path,
    results_dir,
    time_queries,
    zipf_stream,
)

__all__ = [
    "ExperimentTable",
    "results_dir",
    "result_path",
    "hgpa_index",
    "gpa_index",
    "jw_index",
    "fastppv_index",
    "bench_queries",
    "kernel_backend_info",
    "time_queries",
    "zipf_stream",
]
