"""Figure 14: HGPA query runtime vs number of partitioning levels.

Paper: runtime grows slightly with more levels (Eq. 7 visits one subgraph
per level), e.g. Email 5→10 ms over levels 1→5.  Expected shape here: a
mild increase in query work from shallow to deep hierarchies, and the
default depth faster than the unbounded tree (leaves edge-free).
"""

from level_sweep import level_table

from repro.bench import bench_queries, hgpa_index, time_queries


def test_fig14_levels_runtime(benchmark):
    table, values = level_table(
        "Fig 14",
        "HGPA query runtime (ms, wall; median over 100 one-row queries, best of 5"
        " rounds) vs levels",
        lambda name, index: time_queries(index.query, bench_queries(name, 100)) * 1000,
        rounds=5,
    )
    table.note("paper shape: runtime increases slightly with more levels")
    table.emit()
    for name, walls in values.items():
        assert walls[-2] < walls[-1], (
            f"{name}: the default depth must answer faster than the unbounded tree"
        )

    index = hgpa_index("email")
    q0 = int(bench_queries("email", 1)[0])
    benchmark(lambda: index.query(q0))
