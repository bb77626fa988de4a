"""Figure 15: HGPA pre-computation space vs number of partitioning levels.

Paper: space drops sharply as levels increase (leaf subgraphs shrink
exponentially, so leaf-level PPVs dominate less), then flattens once leaves
are near edge-free.  Expected shape here: strictly smaller storage from the
shallowest to the deepest fixed depth.
"""

from level_sweep import LEVELS, level_table

from repro.bench import hgpa_index


def test_fig15_levels_space(benchmark):
    table, values = level_table(
        "Fig 15",
        "HGPA index space (MB) vs number of partitioning levels",
        lambda name, index: index.total_bytes() / 1e6,
    )
    table.note("paper shape: space drops sharply with levels, then flattens")
    table.emit()
    deepest = len(LEVELS) - 1
    for name, sizes in values.items():
        assert sizes[deepest] < sizes[0], (
            f"{name}: deeper hierarchies must need less space "
            f"({sizes[0]:.2f} → {sizes[deepest]:.2f} MB)"
        )

    benchmark(lambda: hgpa_index("email").total_bytes())
