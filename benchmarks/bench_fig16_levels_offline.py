"""Figure 16: HGPA pre-computation time vs number of partitioning levels.

Paper: offline time decreases with more levels — iterations run inside
exponentially smaller subgraphs.  Expected shape here: the deepest fixed
depth pre-computes no slower than the shallowest.
"""

from level_sweep import LEVELS, level_table

from repro.bench import hgpa_index


def test_fig16_levels_offline(benchmark):
    table, values = level_table(
        "Fig 16",
        "HGPA pre-computation time (s, one machine) vs partitioning levels",
        lambda name, index: index.offline_seconds(),
    )
    table.note("paper shape: offline time decreases as subgraphs shrink")
    table.emit()
    deepest = len(LEVELS) - 1
    for name, offline in values.items():
        assert offline[deepest] < offline[0] * 1.3, (
            f"{name}: deeper hierarchies should not pre-compute slower"
        )

    benchmark(lambda: hgpa_index("email").offline_seconds())
