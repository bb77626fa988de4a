"""Figure 12: HGPA pre-computation time vs number of machines.

Paper: offline time is nearly linear in 1/machines — each machine only
pre-computes the vectors of nodes assigned to it, with no communication.
Expected shape here: makespan at 10 machines ≈ (2/10)× the 2-machine one.
"""

from repro.bench import ExperimentTable, hgpa_index
from repro.distributed import DistributedHGPA, precompute_report

DATASETS = ("web", "youtube", "pld")
MACHINES = (2, 4, 6, 8, 10)


def test_fig12_machines_offline(benchmark):
    table = ExperimentTable(
        "Fig 12",
        "HGPA pre-computation makespan vs number of machines",
        ["dataset"] + [f"{m} mach (s)" for m in MACHINES] + ["efficiency@10"],
    )
    for name in DATASETS:
        index = hgpa_index(name)
        row = [name]
        makespans = []
        for m in MACHINES:
            report = precompute_report(DistributedHGPA(index, m))
            makespans.append(report.makespan_seconds)
            row.append(report.makespan_seconds)
        eff = precompute_report(DistributedHGPA(index, 10)).parallel_efficiency
        row.append(round(eff, 2))
        table.add(*row)
        assert makespans[-1] < makespans[0] * 0.45, (
            f"{name}: offline time must scale down near-linearly"
        )
    table.note("paper shape: offline time ≈ total/machines (no communication)")
    table.note(
        "seconds are solver-thread CPU seconds (build_cost, time.thread_time), "
        "not wall time: a build solves on two threads"
    )
    table.emit()

    index = hgpa_index("web")
    benchmark(lambda: precompute_report(DistributedHGPA(index, 6)))
