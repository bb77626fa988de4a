"""Smoke run of the whole e2e benchmark (collected by the tier-1 command).

Both same-seed runs go through ``run.py --smoke`` exactly as a user
would start it: six workloads, each in a fresh subprocess, untraced and
traced.  Only facts that cannot flake are asserted — names, units,
finiteness, correctness, exact byte counts, no leftovers — never a time.
"""

from __future__ import annotations

import glob
import json
import math
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
             "--out", str(out / f"run{i}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(2)
    ]
    runs = []
    for i, proc in enumerate(procs):
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"run.py --smoke failed:\n{stdout[-2000:]}\n{stderr[-2000:]}"
        runs.append((json.loads((out / f"run{i}.json").read_text()), stdout))
    return runs


def test_runs_all_six_workloads(smoke_runs):
    doc, _ = smoke_runs[0]
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert doc["claim"] is None
    assert doc["env"]["mode"] == "smoke" and doc["env"]["seed"] == 0
    for key in ("commit", "nproc", "python", "numpy", "scipy", "kernel_backend", "REPRO_SCALE"):
        assert key in doc["env"]


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_every_metric_is_present_finite_and_carries_its_unit(smoke_runs, section):
    doc, stdout = smoke_runs[0]
    for name, record in doc["workloads"].items():
        assert record["wall_s"] > 0
        for metric in SPEC[section]:
            entry = record[section].get(metric["name"])
            assert entry is not None, f"{name}: {metric['name']} missing"
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert math.isfinite(entry["value"]), (name, metric["name"])
            if section == "end_to_end":
                assert entry["value"] > 0, (name, metric["name"])
            assert f"{name:22s} {metric['name']:44s}" in stdout  # printed by name
        assert set(record[section]) == {m["name"] for m in SPEC[section]}


def test_no_request_failed(smoke_runs):
    for doc, _ in smoke_runs:
        for name, record in doc["workloads"].items():
            assert record["failed"] == 0 and record["failed_share"] == 0, record["errors"]
            assert record["attempted"] > 0
            assert record["per_layer"]["failed_share"]["value"] == 0


def test_wire_bytes_repeat_exactly_for_a_seed(smoke_runs):
    (a, _), (b, _) = smoke_runs
    for name in a["workloads"]:
        first = a["workloads"][name]["end_to_end"]["wire_bytes_per_query"]["value"]
        second = b["workloads"][name]["end_to_end"]["wire_bytes_per_query"]["value"]
        assert first == second, name


def test_layers_show_up_where_they_should(smoke_runs):
    layers = {n: r["per_layer"] for n, r in smoke_runs[0][0]["workloads"].items()}
    value = lambda workload, metric: layers[workload][metric]["value"]  # noqa: E731
    assert value("zipf_dense_cached", "serving.cache.hit_rate") > 0
    assert value("uniform_sparse_hgpa", "serving.cache.hit_rate") == 0
    assert value("uniform_sparse_hgpa", "kernels.spgemm_ms_per_batch") > 0
    assert value("batch_topk", "kernels.topk_dense_ms_per_256") > 0
    assert value("process_fanout", "exec.result_bytes_per_task") > 0
    assert value("zipf_dense_cached", "exec.result_bytes_per_task") == 0
    assert value("distributed_wire", "distributed.messages_per_query") == 8  # 1 round x 4 machines
    assert value("distributed_wire", "core.wire_bytes_per_vec") > 0
    assert value("zipf_dense_updates", "serving.cache.invalidated_rows") > 0
    assert value("zipf_dense_updates", "sharding.resilience_extra_attempts") == 0


def test_nothing_is_left_behind(smoke_runs):
    assert not glob.glob("/dev/shm/repro-shm-*")
    assert not mp.active_children()


def _session_members(sid: int) -> list[tuple[int, str]]:
    """(pid, command name) of every process in session ``sid``, zombies too."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue  # ended while we were listing
        comm, rest = stat[stat.index("(") + 1 : stat.rindex(")")], stat[stat.rindex(")") + 2 :]
        if int(rest.split()[3]) == sid:
            members.append((int(pid), comm))
    return members


@pytest.mark.parametrize("trace", ["0", "1"])
def test_pool_run_has_stopped_every_process_when_it_exits(trace):
    """The instant ``run.py`` returns, its session is empty: the pool's
    workers and multiprocessing's resource tracker were waited for, not
    left to end on their own a moment later."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
         "--workload", "process_fanout", "--trace", trace],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its pid is the session id of all it starts
    )
    stdout, stderr = proc.communicate(timeout=300)
    left = _session_members(proc.pid)
    assert proc.returncode == 0, f"{stdout[-2000:]}\n{stderr[-2000:]}"
    assert not left
