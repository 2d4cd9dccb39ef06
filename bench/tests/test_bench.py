"""Tests of the benchmark itself: tiny smoke runs, metric names, failure counting.

    python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import mildsolve.solver  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, tmp_path, trace, seed=3, edit=None):
    wl = workloads.build(name, ROOT, tmp_path / name, seed, threads=2, tiny=True)
    if edit is not None:
        edit(wl)
    return wl, run.run_workload(wl, seconds=0.0, trace=trace, run_id="test")


def units(metrics):
    return {name: unit for name, (_, unit, _) in metrics.items()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_reports_every_end_to_end_metric(name, tmp_path):
    wl, result = tiny_run(name, tmp_path, trace=False)
    assert result["failures"] == []
    metrics = run.end_to_end(wl, [0.5], result)
    bounded = {k: v for k, v in units(metrics).items() if k not in run.WALL_CLOCK}
    assert bounded == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(metrics) - set(bounded) == set(run.WALL_CLOCK)
    assert all(value > 0 for value, _, _ in metrics.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_traced_workload_reports_every_layer_metric(name, tmp_path):
    original = mildsolve.solver.picard_solve
    wl, result = tiny_run(name, tmp_path, trace=True)
    assert mildsolve.solver.picard_solve is original  # wrappers removed again
    assert result["failures"] == []
    assert result["missing"] == []
    metrics = run.per_layer(result)
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["solver.solve_count"][0] == wl.solves_per_unit
    assert metrics["solver.bound_over_tol_max"][0] <= 1.0


def test_pool_threads_keep_their_parent_span(tmp_path):
    _, result = tiny_run("reach-diag", tmp_path, trace=True)
    by_id = {s["sid"]: s for s in result["spans"]}
    batched = [s for s in result["spans"] if s["name"] == "solver.picard_solve"]
    assert batched
    for s in batched:
        parent = by_id[s["parent"]]
        assert parent["name"] == "solver.solve_batch"
        assert s["thread"] != parent["thread"]  # the link crossed into a pool thread
    assert {s["run_id"] for s in result["spans"]} == {"test"}


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(start, end):
        return spans.Span(0, "x", start, end, None, 0, "test", 0)

    parent = span(0.0, 10.0)
    children = [span(1.0, 4.0), span(2.0, 5.0), span(7.0, 12.0)]  # pool threads overlap
    assert spans._self_time(parent, children) == 10.0 - 4.0 - 3.0


def test_exact_counters_repeat_across_runs(tmp_path):
    counts = []
    for attempt in ("a", "b"):
        _, result = tiny_run("gamma-table", tmp_path / attempt, trace=True)
        counts.append({name: result["layers"][0][name] for name in spans.EXACT_COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["reachset.gamma_cells"] > 0


def test_failing_outputs_count_as_failed(tmp_path):
    def break_two_requests(wl):
        bad_exit = wl.unit[0]
        bad_exit.argv[bad_exit.argv.index("--config") + 1] = str(tmp_path / "absent.yaml")

        def impossible():
            raise workloads.CheckFailed("deliberate")
        wl.unit[1].check = impossible

    _, result = tiny_run("solve-mix", tmp_path, trace=False, edit=break_two_requests)
    assert len(result["failures"]) == 2
    assert "exit code 2" in result["failures"][0]
    assert "deliberate" in result["failures"][1]


def test_command_prints_contract_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-mix", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert printed >= set(result["metrics"]) | set(run.WALL_CLOCK) | {"failed_frac"}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "solve-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
