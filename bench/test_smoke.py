"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_METRICS = [n for n, (unit, _) in layers.PER_LAYER.items() if unit not in layers.TIMED_UNITS]


def bench(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def result_of(done) -> tuple[list[str], dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    workload = lines[0].split()[1]
    report = json.loads((ROOT / ".bench_work" / f"smoke-{workload}" / "report.json").read_text())
    return lines, result, report


def assert_printed(lines: list[str], metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert any(line.split()[0] == m["name"] and line.split()[-1] == m["unit"]
                   for line in lines), f"{m['name']} not printed with unit {m['unit']}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result, report = result_of(bench(workload, 0))
    assert_printed(lines, result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_frac"] == 0 and not report["errors"]
    assert len(report["inputs"]["vectors_sha256"]) == 64
    # Speed correction: every request was probed, and raw values are kept.
    assert report["speed_factor"] > 0
    assert all(r["corrected_s"] > 0 for r in report["requests"])
    assert set(report["raw"]) == {"latency_p50_s", "latency_tail_s", "requests_per_s", "setup_s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_nests_and_counts_repeat(workload):
    lines, first, report = result_of(bench(workload, 1))
    assert_printed(lines, first["metrics"], SPEC["per_layer"])
    traced = [r for r in report["requests"] if r["traced"]]
    assert traced
    for r in traced:
        assert r["min_self_ns"] >= 0
        assert sum(r["layer_self_ns"].values()) <= r["root_ns"]
    _, second, _ = result_of(bench(workload, 1))
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    value = {name: m["value"] for name, m in first["metrics"].items()}
    assert value["circuit.ops"] > 0 and value["circuit.validate_calls"] > 0
    if workload == "compile_dense":
        assert value["discrimination.decompose_calls"] == value["divide_conquer.stages"] > 0
    if workload == "compile_time":
        assert value["time_encoding.rotation_ops_s"] > 0
        assert value["circuit.condition_entries"] == 0
    if workload.startswith("verify_"):
        assert value["simulator.branches"] > 0 and value["simulator.state_bytes"] > 0


def test_memory_guard_refuses_before_any_request():
    # Hybrid n=6, lambda=3 has 31 wires: a 32 GiB initial state.
    w = workloads.Workload("verify_enumerate", "hybrid", 6, lam=3, verify=())
    assert workloads.state_bytes(31) == 32 * 2**30
    if workloads.memory_budget() >= workloads.state_bytes(31):
        pytest.skip("this machine has room for a 31-wire state")
    with pytest.raises(workloads.ConfigRefused):
        workloads.set_up(w, 0, 1, ROOT / ".bench_work" / "smoke-guard")


def test_negative_control_must_fail():
    assert workloads.check_control(1, {"pass": False}) is None
    assert workloads.check_control(0, {"pass": True}) is not None
    assert workloads.check_control(2, None) is not None


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
