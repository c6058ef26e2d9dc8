"""Tests of the benchmark itself: metric names, wrapper lifetime, span parents.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
from roughn_lab import cli_harness, primes_core  # noqa: E402
from workloads import WORKLOADS, write_params  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, kind):
    result = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]}
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "measure",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _step(tmp_path, *trace):
    params = write_params(tmp_path, 10**6)
    result = tmp_path / "result.json"
    spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "step.py"), "--result", str(result),
         "--spawn-ns", str(spawn), *trace, "cli", "window-search", "--params", str(params),
         "--out", str(tmp_path)],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, check=True, timeout=120)
    return json.loads(result.read_text())


def test_untraced_step_installs_no_wrapper(tmp_path):
    result = _step(tmp_path)
    assert result["rc"] == 0
    assert result["wrapped_during_step"] == [] and result["spans"] == []


def test_traced_step_wraps_during_the_step_only(tmp_path):
    result = _step(tmp_path, "--trace", "t")
    assert "roughn_lab.cramer_models.factor_window" in result["wrapped_during_step"]
    assert result["wrapped_after_step"] == []
    assert any(s["name"] == "cramer_models.window_search" for s in result["spans"])


def _package_bindings():
    return {(m.__name__, k): v for m in tracer.package_modules() for k, v in vars(m).items()}


def test_wrappers_are_removed_afterwards():
    before = _package_bindings()
    t = tracer.Tracer("t")
    t.install()
    try:
        assert hasattr(cli_harness.factor_window, tracer.MARKER)
        assert cli_harness.factor_window is primes_core.factor_window
    finally:
        t.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.installed_wrappers() == []


def test_factor_window_called_from_cli_harness_is_traced(tmp_path):
    params = write_params(tmp_path, 10**6)
    t = tracer.Tracer("t")
    t.install()
    try:
        rc = cli_harness.main(["record-search", "--params", str(params), "--out",
                               str(tmp_path), "--checkpoint-secs", "0"])
    finally:
        t.uninstall()
    assert rc == 0
    by_id = {s["id"]: s for s in t.spans}
    windows = [s for s in t.spans if s["name"] == "primes_core.factor_window"]
    assert windows
    assert any(by_id[s["parent"]]["name"] == "cli_harness.main" for s in windows)
    assert all(s["sizes"]["ints"] > 0 and s["sizes"]["bytes"] > 0 for s in windows)
    # self times and wrapper costs of all spans add up to the root span exactly
    root = next(s for s in t.spans if s["parent"] is None)
    inner_cost = sum(s["cost_ns"] for s in t.spans if s["parent"] is not None)
    assert sum(s["self_ns"] for s in t.spans) + inner_cost == root["end_ns"] - root["start_ns"]
    assert 0 < t.overhead_s() < root["end_ns"] - root["start_ns"]
    summary = tracer.summarize(t.spans)
    assert summary["sieve_measure.build_weight_table"]["divisors"] > 0
