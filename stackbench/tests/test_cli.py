"""The command line: oracle failures exit nonzero, compare verdicts, the
benchmark contract, and the traced run's names and coverage."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from stackbench import ROOT, SRC
from stackbench.compare import verdict
from stackbench.measure import WORKLOADS
from stackbench.runner import benchmark_spec, declared_metrics


def _cli(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    return subprocess.run(
        [sys.executable, "-m", "stackbench", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("fault", ["late", "drop"])
def test_a_fault_makes_failed_frac_positive_and_the_run_exit_nonzero(fault, tmp_path):
    out = tmp_path / "faulty.json"
    done = _cli(
        "run", "--workload", "storm-bare", "--seconds", "0.2", "--runs", "1",
        "--fault", fault, "--out", str(out),
    )
    assert done.returncode == 1, done.stderr
    report = json.loads(out.read_text())
    assert report["workloads"]["storm-bare"]["failed_frac"] > 0
    assert "failed_frac" in done.stdout


def test_a_clean_run_exits_zero_and_records_its_host(tmp_path):
    out = tmp_path / "clean.json"
    done = _cli("run", "--workload", "storm-durable", "--seconds", "0.5",
                "--runs", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    run = report["workloads"]["storm-durable"]["runs"][0]
    assert run["correct"] and run["failed"] == 0
    for key in ("usable_cpus", "cpu_model", "python_version",
                "python_implementation", "git_commit", "seed", "pythonhashseed"):
        assert key in run["provenance"]
    for key in ("reps", "n", "ticks_per_rep", "call_samples", "advance_samples"):
        assert key in run["detail"]


def test_run_py_prints_exactly_the_declared_metrics_last():
    done = subprocess.run(
        [sys.executable, "stackbench/run.py", "--workload", "storm-bare",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(declared_metrics(benchmark_spec(), False))
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "stackbench", tmp_path / "stackbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "stackbench/run.py", "--workload", "storm-bare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_the_spec_names_the_code_workloads_and_bounded_metrics():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"][-1]["name"] == "setup_s"
    bounds = [metric["bound"] for metric in spec["end_to_end"]]
    assert max(bounds) == spec["end_to_end"][-1]["bound"] <= 0.25
    assert len(spec["per_layer"]) <= 128


def test_verdicts():
    assert verdict([100, 101, 99], [100, 102, 98], 0.1, "higher")["verdict"] == "within"
    assert verdict([100, 101, 99], [80, 81, 79], 0.1, "higher")["verdict"] == "worse"
    assert verdict([100, 101, 99], [80, 81, 79], 0.1, "lower")["verdict"] == "better"
    assert verdict([100, 150, 60], [100, 101, 99], 0.1, "lower")["verdict"] == "unresolved"
    # A spread wider than the bound still resolves when B beats A every time.
    assert verdict([100, 150, 60], [40, 41, 39], 0.1, "lower")["verdict"] == "better"


def test_compare_exits_nonzero_on_worse(tmp_path):
    def report(value):
        run = {"metrics": {"ops_per_s": {"value": value, "unit": "ops/s"}}}
        return {"workloads": {"storm-bare": {"runs": [run, run, run]}}}

    base, slower = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(report(1000.0)))
    slower.write_text(json.dumps(report(700.0)))
    assert _cli("compare", str(base), str(base)).returncode == 0
    done = _cli("compare", str(base), str(slower))
    assert done.returncode == 1
    assert "worse" in done.stdout


def test_traced_run_emits_every_declared_metric_with_full_coverage(tmp_path):
    done = _cli("trace", "--seconds", "1", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "trace.json").read_text())
    assert result["correct"]
    assert set(result["metrics"]) == set(declared_metrics(benchmark_spec(), True))
    for name in WORKLOADS:
        assert result["detail"][name]["coverage"] >= 0.95
        spans = (tmp_path / f"spans-{name}.jsonl").read_text().splitlines()
        assert json.loads(spans[0]).keys() == {"id", "name", "start_ns", "end_ns", "parent", "op"}
    layers = {
        json.loads(line)["name"].split(".")[0]
        for name in WORKLOADS
        for line in (tmp_path / f"spans-{name}.jsonl").read_text().splitlines()
    }
    assert layers == {"core", "threadsafe", "supervision", "obs", "durability",
                      "sharding", "backends"}
