"""Bench target + checked-in-baseline gate for experiment DURABLE.

Two layers of defence:

* ``test_durable_experiment`` regenerates the DURABLE table live under
  pytest-benchmark (fast mode by default — fingerprint identity and
  fsync amortisation on every row; REPRO_BENCH_FULL=1 additionally
  enforces the overhead ceiling and replay-throughput floor);
* the ``TestCheckedInBaseline`` class statically validates the committed
  ``BENCH_durable.json`` (the artefact ``make bench-durable``
  regenerates), so a baseline refreshed on a machine where the gates
  failed — or hand-edited into passing — cannot land unnoticed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.conftest import run_experiment_bench

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_durable.json"


def test_durable_experiment(benchmark):
    run_experiment_bench(benchmark, "DURABLE")


@pytest.fixture(scope="module")
def baseline():
    assert BASELINE.exists(), (
        f"{BASELINE.name} missing - run `make bench-durable` and commit it"
    )
    with BASELINE.open(encoding="utf-8") as handle:
        doc = json.load(handle)
    experiments = [
        exp
        for exp in doc.get("experiments", [])
        if exp.get("experiment_id") == "DURABLE"
    ]
    assert len(experiments) == 1, "baseline must hold exactly one DURABLE run"
    return experiments[0]


class TestCheckedInBaseline:
    """Static gates over the committed BENCH_durable.json."""

    def test_full_mode_and_passed(self, baseline):
        assert baseline["data"]["mode"] == "full", (
            "baseline must be regenerated with `make bench-durable`, "
            "not the --fast smoke variant"
        )
        assert baseline["passed"] is True
        assert all(check["passed"] for check in baseline["checks"])

    def test_every_sync_mode_priced_and_identical(self, baseline):
        rows = [
            m
            for m in baseline["data"]["measurements"]
            if m["phase"] == "overhead" and m["config"] != "in-memory"
        ]
        assert {m["config"] for m in rows} == {
            "sync=never",
            "sync=batch",
            "sync=always",
        }
        for m in rows:
            assert m["identical"] is True, m["config"]
            assert m["records"] > 600, (
                f"{m['config']}: every op and outcome must be journaled"
            )

    def test_group_commit_amortises_fsyncs(self, baseline):
        by_config = {
            m["config"]: m
            for m in baseline["data"]["measurements"]
            if m["phase"] == "overhead" and m["config"] != "in-memory"
        }
        assert by_config["sync=never"]["fsyncs"] <= 1
        assert (
            by_config["sync=batch"]["fsyncs"]
            < by_config["sync=always"]["fsyncs"]
        )
        assert (
            by_config["sync=always"]["fsyncs"]
            == by_config["sync=always"]["records"]
        ), "sync=always must fsync once per appended record"

    def test_batched_overhead_meets_the_ceiling(self, baseline):
        batch = next(
            m
            for m in baseline["data"]["measurements"]
            if m["phase"] == "overhead" and m["config"] == "sync=batch"
        )
        assert batch["gated"] is True
        ceiling = baseline["data"]["overhead_ceiling"]
        assert batch["overhead_vs_memory"] <= ceiling, (
            f"sync=batch costs {batch['overhead_vs_memory']:.1f}x, "
            f"ceiling {ceiling:.0f}x"
        )

    def test_recovery_replay_meets_the_floor(self, baseline):
        rows = {
            m["config"]: m
            for m in baseline["data"]["measurements"]
            if m["phase"] == "recovery"
        }
        full = rows["full-replay"]
        floor = baseline["data"]["replay_floor_records_per_s"]
        assert full["identical"] is True
        assert full["throughput_records_per_s"] >= floor
        snap = rows["snapshot-bounded"]
        assert snap["identical"] is True
        assert snap["snapshot_seq"] > 0
        assert snap["records"] < full["records"], (
            "snapshots must bound replay below the journal's full length"
        )
        # Rows never decrease, so the recovered rows bound the rows of
        # the snapshot the tail was counted from.
        assert snap["records"] <= snap["snapshot_every"] + snap["rows"], (
            "the replayed tail must stay within snapshot_every + rows"
        )

    def test_crash_rows_cover_every_mode_and_scheme(self, baseline):
        rows = [
            m
            for m in baseline["data"]["measurements"]
            if m["phase"] == "crash"
        ]
        assert {m["scheme"] for m in rows} == {
            "scheme1",
            "scheme6",
            "scheme7",
        }
        assert {m["crash_mode"] for m in rows} == {
            "before",
            "torn",
            "corrupt",
            "after",
        }
        for m in rows:
            assert m["identical"] is True, m["config"]
            assert m["gated"] is True, m["config"]
            assert m["re_armed"] is not None and m["re_armed"] > 0, (
                f"{m['config']}: recovery must re-arm survivors"
            )
