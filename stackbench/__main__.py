"""``python -m stackbench {run,trace,compare}`` from the repository root.

``run`` measures workloads, each run in its own fresh interpreter, prints
every end-to-end metric with its name, unit and workload, and exits
nonzero if any expiry disagreed with the oracle or any call raised.
``trace`` makes one traced run and writes its spans and per-layer metrics
to a directory. ``compare`` judges one result file against another with
the bounds in ``BENCHMARK.json`` and exits nonzero on any "worse".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stackbench.compare import compare
from stackbench.host import provenance
from stackbench.runner import (
    DEFAULT_SEED,
    MeasurementError,
    benchmark_spec,
    declared_metrics,
    run_in_subprocess,
)
from stackbench.stats import median, relative_iqr


def _run(args, spec: dict) -> int:
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    declared = declared_metrics(spec, trace=False)
    report = {
        "provenance": provenance(args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs_per_workload": args.runs,
        "workloads": {},
    }
    failed = 0
    for name in names:
        runs = []
        for _ in range(args.runs):
            runs.append(
                run_in_subprocess(name, args.seed, args.seconds, False, fault=args.fault)
            )
        attempted = sum(run["attempted"] for run in runs)
        failures = sum(run["failed"] for run in runs)
        failed += failures
        report["workloads"][name] = {
            "runs": runs,
            "failed_frac": failures / attempted,
        }
        for metric, unit in declared.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            print(
                f"{name:20s} {metric:16s} {median(values):14.4f} {unit:6s}"
                f" spread {relative_iqr(values):.3f}"
            )
        print(f"{name:20s} {'failed_frac':16s} {failures / attempted:14.4f} ratio")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


def _trace(args, spec: dict) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_in_subprocess(
        "all", args.seed, args.seconds, True, spans=str(out.resolve())
    )
    for name, unit in declared_metrics(spec, trace=True).items():
        print(f"{name:44s} {result['metrics'][name]['value']:14.4f} {unit}")
    for part, detail in result["detail"].items():
        if "coverage" in detail:
            print(f"{part:20s} self-time coverage {detail['coverage']:.4f}")
    (out / "trace.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0 if result["correct"] else 1


def _compare(args, spec: dict) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    table = compare(a, b, spec)
    worse = 0
    for workload, metrics in table.items():
        for metric, row in metrics.items():
            worse += row["verdict"] == "worse"
            print(
                f"{workload:20s} {metric:16s} {row['verdict']:10s}"
                f" {row['a']:14.4f} -> {row['b']:14.4f}"
                f" ({row['change']:+.3f}, spread {row['spread']:.3f},"
                f" bound {row['bound']:.2f})"
            )
    return 1 if worse else 0


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(prog="python -m stackbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure the end-to-end metrics")
    run.add_argument(
        "--workload",
        action="append",
        choices=[workload["name"] for workload in spec["workloads"]],
        help="repeat to pick several; default: all",
    )
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=spec["run_seconds"])
    run.add_argument("--runs", type=int, default=3, help="fresh runs per workload")
    run.add_argument("--out", help="write every run's result here (JSON)")
    run.add_argument("--fault", help=argparse.SUPPRESS)

    trace = commands.add_parser("trace", help="the traced run, per-layer metrics")
    trace.add_argument("--seed", type=int, default=DEFAULT_SEED)
    trace.add_argument("--seconds", type=float, default=spec["run_seconds"])
    trace.add_argument("--out", required=True, help="directory for spans and trace.json")

    comparison = commands.add_parser("compare", help="judge B.json against A.json")
    comparison.add_argument("a")
    comparison.add_argument("b")

    args = parser.parse_args(argv)
    try:
        return {"run": _run, "trace": _trace, "compare": _compare}[args.command](
            args, spec
        )
    except MeasurementError as exc:
        print(f"stackbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
