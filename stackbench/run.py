"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 stackbench/run.py --workload storm-bare --seed 1987 --seconds 20 --trace 0

Prints every metric as ``name value unit``, then, as the last line, one JSON
object with exactly ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``. Exits nonzero, printing no result, when the
program under test is missing or a measurement fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from stackbench.runner import (
        DEFAULT_SEED,
        MeasurementError,
        benchmark_spec,
        declared_metrics,
        run_in_subprocess,
    )

    spec = benchmark_spec()
    parser = argparse.ArgumentParser(prog="stackbench/run.py")
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload["name"] for workload in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics(spec, bool(args.trace))
    try:
        result = run_in_subprocess(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except MeasurementError as exc:
        print(f"stackbench: {exc}", file=sys.stderr)
        return 2
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        print(
            "stackbench: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}",
            file=sys.stderr,
        )
        return 2
    print(f"# host {json.dumps(result['provenance'], sort_keys=True)}")
    for name in declared:
        print(f"{args.workload} {name} {metrics[name]['value']!r} {metrics[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: metrics[name] for name in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
