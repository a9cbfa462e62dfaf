"""One measurement in a fresh interpreter; prints its result as one JSON line.

Started by :func:`stackbench.runner.run_in_subprocess`, which sets
``PYTHONHASHSEED`` from the seed and puts the program under test on the
path. ``--trace 1`` runs the whole traced run (every workload, the ledger
and the live runtime row), whatever ``--workload`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m stackbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="directory for span JSONL")
    parser.add_argument("--fault", default=None, help="a stackbench.faults proxy")
    args = parser.parse_args(argv)

    from stackbench import WORK
    from stackbench.host import provenance

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from stackbench.tracing import trace_all

            result = trace_all(args.seed, args.seconds, work, args.spans)
        else:
            from stackbench.faults import FAULTS
            from stackbench.measure import WORKLOADS, run_workload

            fault = FAULTS[args.fault] if args.fault else None
            result = run_workload(
                WORKLOADS[args.workload], args.seed, args.seconds, work, fault
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result["provenance"] = provenance(args.seed)
    result["workload"] = args.workload
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
