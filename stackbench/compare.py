"""Compare two result files workload by workload, metric by metric.

For every end-to-end metric of every workload both files hold, the
verdict is one of:

``better``
    the median moved the good way by more than the metric's bound;
``worse``
    the median moved the bad way by more than the bound;
``within``
    the medians differ by no more than the bound;
``unresolved``
    the run-to-run spread of either file (quartile distance over median,
    across its runs) is wider than the bound, so a change that size could
    be noise -- unless every run of B beats every run of A.

Bounds and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, List

from stackbench.stats import median, relative_iqr


def run_values(result: dict, workload: str, metric: str) -> List[float]:
    """The metric's value in each run of ``workload`` in a result file."""
    runs = result["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def verdict(a: List[float], b: List[float], bound: float, better: str) -> Dict[str, object]:
    """Judge B against A for one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    base, new = median(a), median(b)
    worse_by = sign * (new - base) / base
    spread = max(relative_iqr(a), relative_iqr(b))
    b_always_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound and not b_always_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    elif worse_by < -bound or (spread > bound and b_always_better):
        outcome = "better"
    else:
        outcome = "within"
    return {
        "verdict": outcome,
        "a": base,
        "b": new,
        "change": (new - base) / base,
        "spread": spread,
        "bound": bound,
        "runs": [len(a), len(b)],
    }


def compare(a: dict, b: dict, spec: dict) -> Dict[str, Dict[str, dict]]:
    """Verdicts by workload, then metric, for workloads in both files."""
    table: Dict[str, Dict[str, dict]] = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        table[name] = {}
        for metric in spec["end_to_end"]:
            before = run_values(a, name, metric["name"])
            after = run_values(b, name, metric["name"])
            if before and after:
                table[name][metric["name"]] = verdict(
                    before, after, metric["bound"], metric["better"]
                )
    return table
