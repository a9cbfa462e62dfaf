"""Run one measurement in a fresh interpreter and collect its result."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import zlib
from typing import Optional

from stackbench import ROOT, SRC

#: Seconds one measurement may take before it is killed as hung.
TIMEOUT_S = 170
#: The seed used when none is given.
DEFAULT_SEED = 1987


class MeasurementError(RuntimeError):
    """A measurement subprocess failed or produced no result."""


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` a run with ``seed`` uses: derived, so one seed
    always lays out its string-keyed dicts the same way."""
    return str(zlib.crc32(f"stackbench:{seed}".encode()) % 4_294_967_295 + 1)


def require_program() -> None:
    """Refuse to run without the program under test beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MeasurementError(
            f"the program under test is missing: no {SRC / 'repro'} package"
        )


def run_in_subprocess(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    spans: Optional[str] = None,
    fault: Optional[str] = None,
) -> dict:
    """Measure in a fresh interpreter with ``PYTHONHASHSEED`` from ``seed``.

    Waits for the subprocess (killing it after :data:`TIMEOUT_S`), and
    returns the JSON object it printed last.
    """
    require_program()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(seed)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    command = [
        sys.executable,
        "-m",
        "stackbench.worker",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
    ]
    if spans:
        command += ["--spans", spans]
    if fault:
        command += ["--fault", fault]
    # A process group of its own, so that a hung measurement is killed
    # together with any shard worker processes it forked.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise MeasurementError(
            f"{workload} (seed {seed}) did not finish in {TIMEOUT_S} s"
        ) from exc
    finally:
        # Whatever is left of the group (a hung measurement, a shard
        # worker that outlived it) is stopped before returning.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise MeasurementError(
            f"{workload} (seed {seed}) failed with exit code "
            f"{process.returncode}:\n{stderr.strip()}"
        )
    return json.loads(lines[-1])


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def declared_metrics(spec: dict, trace: bool) -> dict:
    """Metric name -> unit that a run of the given kind must report."""
    return {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if trace else "end_to_end"]
    }
