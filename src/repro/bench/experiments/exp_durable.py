"""DURABLE: what durability costs, and that crashes cost *nothing*.

PR 8's durable timer service journals every mutation before applying it
(write-ahead logging), takes periodic snapshots, and replays the tail
after a crash. This experiment prices the three promises:

* **journal overhead** — the full differential-chaos plan runs once
  in-memory (:func:`repro.faults.chaos.run_chaos`) and once per fsync
  policy through :class:`~repro.durability.service.DurableScheduler`
  (``sync="never" | "batch" | "always"``). Every durable run must
  produce a bit-identical :meth:`ChaosResult.fingerprint`; group commit
  must amortise fsyncs (strictly fewer than ``always``).
* **recovery replay throughput** — a journal of tens of thousands of
  records is reduced back into a live scheduler, timed; a second run
  at the default snapshot cadence shows replay is bounded by the tail
  since the last snapshot (at most ``snapshot_every`` plus its rows),
  not the journal's lifetime length.
* **crash transparency** — the service is killed at journal sequence
  numbers spanning the plan (log left missing, torn, corrupt, and fully
  durable at the kill point), recovered, and the resumed run's
  fingerprint must equal the uninterrupted one on every row.

Fast mode keeps every fingerprint and structural gate but skips the
wall-clock ones (overhead ratio, replay floor) — those are noise at
smoke scale and on shared CI runners.

``make bench-durable`` exports ``BENCH_durable.json``;
``benchmarks/test_durable.py`` re-validates the checked-in rows, and the
CI ``durable-smoke`` job runs the ``--fast`` variant.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.bench.result import ExperimentResult

#: fsync policies priced against the in-memory baseline.
SYNC_MODES = ("never", "batch", "always")

#: (kill sequence, crash mode) pairs for the transparency rows — early /
#: mid / late in the plan, one per journal end-state.
KILL_POINTS: Tuple[Tuple[int, str], ...] = (
    (40, "before"),
    (150, "torn"),
    (400, "corrupt"),
    (600, "after"),
)

#: Schemes the crash rows cover (list + hashed wheel + hierarchical).
CRASH_SCHEMES = ("scheme1", "scheme6", "scheme7")

#: Full-mode wall-clock gates. Journaling every mutation as a JSON line
#: is real work — the ceiling prices group commit, not a free lunch.
OVERHEAD_CEILING = 25.0  # sync="batch" at most this multiple of in-memory
REPLAY_FLOOR = 5_000.0  # records/second reduced during recovery


def _timed(func, repeats: int):
    """Best-of-``repeats`` wall-clock; first run's value is kept."""
    value = func()
    best = value[-1]
    for _ in range(repeats - 1):
        best = min(best, func()[-1])
    return value[:-1] + (best,)


def _memory_run(scheme: str):
    """One uninterrupted in-memory chaos run, timed."""
    from repro.faults.chaos import run_chaos

    started = perf_counter()
    result = run_chaos(scheme)
    return result.fingerprint(), perf_counter() - started


def _durable_run(scheme: str, sync: str, **kwargs):
    """One uninterrupted durable chaos run, timed."""
    from repro.faults.chaos_durable import run_chaos_durable

    started = perf_counter()
    run = run_chaos_durable(scheme, sync=sync, **kwargs)
    return run, perf_counter() - started


def _build_journal(
    directory, n_ops: int, snapshot_every: Optional[int]
) -> Tuple[int, int]:
    """Write a mixed-op journal; returns (final pending, final tick)."""
    from repro.core import make_scheduler
    from repro.durability.service import DurableScheduler

    rng = random.Random(0xD1CE)
    durable = DurableScheduler(
        make_scheduler("scheme6", table_size=512),
        directory,
        sync="never",
        snapshot_every=snapshot_every,
    )
    live: List[str] = []
    for index in range(n_ops):
        roll = rng.random()
        if roll < 0.70:
            key = f"t{index}"
            durable.start_timer(rng.randint(1, 5_000), request_id=key)
            live.append(key)
        elif roll < 0.85 and live:
            key = live.pop(rng.randrange(len(live)))
            if durable.is_pending(key):  # it may already have expired
                durable.stop_timer(key)
        else:
            durable.advance(rng.randint(1, 8))
    pending, tick = durable.pending_count, durable.now
    durable.close()
    return pending, tick


def _recovery_row(n_ops: int, snapshot_every: Optional[int]):
    """Build a journal, recover it, time the replay; count recovered rows."""
    from repro.core import make_scheduler
    from repro.durability.service import recover

    directory = tempfile.mkdtemp(prefix="repro-durable-bench-")
    try:
        pending, tick = _build_journal(directory, n_ops, snapshot_every)
        started = perf_counter()
        recovered = recover(
            directory, lambda: make_scheduler("scheme6", table_size=512)
        )
        elapsed = perf_counter() - started
        report = recovered.recovery
        same = recovered.pending_count == pending and recovered.now == tick
        rows = recovered.state.rows
        recovered.close()
        return report, elapsed, same, rows
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def durable_service(fast: bool = False) -> ExperimentResult:
    """Journal overhead, recovery throughput, crash transparency."""
    from repro.durability.service import DEFAULT_SNAPSHOT_EVERY
    from repro.faults.chaos_durable import run_chaos_durable

    repeats = 2 if fast else 3
    replay_ops = 2_000 if fast else 20_000
    result = ExperimentResult(
        experiment_id="DURABLE",
        title="Durable service: journal overhead and crash recovery",
        paper_claim=(
            "a timer facility worth its name survives its host: write-"
            "ahead journaling prices each START/STOP at one appended "
            "record (group commit amortising the fsyncs), snapshots "
            "bound recovery replay to the tail, and a crash at any "
            "journal sequence — log missing, torn, or corrupt at the "
            "point of death — recovers to a fingerprint bit-identical "
            "to a run that never died"
        ),
        headers=[
            "phase",
            "config",
            "seconds",
            "records",
            "fsyncs",
            "relative",
            "identical",
        ],
    )
    measurements: List[Dict[str, object]] = []

    # -- phase 1: journaling overhead ----------------------------------
    base_fingerprint, memory_seconds = _timed(
        lambda: _memory_run("scheme6"), repeats
    )
    result.add_row(
        "overhead", "in-memory", f"{memory_seconds:.4f}", "-", "-", "1.00x", "-"
    )
    measurements.append(
        {
            "phase": "overhead",
            "config": "in-memory",
            "seconds": memory_seconds,
            "records": None,
            "fsyncs": None,
            "overhead_vs_memory": 1.0,
            "identical": None,
            "gated": False,
        }
    )
    fsyncs_by_mode: Dict[str, int] = {}
    records_by_mode: Dict[str, int] = {}
    for sync in SYNC_MODES:
        run, seconds = _timed(
            lambda sync=sync: _durable_run("scheme6", sync), repeats
        )
        ratio = seconds / memory_seconds if memory_seconds > 0 else 0.0
        identical = run.result.fingerprint() == base_fingerprint
        fsyncs_by_mode[sync] = run.fsyncs
        records_by_mode[sync] = run.records_appended
        gated = not fast and sync == "batch"
        result.add_row(
            "overhead",
            f"sync={sync}",
            f"{seconds:.4f}",
            run.records_appended,
            run.fsyncs,
            f"{ratio:.2f}x",
            "yes" if identical else "NO",
        )
        result.check(
            f"overhead/sync={sync}: fingerprint identical to in-memory",
            identical,
        )
        if gated:
            result.check(
                f"overhead/sync=batch: {ratio:.2f}x <= "
                f"{OVERHEAD_CEILING:.0f}x in-memory",
                ratio <= OVERHEAD_CEILING,
            )
        measurements.append(
            {
                "phase": "overhead",
                "config": f"sync={sync}",
                "seconds": seconds,
                "records": run.records_appended,
                "fsyncs": run.fsyncs,
                "overhead_vs_memory": ratio,
                "identical": identical,
                "gated": gated,
            }
        )
    result.check(
        "overhead: every sync mode journals the identical record count",
        len(set(records_by_mode.values())) == 1,
    )
    result.check(
        "overhead: group commit amortises fsyncs "
        f"(batch {fsyncs_by_mode['batch']} < always "
        f"{fsyncs_by_mode['always']})",
        fsyncs_by_mode["batch"] < fsyncs_by_mode["always"],
    )
    result.check(
        "overhead: sync=never fsyncs at most on the final flush",
        fsyncs_by_mode["never"] <= 1,
    )

    # -- phase 2: recovery replay throughput ---------------------------
    report, elapsed, same, _rows = _recovery_row(replay_ops, snapshot_every=None)
    throughput = report.replayed_records / elapsed if elapsed > 0 else 0.0
    result.add_row(
        "recovery",
        f"full replay ({replay_ops} ops)",
        f"{elapsed:.4f}",
        report.replayed_records,
        "-",
        f"{throughput:,.0f} rec/s",
        "yes" if same else "NO",
    )
    result.check(
        "recovery/full: replayed state matches the pre-crash service", same
    )
    result.check(
        "recovery/full: no snapshot -> the whole journal is replayed",
        report.snapshot_seq == 0
        and report.replayed_records == report.last_seq,
    )
    if not fast:
        result.check(
            f"recovery/full: {throughput:,.0f} rec/s >= "
            f"{REPLAY_FLOOR:,.0f} rec/s replay floor",
            throughput >= REPLAY_FLOOR,
        )
    measurements.append(
        {
            "phase": "recovery",
            "config": "full-replay",
            "ops": replay_ops,
            "seconds": elapsed,
            "records": report.replayed_records,
            "throughput_records_per_s": throughput,
            "snapshot_seq": report.snapshot_seq,
            "identical": same,
            "gated": not fast,
        }
    )
    every = DEFAULT_SNAPSHOT_EVERY
    snap_report, snap_elapsed, snap_same, snap_rows = _recovery_row(
        replay_ops, snapshot_every=every
    )
    result.add_row(
        "recovery",
        "snapshot-bounded tail",
        f"{snap_elapsed:.4f}",
        snap_report.replayed_records,
        "-",
        f"snap@{snap_report.snapshot_seq}",
        "yes" if snap_same else "NO",
    )
    result.check(
        "recovery/snapshot: replayed state matches the pre-crash service",
        snap_same,
    )
    result.check(
        "recovery/snapshot: replay bounded to the tail since the snapshot "
        f"({snap_report.replayed_records} == {snap_report.last_seq} - "
        f"{snap_report.snapshot_seq})",
        snap_report.snapshot_seq > 0
        and snap_report.replayed_records
        == snap_report.last_seq - snap_report.snapshot_seq
        and snap_report.replayed_records < report.replayed_records,
    )
    result.check(
        "recovery/snapshot: tail within snapshot_every + rows "
        f"({snap_report.replayed_records} <= {every} + {snap_rows})",
        snap_report.replayed_records <= every + snap_rows,
    )
    measurements.append(
        {
            "phase": "recovery",
            "config": "snapshot-bounded",
            "ops": replay_ops,
            "seconds": snap_elapsed,
            "records": snap_report.replayed_records,
            "throughput_records_per_s": (
                snap_report.replayed_records / snap_elapsed
                if snap_elapsed > 0
                else 0.0
            ),
            "snapshot_seq": snap_report.snapshot_seq,
            "snapshot_every": every,
            "rows": snap_rows,
            "identical": snap_same,
            "gated": False,
        }
    )

    # -- phase 3: crash transparency -----------------------------------
    for scheme in CRASH_SCHEMES:
        scheme_base, _ = _memory_run(scheme)
        for seq, mode in KILL_POINTS:
            run = run_chaos_durable(scheme, kill_at_seq=seq, crash_mode=mode)
            identical = run.crashed and (
                run.result.fingerprint() == scheme_base
            )
            result.add_row(
                "crash",
                f"{scheme} kill@{seq} {mode}",
                "-",
                run.recovery.replayed_records if run.recovery else "-",
                run.fsyncs,
                f"re-armed {run.recovery.pending}" if run.recovery else "-",
                "yes" if identical else "NO",
            )
            result.check(
                f"crash/{scheme}@{seq}/{mode}: recovered fingerprint "
                "bit-identical to the uninterrupted run",
                identical,
            )
            measurements.append(
                {
                    "phase": "crash",
                    "config": f"{scheme}@{seq}/{mode}",
                    "scheme": scheme,
                    "kill_at_seq": seq,
                    "crash_mode": mode,
                    "replayed_records": (
                        run.recovery.replayed_records if run.recovery else None
                    ),
                    "re_armed": run.recovery.pending if run.recovery else None,
                    "identical": identical,
                    "gated": True,
                }
            )

    result.data = {
        "mode": "fast" if fast else "full",
        "repeats": repeats,
        "replay_ops": replay_ops,
        "sync_modes": list(SYNC_MODES),
        "kill_points": [list(point) for point in KILL_POINTS],
        "crash_schemes": list(CRASH_SCHEMES),
        "overhead_ceiling": OVERHEAD_CEILING,
        "replay_floor_records_per_s": REPLAY_FLOOR,
        "measurements": measurements,
    }
    if fast:
        result.note(
            "fast mode: wall-clock gates (overhead ceiling, replay floor) "
            "skipped; fingerprint identity and fsync amortisation still "
            "asserted on every row"
        )
    result.note(
        "overhead multiples price the worst case: the chaos plan is pure "
        "bookkeeping with empty callbacks, so every journaled byte shows "
        "up as relative cost that a real Expiry_Action would dilute"
    )
    result.note(
        "crash rows re-run the full differential-chaos plan, die at the "
        "stated journal seq with the log left in the stated end-state, "
        "recover, and finish — identity means the death is unobservable"
    )
    return result
