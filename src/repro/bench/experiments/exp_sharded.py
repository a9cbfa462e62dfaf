"""SHARDED: Appendix B's per-shard queues vs the global-semaphore facade.

Appendix A.2 prices the "one semaphore around the whole timer module"
discipline and warns it is only tolerable when the work *under* the
semaphore is small; Appendix B counters with per-processor timer queues.
This bench stages both halves of that argument with real threads: the
same seeded timer population is started by ``N_CLIENT_THREADS``
concurrent client threads against

* the global-lock :class:`~repro.core.threadsafe.ThreadSafeScheduler`
  (one lock acquisition per START_TIMER, all threads contending), and
* a :class:`~repro.sharding.service.ShardedTimerService` at 1/2/4/8
  shards, each thread issuing ``start_many`` batches (one lock hold per
  shard per batch),

for two per-shard schemes:

* **scheme2** (ordered list, START is O(n) under the lock) — the exact
  situation A.2 warns about. Sharding shrinks every scan to O(n/k), so
  the total work drops by the shard count: the speedup is algorithmic
  and survives even a GIL-serialised host. The ≥ 2x acceptance bar
  applies here, at 4 shards.
* **scheme6** (hashed wheel, START is O(1)) — the control. With
  constant-time critical sections there is no scan to shrink; on a
  GIL-serialised interpreter the sharded configs price pure partitioning
  overhead (stable hash + batch grouping), and the speedup hovers near
  1x. On real SMP hardware this regime is where per-shard *locks* pay;
  under a GIL only per-shard *work* can.

Whatever the configuration, the expiry fingerprint — the sorted
``(request_id, fired tick)`` multiset — must be identical to the same
scheme's global-lock run: sharding may only change where timers live
and what the locks cost, never what fires when. (Sorted, not sequence,
comparison: same-tick global ordering legitimately differs between a
single queue and a shard merge.)

**The backend axis.** The rows above all run in one interpreter, where
the GIL caps scheme6 at ~1x. The sweep's second half re-runs the
scheme6 service at 4 shards with ``store="soa"`` across every
*execution backend* available on the host (``REPRO_SHARDED_BACKENDS``
narrows the sweep): in-process locks, and one worker process per shard
with the timer columns in shared memory. Fingerprint identity is asserted on every row; the ≥ 2x
multiprocessing-vs-inprocess throughput bar is enforced only when the
host actually has ≥ 2 usable CPUs (the JSON records ``cpus`` so a
reader can tell a genuine regression from a single-core runner).

All configurations meter with ``NULL_COUNTER``: this is the one
wall-clock bench where the abstract cost model would add shared-counter
traffic that the sharded service would then have to serialise.

``make bench-sharded`` exports ``BENCH_sharded.json``; the CI
``bench-smoke`` job runs ``--fast`` where only the fingerprint identity
is asserted (wall-clock ratios are noise at smoke scale).
"""

from __future__ import annotations

import os
import random
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.bench.result import ExperimentResult
from repro.core import make_scheduler
from repro.core.threadsafe import ThreadSafeScheduler
from repro.cost.counters import NULL_COUNTER
from repro.sharding.backends import BACKEND_NAMES, backend_availability
from repro.sharding.service import ShardedTimerService

#: Configuration label -> shard count (None = global-lock facade).
CONFIGS: List[Tuple[str, Optional[int]]] = [
    ("global-lock", None),
    ("sharded-1", 1),
    ("sharded-2", 2),
    ("sharded-4", 4),
    ("sharded-8", 8),
]

#: scheme -> (full-mode timers, fast-mode timers). The ordered list's
#: O(n) inserts cap its population; the wheel takes a bigger one.
SCHEMES: Dict[str, Tuple[int, int]] = {
    "scheme2": (2000, 600),
    "scheme6": (8000, 2000),
}

N_CLIENT_THREADS = 4
BATCH_SIZE = 128
SPEEDUP_FLOOR = 2.0
SPEEDUP_SCHEME = "scheme2"
SPEEDUP_CONFIG = "sharded-4"

#: The backend sweep: scheme6 + SoA columns at this shard count, one row
#: per execution backend. The ≥ 2x bar compares multiprocessing against
#: the in-process backend — and only where the host can actually run
#: shards on separate CPUs.
BACKEND_SCHEME = "scheme6"
BACKEND_SHARDS = 4
BACKEND_SPEEDUP_FLOOR = 2.0
BACKEND_BASELINE = "inprocess"
BACKEND_CONTENDER = "multiprocessing"


def _usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _backend_sweep() -> List[str]:
    """Backends to bench: ``REPRO_SHARDED_BACKENDS`` (comma-separated)
    filtered to what the host can run, else everything available."""
    raw = os.environ.get("REPRO_SHARDED_BACKENDS", "")
    wanted = [name.strip() for name in raw.split(",") if name.strip()] or list(
        BACKEND_NAMES
    )
    report = backend_availability()
    return [
        name
        for name in wanted
        if report.get(name, (False, "unknown"))[0]
    ]


def _make_plan(n_timers: int, horizon: int, seed: int) -> List[Tuple[str, int]]:
    """The shared workload: ``(request_id, interval)`` per timer.

    Intervals span the full horizon so expiries exercise the whole
    structure; ids carry the issuing thread's index so the per-thread
    partitions are reproducible.
    """
    rng = random.Random(seed)
    return [
        (f"c{i % N_CLIENT_THREADS}-{i}", rng.randint(1, horizon))
        for i in range(n_timers)
    ]


def _build(
    scheme: str,
    shards: Optional[int],
    horizon: int,
    backend: Optional[str] = None,
    n_timers: int = 0,
):
    # Each shard gets the same full-resolution structure as the global
    # config (Appendix B gives every processor its own complete queue):
    # a wheel of horizon/shards slots would wrap k times per horizon and
    # rescan every resident timer each pass, pricing memory savings as
    # drive cost.
    kwargs: Dict[str, object] = (
        {"table_size": horizon} if scheme == "scheme6" else {}
    )
    if shards is None:
        return ThreadSafeScheduler(
            make_scheduler(scheme, counter=NULL_COUNTER, **kwargs)
        )
    if backend is None:
        return ShardedTimerService(
            scheme, shards, counter=NULL_COUNTER, **kwargs
        )
    # Backend rows carry the timer state in SoA columns so the
    # multiprocessing backend gets its shared-memory data plane; blocks
    # are sized to the full population landing on one shard.
    shm_rows = 1 << max(10, (2 * n_timers).bit_length())
    return ShardedTimerService(
        scheme,
        shards,
        counter=NULL_COUNTER,
        store="soa",
        backend=backend,
        backend_options=(
            {"shm_rows": shm_rows} if backend == "multiprocessing" else None
        ),
        **kwargs,
    )


def _drive(
    scheme: str,
    shards: Optional[int],
    plan: List[Tuple[str, int]],
    horizon: int,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """One configuration's measured run.

    Phase 1: client threads race to start their partition of the plan
    (per-op against the facade, ``start_many`` batches against the
    service). Phase 2: the main thread advances to the horizon. The
    aggregate throughput prices both phases together — the paper's
    START_TIMER + PER_TICK_BOOKKEEPING traffic for one maintenance
    cycle.
    """
    scheduler = _build(scheme, shards, horizon, backend, len(plan))
    partitions = [plan[t::N_CLIENT_THREADS] for t in range(N_CLIENT_THREADS)]
    barrier = threading.Barrier(N_CLIENT_THREADS + 1)
    errors: List[BaseException] = []

    def client(partition: List[Tuple[str, int]]) -> None:
        try:
            barrier.wait()
            if shards is None:
                for request_id, interval in partition:
                    scheduler.start_timer(interval, request_id=request_id)
            else:
                for at in range(0, len(partition), BATCH_SIZE):
                    scheduler.start_many(
                        [
                            (interval, request_id)
                            for request_id, interval in partition[at:at + BATCH_SIZE]
                        ]
                    )
        except BaseException as exc:  # noqa: BLE001 - surfaced to the bench
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(partition,))
        for partition in partitions
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start_begin = perf_counter()
    for thread in threads:
        thread.join()
    start_seconds = perf_counter() - start_begin
    if errors:
        raise errors[0]

    tick_begin = perf_counter()
    expired = scheduler.advance_to(horizon)
    tick_seconds = perf_counter() - tick_begin

    fingerprint = sorted(
        (str(timer.request_id), timer.expired_at) for timer in expired
    )
    if shards is None:
        contended: object = scheduler.contended_acquisitions
        imbalance = None
    else:
        contended = list(scheduler.contended_acquisitions)
        imbalance = scheduler.introspect()["imbalance"]
    outcome = {
        "fingerprint": fingerprint,
        "expiries": len(expired),
        "pending_left": scheduler.pending_count,
        "start_seconds": start_seconds,
        "tick_seconds": tick_seconds,
        "total_seconds": start_seconds + tick_seconds,
        "contended_acquisitions": contended,
        "imbalance": imbalance,
    }
    if shards is not None:
        scheduler.close()  # remote backends hold workers + shared memory
    return outcome


def _backend_axis(
    result: ExperimentResult,
    plan: List[Tuple[str, int]],
    horizon: int,
    n_timers: int,
    total_ops: int,
    reference_fingerprint: List[Tuple[str, int]],
    fast: bool,
) -> List[Dict[str, object]]:
    """One row per execution backend: scheme6 + SoA columns, 4 shards.

    Every row's expiry fingerprint must equal the global-lock facade's
    regardless of backend; the ≥ 2x multiprocessing bar is enforced only
    on hosts with ≥ 2 usable CPUs (and never in ``--fast`` mode).
    """
    sweep = _backend_sweep()
    cpus = _usable_cpus()
    runs: Dict[str, Dict[str, object]] = {}
    rows: List[Dict[str, object]] = []
    for backend in sweep:
        run = _drive(
            BACKEND_SCHEME, BACKEND_SHARDS, plan, horizon, backend=backend
        )
        runs[backend] = run
        label = f"sharded-{BACKEND_SHARDS}-soa@{backend}"
        same = run["fingerprint"] == reference_fingerprint
        ops_per_s = total_ops / run["total_seconds"]
        baseline = runs.get(BACKEND_BASELINE)
        speedup = (
            baseline["total_seconds"] / run["total_seconds"]
            if baseline is not None
            else None
        )
        result.add_row(
            BACKEND_SCHEME,
            label,
            f"{run['start_seconds']:.4f}",
            f"{run['tick_seconds']:.4f}",
            f"{run['total_seconds']:.4f}",
            f"{ops_per_s:,.0f}",
            f"{speedup:.2f}x" if speedup is not None else "—",
            "yes" if same else "NO",
        )
        result.check(
            f"{BACKEND_SCHEME}/{label}: expiry fingerprint identical to "
            "global-lock",
            same,
        )
        result.check(
            f"{BACKEND_SCHEME}/{label}: every timer fired by the horizon",
            run["expiries"] == n_timers and run["pending_left"] == 0,
        )
        rows.append(
            {
                "scheme": BACKEND_SCHEME,
                "config": label,
                "shards": BACKEND_SHARDS,
                "backend": backend,
                "store": "soa",
                "cpus": cpus,
                "n_timers": n_timers,
                "start_seconds": run["start_seconds"],
                "tick_seconds": run["tick_seconds"],
                "total_seconds": run["total_seconds"],
                "ops_per_second": ops_per_s,
                "speedup_vs_inprocess_backend": speedup,
                "expiries": run["expiries"],
                "contended_acquisitions": run["contended_acquisitions"],
                "imbalance": run["imbalance"],
                "identical_fingerprint": same,
            }
        )
    if (
        not fast
        and BACKEND_BASELINE in runs
        and BACKEND_CONTENDER in runs
    ):
        ratio = (
            runs[BACKEND_BASELINE]["total_seconds"]
            / runs[BACKEND_CONTENDER]["total_seconds"]
        )
        if cpus >= 2:
            result.check(
                f"{BACKEND_SCHEME}/soa@{BACKEND_CONTENDER}: throughput ≥ "
                f"{BACKEND_SPEEDUP_FLOOR:.0f}x the {BACKEND_BASELINE} "
                f"backend at {BACKEND_SHARDS} shards",
                ratio >= BACKEND_SPEEDUP_FLOOR,
            )
        else:
            result.note(
                f"backend ≥{BACKEND_SPEEDUP_FLOOR:.0f}x gate skipped: the "
                f"host exposes {cpus} usable CPU(s), so cross-process "
                "wall-clock parallelism is physically impossible here; "
                "fingerprint identity is still asserted on every backend "
                f"row (measured {BACKEND_CONTENDER}/{BACKEND_BASELINE} "
                f"ratio: {ratio:.2f}x)"
            )
    missing = [name for name in BACKEND_NAMES if name not in sweep]
    if missing:
        report = backend_availability()
        for name in missing:
            result.note(
                f"backend row skipped: {name} — "
                f"{report.get(name, (False, 'not in sweep'))[1]}"
            )
    return rows


def sharded_throughput(fast: bool = False) -> ExperimentResult:
    """Global-lock vs sharded service under concurrent client threads."""
    horizon = 512 if fast else 2048
    result = ExperimentResult(
        experiment_id="SHARDED",
        title="Sharded SMP service vs global-semaphore facade (Appendix B)",
        paper_claim=(
            "one semaphore around the timer module serialises every "
            "processor on the module's full per-op cost (Appendix A.2); "
            "per-processor queues shrink both the contention and the "
            "work under each lock (Appendix B)"
        ),
        headers=[
            "scheme",
            "config",
            "start s",
            "tick s",
            "total s",
            "ops/s",
            "speedup",
            "identical",
        ],
    )
    measurements: List[Dict[str, object]] = []
    for scheme, (n_full, n_fast) in SCHEMES.items():
        n_timers = n_fast if fast else n_full
        plan = _make_plan(n_timers, horizon, seed=1987)
        total_ops = n_timers + horizon
        runs = {
            label: _drive(scheme, shards, plan, horizon)
            for label, shards in CONFIGS
        }
        reference = runs["global-lock"]
        baseline_ops_per_s = total_ops / reference["total_seconds"]
        for label, shards in CONFIGS:
            run = runs[label]
            same = run["fingerprint"] == reference["fingerprint"]
            ops_per_s = total_ops / run["total_seconds"]
            speedup = ops_per_s / baseline_ops_per_s
            result.add_row(
                scheme,
                label,
                f"{run['start_seconds']:.4f}",
                f"{run['tick_seconds']:.4f}",
                f"{run['total_seconds']:.4f}",
                f"{ops_per_s:,.0f}",
                f"{speedup:.2f}x",
                "yes" if same else "NO",
            )
            result.check(
                f"{scheme}/{label}: expiry fingerprint identical to "
                "global-lock",
                same,
            )
            result.check(
                f"{scheme}/{label}: every timer fired by the horizon",
                run["expiries"] == n_timers and run["pending_left"] == 0,
            )
            measurements.append(
                {
                    "scheme": scheme,
                    "config": label,
                    "shards": shards,
                    "backend": None if shards is None else "inprocess",
                    "store": "object",
                    "n_timers": n_timers,
                    "start_seconds": run["start_seconds"],
                    "tick_seconds": run["tick_seconds"],
                    "total_seconds": run["total_seconds"],
                    "ops_per_second": ops_per_s,
                    "speedup_vs_global_lock": speedup,
                    "expiries": run["expiries"],
                    "contended_acquisitions": run["contended_acquisitions"],
                    "imbalance": run["imbalance"],
                    "identical_fingerprint": same,
                }
            )
        if scheme == SPEEDUP_SCHEME and not fast:
            sharded = total_ops / runs[SPEEDUP_CONFIG]["total_seconds"]
            result.check(
                f"{scheme}/{SPEEDUP_CONFIG}: aggregate start+tick "
                f"throughput ≥ {SPEEDUP_FLOOR:.0f}x the global-lock "
                "facade",
                sharded >= SPEEDUP_FLOOR * baseline_ops_per_s,
            )
        if scheme == BACKEND_SCHEME:
            backend_rows = _backend_axis(
                result, plan, horizon, n_timers, total_ops,
                reference["fingerprint"], fast,
            )
            measurements.extend(backend_rows)
    if fast:
        result.note(
            "fast mode: the ≥2x throughput check is skipped (wall-clock "
            "ratios are noise at smoke scale); fingerprint identity is "
            "still asserted"
        )
    result.note(
        "scheme2 rows are the Appendix A.2 pathology: O(n) inserts under "
        "one lock; k shards scan k-times-shorter lists, so the win is "
        "algorithmic and survives a GIL-serialised host"
    )
    result.note(
        "scheme6 rows are the control: O(1) critical sections leave no "
        "work for sharding to shrink, so on a GIL host the sharded "
        "configs price pure partitioning overhead (~1x); per-shard locks "
        "pay off only on real SMP parallelism"
    )
    result.note(
        "clients issue per-op START_TIMER against the global lock but "
        f"start_many batches of {BATCH_SIZE} against the service: one "
        "lock hold per shard per batch"
    )
    result.note(
        "backend rows re-run scheme6/store=soa at "
        f"{BACKEND_SHARDS} shards across execution backends; the "
        "multiprocessing rows carry timer state in per-shard "
        "shared-memory blocks and cross one pipe per shard per batch"
    )
    result.data = {
        "mode": "fast" if fast else "full",
        "horizon_ticks": horizon,
        "client_threads": N_CLIENT_THREADS,
        "batch_size": BATCH_SIZE,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_scheme": SPEEDUP_SCHEME,
        "speedup_config": SPEEDUP_CONFIG,
        "cpus": _usable_cpus(),
        "backend_sweep": _backend_sweep(),
        "backend_speedup_floor": BACKEND_SPEEDUP_FLOOR,
        "backend_scheme": BACKEND_SCHEME,
        "backend_shards": BACKEND_SHARDS,
        "measurements": measurements,
    }
    return result
