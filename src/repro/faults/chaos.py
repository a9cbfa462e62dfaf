"""Differential chaos: one fault plan replayed across every scheme.

The oracle trick of ``tests/core/test_advance_fast_path.py`` (two runs
must agree bit-for-bit) generalised to fault tolerance: because a
:class:`~repro.faults.plan.FaultPlan` keys every decision on
``(request_id, attempt)`` and a
:class:`~repro.core.supervision.SupervisedScheduler` keys every backoff
on the same pair, replaying one plan + one client workload over all nine
scheme modules must yield **identical surviving-expiry sequences and
identical retry/quarantine/shed counts** — any divergence is a
scheme-specific fault-handling bug. ``python -m repro chaos`` runs this
as a command; the ``chaos-smoke`` CI job runs it on every push.

Canonicalisation: survivors are compared sorted by ``(client deadline,
request_id)`` rather than firing order, because the two Nichols variants
legitimately fire at rounded ticks — the *set of timers that survive,
and how hard each had to be retried*, is scheme-invariant; the firing
instant is not. Client stops are scheduled strictly before any scheme's
earliest possible (early-fired) deadline so the stop/fire race cannot
diverge between exact and lossy hierarchies.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.errors import TimerStateError, UnknownTimerError
from repro.core.registry import make_scheduler, scheme_names
from repro.core.supervision import RetryPolicy, SupervisedScheduler
from repro.faults.clock import SkewedClock
from repro.faults.injector import (
    AllocationPressure,
    FaultInjector,
    TransientStopRace,
)
from repro.faults.plan import FaultPlan

#: Construction kwargs giving every scheme room for the chaos workload's
#: interval range (<= ~4000 ticks plus retry backoffs).
SCHEME_KWARGS: Dict[str, Dict[str, object]] = {
    "scheme4": {"max_interval": 1 << 13},
    "scheme7": {"slot_counts": (64, 64, 64)},
    "scheme7-lossy": {"slot_counts": (64, 64, 64)},
    "scheme7-onemigration": {"slot_counts": (64, 64, 64)},
}

#: The default plan the CLI and CI smoke replay: callback failures (two ids
#: scripted to exhaust their retries and land in quarantine), simulated slow
#: callbacks, transient stop races, allocator pressure, and a forward + a
#: backward clock jump.
DEFAULT_PLAN = FaultPlan(
    seed=7,
    fail_rate=0.35,
    slow_rate=0.10,
    stop_race_rate=0.5,
    alloc_failure_every=7,
    clock_jumps=((120, 80), (260, -60)),
    scripted={
        "t3": ("fail", "fail", "fail", "fail"),
        "t9": ("fail", "fail", "fail", "fail"),
    },
)


@dataclass(frozen=True)
class ChaosWorkload:
    """A deterministic client-op schedule, identical for every scheme.

    Timers arrive over the first ``arrival_window`` steps with intervals
    drawn either short (level-0 exact on every hierarchy) or long
    (``>= large_min``, where the Nichols variants' early-fire error is
    bounded by one level-1 slot, 63 ticks). Stops are planned only for
    long timers at offsets ``<= interval // 8`` so they always precede
    the earliest possible firing on any scheme, even after the plan's
    forward clock jumps.
    """

    n_timers: int = 40
    horizon: int = 600
    seed: int = 1
    arrival_window: int = 150
    small_max: int = 63
    large_min: int = 512
    large_max: int = 4000
    large_fraction: float = 0.5
    stop_fraction: float = 0.25

    def ops(self) -> Dict[int, List[Tuple[str, str, int]]]:
        """``step -> [("start", key, interval) | ("stop", key, 0)]``."""
        rng = random.Random(self.seed)
        schedule: Dict[int, List[Tuple[str, str, int]]] = {}
        for i in range(self.n_timers):
            key = f"t{i}"
            step = rng.randint(1, self.arrival_window)
            if rng.random() < self.large_fraction:
                interval = rng.randint(self.large_min, self.large_max)
                if rng.random() < self.stop_fraction:
                    offset = rng.randint(1, interval // 8)
                    schedule.setdefault(step + offset, []).append(
                        ("stop", key, 0)
                    )
            else:
                interval = rng.randint(1, self.small_max)
            schedule.setdefault(step, []).append(("start", key, interval))
        return schedule


@dataclass
class ChaosResult:
    """Everything one scheme's chaos run produced."""

    scheme: str
    #: (request_id, client deadline, attempts) sorted by (deadline, id).
    survivors: Tuple[Tuple[str, int, int], ...]
    #: (request_id, attempts, reason) sorted by id.
    quarantined: Tuple[Tuple[str, int, str], ...]
    retries: int
    shed: int
    deferred: int
    dropped: int
    degraded: int
    clock_jumps: int
    overruns: int
    stopped: int
    alloc_skipped: int
    stop_races: int
    injected_failures: int
    injected_hangs: int
    slow_invocations: int
    pending_left: int
    introspection: Dict[str, object] = field(default_factory=dict)

    def fingerprint(self) -> Dict[str, object]:
        """The scheme-invariant subset the differential check compares."""
        return {
            "survivors": self.survivors,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "shed": self.shed,
            "clock_jumps": self.clock_jumps,
            "stopped": self.stopped,
            "alloc_skipped": self.alloc_skipped,
            "stop_races": self.stop_races,
            "injected_failures": self.injected_failures,
            "injected_hangs": self.injected_hangs,
            "slow_invocations": self.slow_invocations,
            "pending_left": self.pending_left,
        }

    def summary_row(self) -> Tuple[object, ...]:
        """One row for the CLI's differential table."""
        return (
            self.scheme,
            len(self.survivors),
            len(self.quarantined),
            self.retries,
            self.shed,
            self.stopped,
            self.clock_jumps,
            self.injected_failures,
        )


def run_chaos(
    scheme: str,
    plan: Optional[FaultPlan] = None,
    workload: Optional[ChaosWorkload] = None,
    retry_policy: Optional[RetryPolicy] = None,
    tick_budget: Optional[int] = None,
    overload_policy: str = "defer",
    drain_ticks: int = 100_000,
    scheme_kwargs: Optional[Dict[str, object]] = None,
) -> ChaosResult:
    """Replay one fault plan + workload against one scheme, supervised.

    Client operations are issued by *step number* (the external clock's
    drive count), then the supervisor syncs to the skewed clock reading —
    so the operation stream, and therefore every planned fault decision,
    is identical whatever scheme sits underneath. After the drive, the
    run drains until idle so every retry chain resolves to a survivor or
    a quarantine entry.

    ``scheme_kwargs`` overlays extra constructor kwargs on the scheme's
    :data:`SCHEME_KWARGS` defaults — e.g. ``{"store": "soa"}`` replays
    the plan against a struct-of-arrays-backed wheel, whose fingerprint
    must match the object store's exactly.
    """
    plan = plan if plan is not None else DEFAULT_PLAN
    workload = workload if workload is not None else ChaosWorkload()
    policy = retry_policy if retry_policy is not None else RetryPolicy(
        max_attempts=3, base_backoff=1, backoff_multiplier=2.0, max_backoff=48
    )
    build_kwargs = dict(SCHEME_KWARGS.get(scheme, {}))
    if scheme_kwargs:
        build_kwargs.update(scheme_kwargs)
    inner = make_scheduler(scheme, **build_kwargs)
    injector = FaultInjector(plan)
    supervised = SupervisedScheduler(
        inner,
        retry_policy=policy,
        tick_budget=tick_budget,
        overload_policy=overload_policy,
        cost_hook=injector.cost_of,
    )
    schedule = workload.ops()
    stopped = 0
    alloc_skipped = 0
    clock = SkewedClock(plan.clock_jumps)
    for step, reading in enumerate(clock.ticks(workload.horizon), start=1):
        for op, key, interval in schedule.get(step, ()):
            if op == "start":
                try:
                    injector.start_timer(supervised, interval, request_id=key)
                except AllocationPressure:
                    alloc_skipped += 1
            else:
                if not supervised.is_pending(key):
                    continue
                try:
                    injector.stop_timer(supervised, key)
                except TransientStopRace:
                    # The race is transient by construction: retry once.
                    try:
                        injector.stop_timer(supervised, key)
                    except (UnknownTimerError, TimerStateError):
                        continue
                stopped += 1
        supervised.sync_clock(reading)
    supervised.run_until_idle(max_ticks=drain_ticks)
    survivors = tuple(
        sorted(
            (
                (str(origin), deadline, attempts)
                for origin, deadline, attempts in supervised.survivors
            ),
            key=lambda row: (row[1], row[0]),
        )
    )
    quarantined = tuple(
        sorted(
            (str(rec.request_id), rec.attempts, rec.reason)
            for rec in supervised.quarantine.values()
        )
    )
    return ChaosResult(
        scheme=scheme,
        survivors=survivors,
        quarantined=quarantined,
        retries=supervised.retries,
        shed=supervised.shed_total,
        deferred=supervised.deferred,
        dropped=supervised.dropped,
        degraded=supervised.degraded,
        clock_jumps=supervised.clock_jumps,
        overruns=supervised.overruns,
        stopped=stopped,
        alloc_skipped=alloc_skipped,
        stop_races=injector.stop_races,
        injected_failures=injector.injected_failures,
        injected_hangs=injector.injected_hangs,
        slow_invocations=injector.slow_invocations,
        pending_left=supervised.supervised_count,
        introspection=supervised.introspect(),
    )


class ChaosSupervisedShard(SupervisedScheduler):
    """One shard of a sharded chaos run: supervision + fault wrapping.

    Owns its *own* :class:`FaultInjector` so the whole assembly lives on
    whichever side of a backend boundary the shard scheduler does — in
    this process (inprocess backend) or inside a worker process
    (multiprocessing backend). Every STARTed callback
    is wrapped at this seam; supervisor re-arms go through the inner
    scheduler directly, so the wrap happens exactly once per client
    timer.

    Determinism across backends: the service routes each request id to
    exactly one shard, so the per-shard attempt maps partition the
    single shared map an unsharded run keeps — and every plan decision
    is a pure function of ``(request_id, attempt)``, so *where* the
    shard executes cannot change any outcome. Summing the per-shard
    injected counters therefore reproduces the shared-injector totals
    exactly. Order-*dependent* seams (allocator pressure, stop races)
    never reach this class — the driver keeps them client-side via
    :meth:`FaultInjector.check_alloc` / ``check_stop_race``.
    """

    def __init__(
        self,
        inner,
        injector: FaultInjector,
        retry_policy: Optional[RetryPolicy] = None,
        tick_budget: Optional[int] = None,
        overload_policy: str = "defer",
    ) -> None:
        self.chaos_injector = injector
        super().__init__(
            inner,
            retry_policy=retry_policy,
            tick_budget=tick_budget,
            overload_policy=overload_policy,
            cost_hook=injector.cost_of,
        )

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback=None,
        user_data: object = None,
    ):
        # key=None: the plan key resolves from the fired timer's origin,
        # so re-arm attempts continue the same per-id series.
        return super().start_timer(
            interval,
            request_id=request_id,
            callback=self.chaos_injector.wrap_action(callback, key=None),
            user_data=user_data,
        )

    def chaos_stats(self) -> Dict[str, object]:
        """This shard's contribution to the run fingerprint (picklable)."""
        return {
            "survivors": [
                (str(origin), deadline, attempts)
                for origin, deadline, attempts in self.survivors
            ],
            "quarantined": [
                (str(rec.request_id), rec.attempts, rec.reason)
                for rec in self.quarantine.values()
            ],
            "retries": self.retries,
            "shed": self.shed_total,
            "deferred": self.deferred,
            "dropped": self.dropped,
            "degraded": self.degraded,
            "clock_jumps": self.clock_jumps,
            "overruns": self.overruns,
            "pending_left": self.supervised_count,
            "injected": self.chaos_injector.counters(),
        }


def build_chaos_shard(
    index: int,
    scheme: str,
    scheme_kwargs: Dict[str, object],
    plan: FaultPlan,
    retry_policy: RetryPolicy,
    tick_budget: Optional[int],
    overload_policy: str,
) -> ChaosSupervisedShard:
    """Module-level shard factory — picklable, so every backend can use it."""
    return ChaosSupervisedShard(
        make_scheduler(scheme, **scheme_kwargs),
        FaultInjector(plan),
        retry_policy=retry_policy,
        tick_budget=tick_budget,
        overload_policy=overload_policy,
    )


def run_chaos_sharded(
    scheme: str = "scheme6",
    shards: int = 4,
    plan: Optional[FaultPlan] = None,
    workload: Optional[ChaosWorkload] = None,
    retry_policy: Optional[RetryPolicy] = None,
    tick_budget: Optional[int] = None,
    overload_policy: str = "defer",
    drain_ticks: int = 100_000,
    backend: str = "inprocess",
    backend_options: Optional[Dict[str, object]] = None,
) -> ChaosResult:
    """Replay one fault plan + workload through a sharded service.

    Every shard is a :class:`ChaosSupervisedShard` — a supervised
    scheme with its own fault injector — hosted wherever ``backend``
    puts it (this process or a worker process). Client
    ops route through the service so each request id lands on its
    stable shard; the order-dependent fault seams (allocator pressure,
    stop races) run client-side through one shared injector, exactly as
    the unsharded driver issues them.

    Because the op stream is the same serial sequence :func:`run_chaos`
    issues — and every remaining injector decision is a pure function
    of ``(request_id, attempt)`` — the fingerprint must match the
    unsharded run's exactly, *for every backend*: partitioning may move
    timers between queues, and backends may move queues between address
    spaces, but neither may change what survives or how hard it was
    retried.

    Per-shard supervisors each count the *same* external clock-jump
    sequence, so ``clock_jumps`` is read from one shard, not summed;
    order-insensitive totals (retries, shed, quarantine) are summed.
    Use the default ``tick_budget=None`` when comparing against an
    unsharded run — a finite budget applies *per shard* here, so
    shedding decisions legitimately diverge.
    """
    from repro.sharding.service import ShardedTimerService

    plan = plan if plan is not None else DEFAULT_PLAN
    workload = workload if workload is not None else ChaosWorkload()
    policy = retry_policy if retry_policy is not None else RetryPolicy(
        max_attempts=3, base_backoff=1, backoff_multiplier=2.0, max_backoff=48
    )
    injector = FaultInjector(plan)  # client-side seams only
    factory = functools.partial(
        build_chaos_shard,
        scheme=scheme,
        scheme_kwargs=dict(SCHEME_KWARGS.get(scheme, {})),
        plan=plan,
        retry_policy=policy,
        tick_budget=tick_budget,
        overload_policy=overload_policy,
    )
    service = ShardedTimerService(
        shards=shards,
        shard_factory=factory,
        backend=backend,
        backend_options=backend_options,
    )
    try:
        schedule = workload.ops()
        stopped = 0
        alloc_skipped = 0
        clock = SkewedClock(plan.clock_jumps)
        for step, reading in enumerate(clock.ticks(workload.horizon), start=1):
            for op, key, interval in schedule.get(step, ()):
                if op == "start":
                    try:
                        injector.check_alloc()
                    except AllocationPressure:
                        alloc_skipped += 1
                        continue
                    service.start_timer(interval, request_id=key)
                else:
                    if not service.is_pending(key):
                        continue
                    try:
                        injector.check_stop_race(key)
                    except TransientStopRace:
                        # The race is transient by construction: retry once.
                        try:
                            service.stop_timer(key)
                        except (UnknownTimerError, TimerStateError):
                            continue
                    else:
                        service.stop_timer(key)
                    stopped += 1
            service.sync_clock(reading)
        service.run_until_idle(max_ticks=drain_ticks)
        gathered = service.backend.scatter([("call", "chaos_stats", (), {})])
        stats: List[Dict[str, object]] = []
        for per_shard in gathered:
            status, value = per_shard[0]
            if status == "err":
                raise value
            stats.append(value)
        introspection = service.introspect()
    finally:
        service.close()
    survivors = tuple(
        sorted(
            (
                tuple(row)
                for shard_stats in stats
                for row in shard_stats["survivors"]
            ),
            key=lambda row: (row[1], row[0]),
        )
    )
    quarantined = tuple(
        sorted(
            tuple(row)
            for shard_stats in stats
            for row in shard_stats["quarantined"]
        )
    )
    label = f"sharded[{shards}x{scheme}]"
    if backend != "inprocess":
        label = f"sharded[{shards}x{scheme}@{backend}]"
    return ChaosResult(
        scheme=label,
        survivors=survivors,
        quarantined=quarantined,
        retries=sum(s["retries"] for s in stats),
        shed=sum(s["shed"] for s in stats),
        deferred=sum(s["deferred"] for s in stats),
        dropped=sum(s["dropped"] for s in stats),
        degraded=sum(s["degraded"] for s in stats),
        # every supervisor sees the identical reading sequence, so each
        # counts the same jumps: read one, do not sum shards times over.
        clock_jumps=stats[0]["clock_jumps"],
        overruns=sum(s["overruns"] for s in stats),
        stopped=stopped,
        alloc_skipped=alloc_skipped,
        stop_races=injector.stop_races,
        injected_failures=sum(s["injected"]["injected_failures"] for s in stats),
        injected_hangs=sum(s["injected"]["injected_hangs"] for s in stats),
        slow_invocations=sum(s["injected"]["slow_invocations"] for s in stats),
        pending_left=sum(s["pending_left"] for s in stats),
        introspection=introspection,
    )


@dataclass
class DifferentialReport:
    """Outcome of replaying one plan across several schemes."""

    results: List[ChaosResult]
    identical: bool
    #: per diverging scheme: the fingerprint fields that differ from the
    #: reference (first) scheme's.
    divergences: Dict[str, List[str]]

    @property
    def reference(self) -> ChaosResult:
        """The first scheme's result — the baseline all others are diffed against."""
        return self.results[0]


def run_differential(
    plan: Optional[FaultPlan] = None,
    schemes: Optional[Sequence[str]] = None,
    workload: Optional[ChaosWorkload] = None,
    retry_policy: Optional[RetryPolicy] = None,
    tick_budget: Optional[int] = None,
    overload_policy: str = "defer",
    scheme_kwargs: Optional[Dict[str, object]] = None,
) -> DifferentialReport:
    """Replay one plan over many schemes and diff the fingerprints.

    With the default ``tick_budget=None`` the shed counts are zero
    everywhere and the full fingerprint must match; with a finite budget
    shedding depends on each scheme's per-tick burstiness, so shed-derived
    fields are excluded from the identity check (they remain in the
    per-scheme results for inspection). ``scheme_kwargs`` overlays extra
    constructor kwargs on every scheme (see :func:`run_chaos`).
    """
    names = list(schemes) if schemes else scheme_names()
    if not names:
        raise ValueError("no schemes to run")
    workload = workload if workload is not None else ChaosWorkload()
    results = [
        run_chaos(
            name,
            plan=plan,
            workload=workload,
            retry_policy=retry_policy,
            tick_budget=tick_budget,
            overload_policy=overload_policy,
            scheme_kwargs=scheme_kwargs,
        )
        for name in names
    ]
    budget_dependent = {"shed", "retries", "injected_failures", "injected_hangs",
                        "slow_invocations", "survivors", "quarantined"}
    reference = results[0].fingerprint()
    divergences: Dict[str, List[str]] = {}
    for result in results[1:]:
        fingerprint = result.fingerprint()
        fields = [
            key
            for key in reference
            if fingerprint[key] != reference[key]
            and not (tick_budget is not None and key in budget_dependent)
        ]
        if fields:
            divergences[result.scheme] = fields
    return DifferentialReport(
        results=results, identical=not divergences, divergences=divergences
    )
