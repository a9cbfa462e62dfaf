"""``ShardedTimerService``: per-shard timer queues behind pluggable backends.

Appendix B of the paper sketches timer maintenance on a symmetric
multiprocessor: instead of guarding one timer module with one global
semaphore (the Appendix A.2 discipline that
:class:`~repro.core.threadsafe.ThreadSafeScheduler` implements, and whose
contention :mod:`repro.smp` models analytically), each processor keeps
its *own* queue and only its own lock is ever contended. This module is
the real version of that sketch: a service that partitions timers across
``N`` independent shards — each shard any registry scheme
(:mod:`repro.core.registry`), Scheme 6's hashed wheel by default — by a
stable hash of the request id (:mod:`repro.sharding.partition`).

The service owns the *policy*: routing, batching, merge order, auto ids,
and the virtual clock. Where the shard schedulers *execute* is a
:class:`~repro.sharding.backends.base.ShardBackend`
(``backend="inprocess" | "multiprocessing"``):

* **inprocess** (default) — per-shard locks in this interpreter.
  START/STOP for different request ids contend only when the ids hash to
  the same shard; batches take each shard's lock once. One GIL: the
  paper's per-processor *work* shrink is real, the parallelism is not.
* **multiprocessing** — one worker process per shard, machine-word timer
  state in a shared-memory SoA block per shard, batched ops crossing
  each pipe once. Appendix B's "one processor per shard", literally.

Whatever the backend, the client surface and every fingerprint are
identical; backends may only change where time is spent. Remote backends
cannot hold live client objects, so callbacks must be picklable (or
``None``), observers and the shared ``OpCounter`` raise
:class:`~repro.sharding.backends.base.BackendCapabilityError`, and
returned :class:`Timer` records carry ``callback=None``.

Ordering guarantees — what is and is not preserved:

* The *returned* expiry sequence of ``tick``/``advance``/``advance_to``
  is deterministic and globally tick-ordered (ties broken by shard
  index), for any backend and any worker schedule, because merging
  happens after every shard has reached the deadline.
* Expiry *actions* run while each shard advances, so their side-effect
  order across shards is shard-major within an advance — Appendix B's
  per-processor semantics. Same-shard ordering is exactly the underlying
  scheme's. Callbacks may start/stop timers on their own shard freely;
  with ``parallel=True`` a callback must not touch *other* shards (two
  shards cross-locking each other mid-advance can deadlock — the
  appendix's inter-processor-interrupt caveat).

Lifecycle: the service is a context manager; :meth:`close` (idempotent)
tears down whatever the backend holds — worker processes, pipes,
shared-memory blocks, thread pools. A worker killed out from under the
service surfaces as
:class:`~repro.sharding.backends.base.ShardFaultError` on the next
operation touching that shard, never as a hang.
"""

from __future__ import annotations

import itertools
import threading
from heapq import merge as _heap_merge
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.errors import TimerLivelockError
from repro.core.interface import ExpiryAction, Timer, TimerScheduler
from repro.core.observer import NULL_OBSERVER
from repro.core.registry import make_scheduler
from repro.core.supervision import origin_of
from repro.cost.counters import NULL_COUNTER, OpCounter
from repro.sharding.backends import (
    BackendCapabilityError,
    ShardPlane,
    make_backend,
)
from repro.sharding.backends.base import COUNTER_NULL, COUNTER_OP
from repro.sharding.partition import shard_of

#: A batched START_TIMER spec: ``interval`` alone, or a tuple
#: ``(interval[, request_id[, callback[, user_data]]])``.
StartSpec = Union[int, Tuple]


def _normalise_spec(spec: StartSpec) -> Tuple[int, Optional[Hashable], Optional[ExpiryAction], object]:
    """Expand a :data:`StartSpec` to ``(interval, request_id, callback, user_data)``."""
    if isinstance(spec, tuple):
        if not 1 <= len(spec) <= 4:
            raise ValueError(
                f"start spec must have 1-4 fields "
                f"(interval, request_id, callback, user_data), got {spec!r}"
            )
        interval = spec[0]
        request_id = spec[1] if len(spec) > 1 else None
        callback = spec[2] if len(spec) > 2 else None
        user_data = spec[3] if len(spec) > 3 else None
        return interval, request_id, callback, user_data
    return spec, None, None, None


class ShardedTimerService:
    """Appendix B's per-processor timer queues as one client-facing module.

    Reproduces the public :class:`~repro.core.interface.TimerScheduler`
    surface (a parity test pins this) plus the batch and shard-management
    API. The shard schedulers must not be driven directly once owned by
    the service.
    """

    def __init__(
        self,
        scheme: str = "scheme6",
        shards: int = 4,
        *,
        shard_factory: Optional[Callable[[int], TimerScheduler]] = None,
        parallel: bool = False,
        counter: Optional[OpCounter] = None,
        backend: str = "inprocess",
        backend_options: Optional[Dict[str, object]] = None,
        **scheme_kwargs,
    ) -> None:
        """Build ``shards`` independent shard schedulers on ``backend``.

        ``scheme``/``scheme_kwargs`` construct each shard from the
        registry. In-process, all shards charge one shared ``counter``
        (the service is a single timer module in the paper's cost model;
        pass ``NULL_COUNTER`` for wall-clock benchmarking); remote
        backends meter per worker (``NULL_COUNTER`` propagates as "do
        not meter"). ``shard_factory`` overrides construction entirely —
        ``shard_factory(index)`` must return the scheduler for shard
        ``index`` (use this to wrap each shard in supervision or fault
        injection).

        ``parallel=True`` advances in-process shards via a worker pool
        (see the module docstring for the callback caveat); remote
        backends always advance shards concurrently.
        ``backend_options`` passes backend-specific knobs through (e.g.
        ``shm_rows`` sizing the multiprocessing backend's per-shard
        shared-memory block).
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shard_count = shards
        if shard_factory is None:
            self._counter = counter if counter is not None else OpCounter()
            shared_counter = self._counter

            def factory(index: int) -> TimerScheduler:
                return make_scheduler(
                    scheme, counter=shared_counter, **scheme_kwargs
                )

            plane = ShardPlane(
                factory,
                scheme=scheme,
                scheme_kwargs=scheme_kwargs,
                counter_kind=(
                    COUNTER_NULL if counter is NULL_COUNTER else COUNTER_OP
                ),
            )
        else:
            self._counter = counter
            plane = ShardPlane(shard_factory)
        options = dict(backend_options or {})
        if backend == "inprocess":
            options.setdefault("parallel", parallel)
        self._backend = make_backend(backend, shards, plane, **options)
        try:
            self.parallel = bool(getattr(self._backend, "parallel", True))
            first = self._backend.scatter(
                [("get", "now"), ("get", "scheme_name")]
            )
            nows = {self._unwrap(per_shard[0]) for per_shard in first}
            if len(nows) != 1:
                raise ValueError(
                    f"shard clocks disagree at construction: {sorted(nows)}"
                )
            self._now = next(iter(nows))
            self._inner_scheme_name = self._unwrap(first[0][1])
        except BaseException:
            self._backend.close()
            raise
        #: one advance/tick/drain at a time; client START/STOP never take it.
        self._clock_lock = threading.RLock()
        self._id_lock = threading.Lock()
        self._auto_ids = itertools.count()
        self._shut_down = False
        self._closed = False
        self._error_policies: Optional[tuple] = None

    # ----------------------------------------------------------------- shards

    @property
    def backend(self):
        """The :class:`ShardBackend` executing the shard schedulers."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """The executing backend's registry name."""
        return self._backend.name

    @property
    def shards(self) -> Tuple[TimerScheduler, ...]:
        """The shard schedulers, by index (inspection only — do not drive).

        Only the in-process backend hosts live scheduler objects; remote
        backends raise :class:`BackendCapabilityError` — go through
        :meth:`introspect` or the op surface instead.
        """
        local = self._backend.local_shards
        if local is None:
            raise BackendCapabilityError(
                f"backend {self._backend.name!r} runs shards out of "
                "process; live shard objects are not reachable (use "
                "introspect())"
            )
        return tuple(local)

    @property
    def contended_acquisitions(self) -> List[int]:
        """Per-shard count of submissions that had to wait (best effort)."""
        return self._backend.contended_acquisitions

    def shard_index_of(self, request_id: Hashable) -> int:
        """The shard that owns ``request_id`` (stable across processes)."""
        return shard_of(request_id, self.shard_count)

    def _resolve_index(self, timer_or_id: Union[Timer, Hashable]) -> int:
        rid = (
            timer_or_id.request_id
            if isinstance(timer_or_id, Timer)
            else timer_or_id
        )
        # Shard placement is decided at START by the *client* id. A timer
        # pending under a supervisor RearmId must route by its origin, or
        # stop/update through the record would hash to the wrong shard.
        return self.shard_index_of(origin_of(rid))

    # ------------------------------------------------------------ op plumbing

    @staticmethod
    def _unwrap(result: Tuple[str, object]):
        status, value = result
        if status == "err":
            raise value
        return value

    def _one(self, index: int, op: tuple):
        """Submit a single op to one shard and unwrap its result."""
        return self._unwrap(self._backend.submit_batch(index, [op])[0])

    def _target(self, timer_or_id: Union[Timer, Hashable]):
        """What a stop/update op carries: the record in-process, the
        (stable, picklable) request id across a boundary."""
        if self._backend.remote and isinstance(timer_or_id, Timer):
            return timer_or_id.request_id
        return timer_or_id

    def _scatter_call(self, method: str, *args):
        """Call ``method`` on every shard; unwrapped results by index."""
        results = self._backend.scatter([("call", method, args, {})])
        return [self._unwrap(per_shard[0]) for per_shard in results]

    def _scatter_get(self, attribute: str):
        results = self._backend.scatter([("get", attribute)])
        return [self._unwrap(per_shard[0]) for per_shard in results]

    # ------------------------------------------------------------- client API

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> Timer:
        """START_TIMER on the owning shard (only that shard is touched)."""
        if request_id is None:
            request_id = self._make_auto_id()
        index = self.shard_index_of(request_id)
        return self._one(
            index, ("start", interval, request_id, callback, user_data)
        )

    def stop_timer(self, timer_or_id: Union[Timer, Hashable]) -> Timer:
        """STOP_TIMER routed to the owning shard by the stable hash."""
        index = self._resolve_index(timer_or_id)
        return self._one(index, ("stop", self._target(timer_or_id)))

    def update_timer(
        self, timer_or_id: Union[Timer, Hashable], new_interval: int
    ) -> Timer:
        """UPDATE_TIMER routed to the owning shard by the stable hash."""
        index = self._resolve_index(timer_or_id)
        return self._one(
            index, ("update", self._target(timer_or_id), new_interval)
        )

    def restart_timer(
        self,
        timer: Timer,
        interval: Optional[int] = None,
        request_id: Optional[Hashable] = None,
    ) -> Timer:
        """Restart a finalised record on the shard that owns its id.

        When ``request_id`` renames the record, the *new* id decides the
        shard — the restart is a fresh START as far as routing goes, so
        the record must live where later stops/updates will look for it.
        """
        new_id = timer.request_id if request_id is None else request_id
        index = self.shard_index_of(origin_of(new_id))
        target: object = timer
        if self._backend.remote:
            from repro.sharding.backends.base import encode_timer

            target = encode_timer(timer)
        return self._one(index, ("restart", target, interval, request_id))

    def start_many(self, specs: Iterable[StartSpec]) -> List[Timer]:
        """Batched START_TIMER: group by shard, one submission per shard.

        ``specs`` are :data:`StartSpec` entries; timers are returned in
        input order. Within a shard, timers start in input order. The
        batch is not transactional: if one start raises (duplicate
        pending id, interval out of range), earlier timers in the batch
        stay started and the exception propagates. Under a remote
        backend one submission is one pipe crossing — the batch is the
        unit of marshalling, not the timer.
        """
        entries: List[Tuple[int, int, Optional[Hashable], Optional[ExpiryAction], object]] = []
        for position, spec in enumerate(specs):
            interval, request_id, callback, user_data = _normalise_spec(spec)
            if request_id is None:
                request_id = self._make_auto_id()
            entries.append((position, interval, request_id, callback, user_data))
        by_shard: Dict[int, List[Tuple[int, int, Hashable, Optional[ExpiryAction], object]]] = {}
        for entry in entries:
            by_shard.setdefault(self.shard_index_of(entry[2]), []).append(entry)
        results: List[Optional[Timer]] = [None] * len(entries)
        for index in sorted(by_shard):
            group = by_shard[index]
            ops = [
                ("start", interval, request_id, callback, user_data)
                for _, interval, request_id, callback, user_data in group
            ]
            outcome = self._backend.submit_batch(index, ops, stop_on_error=True)
            for (position, *_rest), result in zip(group, outcome):
                results[position] = self._unwrap(result)
        return results  # type: ignore[return-value]

    def stop_many(
        self,
        timers_or_ids: Iterable[Union[Timer, Hashable]],
        on_missing: str = "raise",
    ) -> List[Optional[Timer]]:
        """Batched STOP_TIMER: group by shard, one submission per shard.

        Returns the stopped records in input order. ``on_missing="skip"``
        leaves ``None`` at the positions of ids that are unknown or no
        longer pending (the batch keeps going) instead of raising — the
        right mode when stops race expiry processing.
        """
        if on_missing not in ("raise", "skip"):
            raise ValueError(
                f'on_missing must be "raise" or "skip", got {on_missing!r}'
            )
        items = list(timers_or_ids)
        by_shard: Dict[int, List[int]] = {}
        for position, item in enumerate(items):
            by_shard.setdefault(self._resolve_index(item), []).append(position)
        results: List[Optional[Timer]] = [None] * len(items)
        stop_on_error = on_missing == "raise"
        for index in sorted(by_shard):
            positions = by_shard[index]
            ops = [
                ("stop", self._target(items[position]))
                for position in positions
            ]
            outcome = self._backend.submit_batch(index, ops, stop_on_error)
            for position, result in zip(positions, outcome):
                if result[0] == "err":
                    if on_missing == "raise":
                        raise result[1]
                    continue
                results[position] = result[1]
        return results

    def update_many(
        self,
        updates: Iterable[Tuple[Union[Timer, Hashable], int]],
        on_missing: str = "raise",
    ) -> List[Optional[Timer]]:
        """Batched UPDATE_TIMER: group by shard, one submission per shard.

        ``updates`` are ``(timer_or_id, new_interval)`` pairs; updated
        records come back in input order. ``on_missing="skip"`` leaves
        ``None`` where the id is unknown or no longer pending instead of
        raising — the right mode when a re-arm storm races expiry
        processing. The batch is not transactional: with ``"raise"``,
        earlier updates in the batch stick.
        """
        if on_missing not in ("raise", "skip"):
            raise ValueError(
                f'on_missing must be "raise" or "skip", got {on_missing!r}'
            )
        items = list(updates)
        by_shard: Dict[int, List[int]] = {}
        for position, (target, _interval) in enumerate(items):
            by_shard.setdefault(self._resolve_index(target), []).append(position)
        results: List[Optional[Timer]] = [None] * len(items)
        stop_on_error = on_missing == "raise"
        for index in sorted(by_shard):
            positions = by_shard[index]
            ops = [
                (
                    "update",
                    self._target(items[position][0]),
                    items[position][1],
                )
                for position in positions
            ]
            outcome = self._backend.submit_batch(index, ops, stop_on_error)
            for position, result in zip(positions, outcome):
                if result[0] == "err":
                    if on_missing == "raise":
                        raise result[1]
                    continue
                results[position] = result[1]
        return results

    # ------------------------------------------------------------ clock drive

    def tick(self) -> List[Timer]:
        """PER_TICK_BOOKKEEPING on every shard; merged expiries for the tick."""
        return self.advance_to(self._now + 1)

    def advance(self, ticks: int) -> List[Timer]:
        """Advance ``ticks`` ticks (see :meth:`advance_to`)."""
        if ticks < 0:
            raise ValueError(f"ticks must be >= 0, got {ticks}")
        return self.advance_to(self._now + ticks)

    def advance_to(self, deadline: int) -> List[Timer]:
        """Drive every shard to ``deadline``; merge expiries globally.

        The backend launches the drive on every shard — serially or on a
        thread pool in-process, genuinely concurrently on the remote
        backends — then the per-shard expiry lists are merge-sorted into
        ``(firing tick, shard index, within-shard order)``: deterministic
        for any backend and any worker schedule, because merging happens
        after every shard has reached ``deadline``.
        """
        with self._clock_lock:
            if deadline < self._now:
                raise ValueError(
                    f"deadline {deadline} is in the past (now={self._now})"
                )
            if deadline == self._now:
                return []
            self._backend.advance_to(deadline)
            per_shard = self._backend.drain_expired()
            self._now = deadline
            return self._merge(per_shard)

    @staticmethod
    def _merge(per_shard: List[List[Timer]]) -> List[Timer]:
        """Merge per-shard firing-ordered lists into global tick order."""

        def keyed(index: int, expiries: List[Timer]):
            for position, timer in enumerate(expiries):
                yield (timer.expired_at, index, position, timer)

        streams = [keyed(i, expiries) for i, expiries in enumerate(per_shard)]
        return [entry[3] for entry in _heap_merge(*streams)]

    def run_until_idle(self, max_ticks: int = 1_000_000) -> List[Timer]:
        """Advance event-to-event until every shard is idle.

        Raises :class:`~repro.core.errors.TimerLivelockError` after
        ``max_ticks``, like the single-module scheduler.
        """
        with self._clock_lock:
            expired: List[Timer] = []
            start_now = self._now
            cap = start_now + max_ticks
            while self.pending_count:
                if self._now - start_now >= max_ticks:
                    self._fire_anomaly(
                        "livelock",
                        {
                            "pending": self.pending_count,
                            "max_ticks": max_ticks,
                            "now": self._now,
                        },
                    )
                    raise TimerLivelockError(
                        f"{self.pending_count} timer(s) still pending after "
                        f"{max_ticks} ticks (now={self._now}); raise "
                        "max_ticks or stop the self-re-arming timers"
                    )
                event = self.next_expiry()
                target = cap if event is None else min(event, cap)
                expired.extend(self.advance_to(target))
            return expired

    def sync_clock(self, wall_tick: int) -> List[Timer]:
        """Follow an external clock reading on every shard.

        Requires shards that implement ``sync_clock`` (i.e. a
        :class:`~repro.core.supervision.SupervisedScheduler` per shard
        via ``shard_factory``); every shard sees the identical reading
        sequence, so each applies the same jump discipline. Expiries are
        merged like :meth:`advance_to`.
        """
        with self._clock_lock:
            per_shard = [
                list(expiries)
                for expiries in self._scatter_call("sync_clock", wall_tick)
            ]
            self._now = self._one(0, ("get", "now"))
            return self._merge(per_shard)

    def shutdown(self) -> List[Timer]:
        """Shut every shard down; merged cancelled records, shard order."""
        with self._clock_lock:
            cancelled: List[Timer] = []
            for records in self._scatter_call("shutdown"):
                cancelled.extend(records)
            self._shut_down = True
            hook = getattr(self._backend, "shutdown_hook", None)
            if callable(hook):
                hook()
            return cancelled

    @property
    def is_shut_down(self) -> bool:
        """True after :meth:`shutdown`."""
        return self._shut_down

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release everything the backend holds. Idempotent.

        Worker processes are stopped, pipes and shared-memory blocks
        released, thread pools retired. Timers pending on remote shards
        are simply gone — call :meth:`shutdown` first for an orderly
        cancel. The service must not be used after ``close``.
        """
        if self._closed:
            return
        self._closed = True
        self._backend.close()

    @property
    def is_closed(self) -> bool:
        """True after :meth:`close` (or leaving a ``with`` block)."""
        return self._closed

    def __enter__(self) -> "ShardedTimerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- error surface

    @property
    def ERROR_POLICIES(self):
        """The shard schedulers' accepted error-policy names."""
        if self._error_policies is None:
            self._error_policies = self._one(0, ("get", "ERROR_POLICIES"))
        return self._error_policies

    def set_error_policy(self, policy: str) -> None:
        """Switch the Expiry_Action error policy on every shard."""
        self._scatter_call("set_error_policy", policy)

    def set_error_capacity(self, capacity: int) -> None:
        """Resize every shard's bounded error ring."""
        self._scatter_call("set_error_capacity", capacity)

    @property
    def callback_errors(self) -> List[tuple]:
        """Merged snapshot of every shard's collected-failure ring."""
        merged: List[tuple] = []
        for ring in self._scatter_get("callback_errors"):
            merged.extend(ring)
        return merged

    @property
    def dropped_errors(self) -> int:
        """Collected failures evicted across all shard rings."""
        return sum(self._scatter_get("dropped_errors"))

    def clear_callback_errors(self) -> List[tuple]:
        """Drain every shard's collected-failure ring; merged, shard order."""
        drained: List[tuple] = []
        for ring in self._scatter_call("clear_callback_errors"):
            drained.extend(ring)
        return drained

    # ------------------------------------------------------------ observation

    def _local_shards_for(self, what: str) -> Tuple[TimerScheduler, ...]:
        local = self._backend.local_shards
        if local is None:
            raise BackendCapabilityError(
                f"{what} needs live shard objects; backend "
                f"{self._backend.name!r} runs shards out of process"
            )
        return local

    def attach_observer(self, observer):
        """Attach one observer to every shard (fan-in; in-process only).

        The observer's hooks receive the *shard* scheduler as their first
        argument; map it back to an index via :attr:`shards` when
        per-shard attribution matters, or use
        :meth:`attach_shard_observer` for dedicated per-shard observers.
        """
        for shard in self._local_shards_for("attach_observer"):
            shard.attach_observer(observer)
        return observer

    def detach_observer(self):
        """Detach the observer from every shard; returns them by shard."""
        return [
            shard.detach_observer()
            for shard in self._local_shards_for("detach_observer")
        ]

    def attach_shard_observer(self, index: int, observer):
        """Attach ``observer`` to shard ``index`` only (in-process only)."""
        return self._local_shards_for("attach_shard_observer")[
            index
        ].attach_observer(observer)

    def _fire_anomaly(self, kind: str, detail) -> None:
        """Fan a service-level anomaly out to every distinct observer.

        A fan-in observer shared by all shards (``attach_observer``) sees
        the anomaly exactly once, with shard 0's scheduler as the source;
        dedicated per-shard observers each see it once with their own
        shard. Remote backends host no client observers: nothing to fan
        out to.
        """
        local = self._backend.local_shards
        if local is None:
            return
        seen = set()
        for shard in local:
            observer = shard.observer
            if observer is NULL_OBSERVER or id(observer) in seen:
                continue
            seen.add(id(observer))
            observer.on_anomaly(shard, kind, detail)

    # ------------------------------------------------------------- inspection

    @property
    def now(self) -> int:
        """The service's virtual clock (all shards advance in lockstep)."""
        return self._now

    @property
    def scheme_name(self) -> str:
        """``sharded[<N>x<inner scheme>]``."""
        return f"sharded[{self.shard_count}x{self._inner_scheme_name}]"

    @property
    def counter(self):
        """The shared :class:`OpCounter` (in-process backend only).

        Remote backends meter inside each worker (the shared counter
        object in this process is never charged), so reading it here
        would silently report zeros — refuse instead.
        """
        if self._backend.remote:
            raise BackendCapabilityError(
                f"backend {self._backend.name!r} meters per worker; the "
                "client-side counter object is never charged"
            )
        if self._counter is not None:
            return self._counter
        return self._backend.local_shards[0].counter

    @property
    def pending_count(self) -> int:
        """Outstanding timers across all shards."""
        return sum(self._scatter_get("pending_count"))

    @property
    def free_record_count(self) -> int:
        """Free SoA rows pooled across all shards."""
        return sum(self._scatter_get("free_record_count"))

    def pending_timers(self) -> List[Timer]:
        """Snapshot of outstanding records across shards (shard order)."""
        merged: List[Timer] = []
        for snapshot in self._scatter_call("pending_timers"):
            merged.extend(snapshot)
        return merged

    def is_pending(self, request_id: Hashable) -> bool:
        """True when ``request_id`` is outstanding on its owning shard."""
        index = self.shard_index_of(request_id)
        return self._one(index, ("call", "is_pending", (request_id,), {}))

    def get_timer(self, request_id: Hashable) -> Timer:
        """Look up a pending timer on its owning shard."""
        index = self.shard_index_of(request_id)
        return self._one(index, ("call", "get_timer", (request_id,), {}))

    def max_start_interval(self) -> Optional[int]:
        """The tightest shard bound (``None`` when every shard is unbounded).

        Routing depends on the request id, so a caller that cannot
        predict its shard must respect the most restrictive bound.
        """
        bounds = [
            bound
            for bound in self._scatter_call("max_start_interval")
            if bound is not None
        ]
        return min(bounds) if bounds else None

    def next_expiry(self) -> Optional[int]:
        """Earliest lower bound across shards (``None`` iff all idle)."""
        earliest: Optional[int] = None
        for candidate in self._scatter_call("next_expiry"):
            if candidate is not None and (earliest is None or candidate < earliest):
                earliest = candidate
        return earliest

    def introspect(self) -> Dict[str, object]:
        """Merged snapshot: service aggregates plus per-shard detail.

        Always includes ``backend`` facts; the multiprocessing backend
        adds worker liveness and the shared-memory residency of each
        shard's SoA block (read straight out of the blocks, no worker
        round trip).
        """
        per_shard = self._scatter_call("introspect")
        backend_info = self._backend.introspect()
        pending = [int(info.get("pending", 0)) for info in per_shard]
        total_pending = sum(pending)
        mean = total_pending / self.shard_count
        merged = {
            "scheme": self.scheme_name,
            "now": self._now,
            "shards": self.shard_count,
            "parallel": self.parallel,
            "backend": self._backend.name,
            "pending": total_pending,
            "total_started": sum(int(i.get("total_started", 0)) for i in per_shard),
            "total_stopped": sum(int(i.get("total_stopped", 0)) for i in per_shard),
            "total_updated": sum(int(i.get("total_updated", 0)) for i in per_shard),
            "total_expired": sum(int(i.get("total_expired", 0)) for i in per_shard),
            "callback_errors": sum(int(i.get("callback_errors", 0)) for i in per_shard),
            "dropped_errors": sum(int(i.get("dropped_errors", 0)) for i in per_shard),
            "shut_down": self._shut_down,
            "closed": self._closed,
            "pending_per_shard": pending,
            "contended_acquisitions": list(self.contended_acquisitions),
            #: worst shard's pending over the mean — 1.0 is a perfect split.
            "imbalance": (max(pending) / mean) if mean else 0.0,
            "per_shard": per_shard,
        }
        for key in ("workers", "shared_memory"):
            if key in backend_info:
                merged[key] = backend_info[key]
        return merged

    # --------------------------------------------------------------- plumbing

    def _make_auto_id(self) -> str:
        while True:
            with self._id_lock:
                candidate = f"auto-{next(self._auto_ids)}"
            if not self.is_pending(candidate):
                return candidate

    def __repr__(self) -> str:
        return (
            f"ShardedTimerService(shards={self.shard_count}, "
            f"scheme={self._inner_scheme_name!r}, "
            f"backend={self._backend.name!r}, now={self._now}, "
            f"pending={self.pending_count})"
        )
