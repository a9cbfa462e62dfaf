"""The paper's timer-module model: four routines, one abstract scheduler.

Section 2 defines the interface every scheme implements:

* ``START_TIMER(Interval, Request_ID, Expiry_Action)`` →
  :meth:`TimerScheduler.start_timer`
* ``STOP_TIMER(Request_ID)`` → :meth:`TimerScheduler.stop_timer`
* ``PER_TICK_BOOKKEEPING`` → :meth:`TimerScheduler.tick`
* ``EXPIRY_PROCESSING`` → the scheduler invoking ``timer.callback`` when a
  timer expires.

The dynamic-update literature (arXiv:2508.10283, arXiv:2601.09081) adds a
fifth routine the paper's model lacks — real workloads are dominated by
*re-arm*, not expiry (TCP retransmit timers are updated or cancelled far
more often than they fire):

* ``UPDATE_TIMER(Request_ID, New_Interval)`` →
  :meth:`TimerScheduler.update_timer` — reschedule a pending timer
  wheel-natively (unlink → recompute slot → relink), same record, same
  request id, instead of the classical STOP+START round trip.
* :meth:`TimerScheduler.restart_timer` is the finalised-record flavour:
  periodic cycles and supervised retries re-arm the record they were
  handed instead of allocating a fresh one per leg.

Time is a virtual integer tick counter owned by the scheduler (the paper's
granularity-``T`` clock); nothing here touches the wall clock, which makes
every experiment deterministic and lets the discrete-event substrates drive
schedulers directly.

Concrete schemes implement three hooks — ``_insert``, ``_remove`` and
``_collect_expired`` — and charge their abstract operation costs to
``self.counter`` (see :mod:`repro.cost`). The base class handles request-id
bookkeeping, state transitions, and callback dispatch; that bookkeeping is
*not* charged to the counter, since the paper's cost analyses price only the
data-structure work.
"""

from __future__ import annotations

import abc
import enum
import itertools
from typing import Callable, Dict, Hashable, List, Optional, Union

from repro.core.errors import (
    SchedulerShutdownError,
    StaleTimerHandleError,
    TimerLivelockError,
    TimerStateError,
    UnknownTimerError,
)
from repro.core.observer import NULL_OBSERVER, TimerObserver
from repro.core.validation import check_interval
from repro.cost.counters import OpCounter
from repro.structures.dlist import DLinkedList, DNode

#: Signature of an Expiry_Action: called with the expired timer.
ExpiryAction = Callable[["Timer"], None]

#: Default bound on the "collect" policy's error log (see
#: :class:`BoundedErrorLog`): enough to diagnose a failure storm without
#: letting a long-running facility grow the log without bound.
DEFAULT_ERROR_LOG_CAPACITY = 256


class BoundedErrorLog(list):
    """A list-compatible ring of the most recent collected failures.

    Behaves exactly like a list (indexing, iteration, ``== []``) so
    existing clients of :attr:`TimerScheduler.callback_errors` keep
    working, but every growth path — :meth:`append`, :meth:`extend`,
    ``+=``, :meth:`insert`, slice assignment, ``*=`` — evicts the oldest
    entries once ``capacity`` is reached, counting each eviction in
    :attr:`dropped`. The ring invariant (``len(self) <= capacity``) is
    the bound that keeps the "collect" error policy safe in long runs, so
    no ``list`` mutator may bypass it.
    """

    def __init__(self, capacity: int = DEFAULT_ERROR_LOG_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity
        #: entries evicted to honour the capacity bound (cumulative).
        self.dropped = 0

    def _trim(self) -> None:
        """Evict the oldest entries until the ring invariant holds."""
        excess = len(self) - self.capacity
        if excess > 0:
            del self[:excess]
            self.dropped += excess

    def append(self, item: object) -> None:
        super().append(item)
        self._trim()

    def extend(self, items) -> None:
        super().extend(items)
        self._trim()

    def __iadd__(self, items):
        self.extend(items)
        return self

    def insert(self, index: int, item: object) -> None:
        super().insert(index, item)
        self._trim()

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        if isinstance(index, slice):
            self._trim()

    def __imul__(self, factor: int):
        result = super().__imul__(factor)
        self._trim()
        return result


class TimerState(enum.Enum):
    """Lifecycle of a timer record."""

    PENDING = "pending"  #: started, neither stopped nor expired yet
    EXPIRED = "expired"  #: EXPIRY_PROCESSING ran (or will run this tick)
    STOPPED = "stopped"  #: cancelled by STOP_TIMER before expiry


class Timer(DNode):
    """One outstanding timer: the record START_TIMER creates.

    Inherits :class:`~repro.structures.dlist.DNode` so list- and
    wheel-based schemes link the record itself into their buckets —
    the intrusive layout that makes STOP_TIMER O(1). Tree-based schemes
    instead park their own node in :attr:`_pq_node`.

    Public attributes
    -----------------
    ``request_id``
        The client-chosen (or auto-assigned) identifier.
    ``interval``
        Requested duration in ticks.
    ``deadline``
        Absolute tick at which the timer is due (``started_at + interval``).
    ``callback`` / ``user_data``
        The Expiry_Action and an arbitrary client payload.
    ``state`` / ``started_at`` / ``stopped_at`` / ``expired_at``
        Lifecycle bookkeeping (absolute ticks; ``None`` until they happen).
    ``fired_at``
        Actual expiry tick. Normally equals ``deadline``; the lossy
        hierarchical variants (Scheme 7 + Nichols) may fire early or late,
        and the precision experiments read this field.
    ``generation``
        Incarnation counter for the record. 0 on allocation; bumped each
        time :meth:`TimerScheduler.restart_timer` re-arms the record as a
        new timer leg. :attr:`handle` captures it so a reference held
        across a re-arm raises :class:`StaleTimerHandleError` instead of
        silently addressing the new leg.
    """

    __slots__ = (
        "request_id",
        "interval",
        "deadline",
        "callback",
        "user_data",
        "state",
        "started_at",
        "stopped_at",
        "expired_at",
        "fired_at",
        "generation",
        # scheme-private scratch fields (documented in each scheme):
        "_remaining",
        "_rounds",
        "_level",
        "_slot_index",
        "_pq_node",
        "_fire_at",
        "_migrated",
    )

    def __init__(
        self,
        request_id: Hashable,
        interval: int,
        started_at: int,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> None:
        # DNode's three link fields, set here rather than through
        # DNode.__init__: every START_TIMER builds one of these.
        self._prev = self._next = self._owner = None
        self.request_id = request_id
        self.interval = interval
        self.deadline = started_at + interval
        self.callback = callback
        self.user_data = user_data
        self.state = TimerState.PENDING
        self.started_at = started_at
        self.stopped_at: Optional[int] = None
        self.expired_at: Optional[int] = None
        self.fired_at: Optional[int] = None
        self.generation = 0
        self._remaining = interval
        self._rounds = 0
        self._level = -1
        self._slot_index = -1
        self._pq_node = None
        self._fire_at = self.deadline
        self._migrated = False

    def _reinit(
        self,
        request_id: Hashable,
        interval: int,
        started_at: int,
        callback: Optional[ExpiryAction],
        user_data: object,
    ) -> None:
        """Reset a finalised (expired/stopped, unlinked) record for reuse.

        :meth:`TimerScheduler.restart_timer` calls this instead of
        allocating; every field is restored to its ``__init__`` state
        except the DNode links, which are already detached on any
        finalised record, and :attr:`generation`, which is bumped so
        handles captured against the previous incarnation go stale instead
        of aliasing the new timer.
        """
        self.generation += 1
        self.request_id = request_id
        self.interval = interval
        self.deadline = started_at + interval
        self.callback = callback
        self.user_data = user_data
        self.state = TimerState.PENDING
        self.started_at = started_at
        self.stopped_at = None
        self.expired_at = None
        self.fired_at = None
        self._remaining = interval
        self._rounds = 0
        self._level = -1
        self._slot_index = -1
        self._pq_node = None
        self._fire_at = self.deadline
        self._migrated = False

    @property
    def pending(self) -> bool:
        """True while the timer is outstanding."""
        return self.state is TimerState.PENDING

    @property
    def handle(self) -> "TimerHandle":
        """A generation-tagged reference to *this incarnation* of the record.

        Safe to hold across a re-arm: once
        :meth:`TimerScheduler.restart_timer` re-issues the record as a new
        timer leg, resolving the handle raises
        :class:`StaleTimerHandleError` instead of silently addressing the
        new leg.
        """
        return TimerHandle(self, self.generation)

    def __repr__(self) -> str:
        return (
            f"Timer(id={self.request_id!r}, interval={self.interval}, "
            f"deadline={self.deadline}, state={self.state.value})"
        )


class TimerHandle:
    """An immutable ``(record, generation)`` pair naming one timer incarnation.

    The raw :class:`Timer` object is an ambiguous reference once
    :meth:`TimerScheduler.restart_timer` has re-armed it: the same object
    *is* a different timer leg, possibly under another request id, so
    ``stop_timer(stale_record)`` would silently cancel the new leg. A
    handle captures the generation at hand-out; every resolution checks
    it, and a mismatch raises :class:`StaleTimerHandleError`.
    ``stop_timer``, ``get_timer`` and ``is_pending`` all accept handles.
    """

    __slots__ = ("record", "generation")

    def __init__(self, record: Timer, generation: int) -> None:
        self.record = record
        self.generation = generation

    @property
    def request_id(self) -> Hashable:
        """The request id the record carried when the handle was taken.

        Only meaningful while the handle is live; resolve through the
        scheduler to find out.
        """
        return self.record.request_id

    @property
    def stale(self) -> bool:
        """True once the record has been re-armed as a newer incarnation."""
        return self.record.generation != self.generation

    def resolve(self) -> Timer:
        """The record, if this handle still names its live incarnation."""
        if self.record.generation != self.generation:
            raise StaleTimerHandleError(
                f"handle (generation {self.generation}) is stale: the record "
                f"was re-armed and now holds generation "
                f"{self.record.generation} "
                f"(currently {self.record.request_id!r})"
            )
        return self.record

    def __repr__(self) -> str:
        return (
            f"TimerHandle(id={self.record.request_id!r}, "
            f"generation={self.generation}, stale={self.stale})"
        )


class TimerScheduler(abc.ABC):
    """Abstract timer module: the contract shared by Schemes 1–7.

    Subclasses implement the three structure hooks; clients use
    :meth:`start_timer`, :meth:`stop_timer`, :meth:`tick` and
    :meth:`advance`.
    """

    #: Short machine name used by the registry and the benches.
    scheme_name: str = "abstract"

    #: How Expiry_Action exceptions are handled (see ``set_error_policy``):
    #: "propagate" re-raises out of tick(); "collect" records the failure
    #: in ``callback_errors`` and keeps expiring (a production timer
    #: facility must not let one bad client action starve the rest).
    ERROR_POLICIES = ("propagate", "collect")

    def __init__(self, counter: Optional[OpCounter] = None) -> None:
        self.counter = counter if counter is not None else OpCounter()
        #: lifecycle observer; the shared no-op by default so the hook
        #: sites cost one attribute load + empty call when uninstrumented.
        self.observer: TimerObserver = NULL_OBSERVER
        self._now = 0
        self._active: Dict[Hashable, Timer] = {}
        self._auto_ids = itertools.count()
        self.total_started = 0
        self.total_stopped = 0
        self.total_expired = 0
        self.total_updated = 0
        self._error_policy = "propagate"
        #: (timer, exception) pairs captured under the "collect" policy —
        #: a bounded ring (see :class:`BoundedErrorLog`) so long runs keep
        #: only the most recent failures; evictions are counted in
        #: :attr:`dropped_errors`.
        self.callback_errors: BoundedErrorLog = BoundedErrorLog()
        self._shut_down = False

    def set_error_policy(self, policy: str) -> None:
        """Choose what happens when an Expiry_Action raises.

        ``"propagate"`` (default) re-raises from :meth:`tick` after the
        failing timer is finalised; ``"collect"`` appends
        ``(timer, exception)`` to :attr:`callback_errors` and continues
        with the remaining expiries.
        """
        if policy not in self.ERROR_POLICIES:
            raise ValueError(
                f"policy must be one of {self.ERROR_POLICIES}, got {policy!r}"
            )
        self._error_policy = policy

    def set_error_capacity(self, capacity: int) -> None:
        """Resize the bounded error ring, keeping the most recent entries.

        The cumulative :attr:`dropped_errors` count carries over; shrinking
        below the retained count drops the oldest entries (counted).
        """
        fresh = BoundedErrorLog(capacity)
        fresh.dropped = self.callback_errors.dropped
        for item in self.callback_errors:
            fresh.append(item)
        self.callback_errors = fresh

    @property
    def dropped_errors(self) -> int:
        """Collected failures evicted by the error ring's capacity bound."""
        return self.callback_errors.dropped

    def clear_callback_errors(self) -> List["tuple[Timer, BaseException]"]:
        """Return and clear the failures collected under ``"collect"``.

        :attr:`callback_errors` retains only the most recent
        ``capacity`` failures (older ones are evicted and counted in
        :attr:`dropped_errors`); drain it periodically anyway — the
        ``callback_error`` trace event fires at capture time, so
        observability does not depend on keeping the list.
        """
        errors = list(self.callback_errors)
        self.callback_errors.clear()
        return errors

    # ----------------------------------------------------------- observation

    def attach_observer(self, observer: TimerObserver) -> TimerObserver:
        """Install a lifecycle observer (see :mod:`repro.core.observer`).

        One observer is active at a time; use
        :class:`~repro.core.observer.CompositeObserver` to fan out.
        Returns the observer for chaining. Raises ``ValueError`` if a
        different observer is already attached (detach it first — silent
        replacement would make instrumented runs lie by omission).
        """
        current = self.observer
        if current is not NULL_OBSERVER and current is not observer:
            raise ValueError(
                f"{type(current).__name__} is already attached; "
                "detach_observer() first or use a CompositeObserver"
            )
        self.observer = observer
        return observer

    def detach_observer(self) -> TimerObserver:
        """Restore the no-op observer; returns the one that was attached."""
        observer = self.observer
        self.observer = NULL_OBSERVER
        return observer

    # ------------------------------------------------------------ client API

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> Timer:
        """START_TIMER: schedule expiry ``interval`` ticks from now.

        ``request_id`` distinguishes this timer among the client's
        outstanding timers; when omitted, a unique id is assigned. Starting
        a second timer under an id that is still pending raises
        :class:`~repro.core.errors.TimerStateError` (the paper's model keys
        STOP_TIMER on the id, so live ids must be unambiguous).
        """
        # One guard for the shut-down and interval checks; its body raises
        # exactly what _check_open and check_interval raise, in that order.
        limit = self.max_start_interval()
        if (
            self._shut_down
            or type(interval) is not int
            or interval <= 0
            or (limit is not None and interval >= limit)
        ):
            self._check_open()
            check_interval(interval, limit)
        active = self._active
        if request_id is None:
            request_id = self._make_auto_id()
        elif request_id in active:
            raise TimerStateError(
                f"request_id {request_id!r} already names a pending timer"
            )
        timer = Timer(request_id, interval, self._now, callback, user_data)
        self._insert(timer)
        active[request_id] = timer
        self.total_started += 1
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_start(self, timer)
        return timer

    @property
    def free_record_count(self) -> int:
        """Finalised records pooled for reuse: always 0 here, where every
        START allocates its record; the SoA store reports its free rows."""
        return 0

    def stop_timer(self, timer_or_id: Union[Timer, Hashable]) -> Timer:
        """STOP_TIMER: cancel a pending timer by record, handle, or id.

        Returns the stopped record. Raises
        :class:`~repro.core.errors.UnknownTimerError` for an unknown id,
        :class:`~repro.core.errors.TimerStateError` when the timer already
        expired or was already stopped, and
        :class:`~repro.core.errors.StaleTimerHandleError` when a
        :class:`TimerHandle` outlived its incarnation (the record was
        re-armed as a different timer leg).
        """
        active = self._active
        timer = active.get(timer_or_id)
        if timer is None:
            # Records, handles and unknown ids take the checked slow path.
            timer = self._resolve(timer_or_id)
        if timer.state is not TimerState.PENDING:
            raise TimerStateError(
                f"timer {timer.request_id!r} is {timer.state.value}, not pending"
            )
        self._remove(timer)
        timer.state = TimerState.STOPPED
        timer.stopped_at = self._now
        del active[timer.request_id]
        self.total_stopped += 1
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_stop(self, timer)
        return timer

    def update_timer(
        self, timer_or_id: Union[Timer, Hashable], new_interval: int
    ) -> Timer:
        """UPDATE_TIMER: reschedule a pending timer ``new_interval`` ticks out.

        The dynamic-update fifth routine (arXiv:2508.10283): the record is
        unlinked from its current position, its deadline recomputed as
        ``now + new_interval``, and relinked — same record, same request
        id, one UPDATE charge instead of the classical STOP+START round
        trip. Wheel schemes override :meth:`_update` to recompute the slot
        natively; the default composes the scheme's own remove + insert.

        Accepts a record, handle, or id like :meth:`stop_timer` and raises
        the same errors for unknown/finalised timers and stale handles.
        Returns the (still pending) record.
        """
        limit = self.max_start_interval()
        if (
            self._shut_down
            or type(new_interval) is not int
            or new_interval <= 0
            or (limit is not None and new_interval >= limit)
        ):
            self._check_open()
            check_interval(new_interval, limit)
        timer = self._active.get(timer_or_id)
        if timer is None:
            timer = self._resolve(timer_or_id)
        if timer.state is not TimerState.PENDING:
            raise TimerStateError(
                f"timer {timer.request_id!r} is {timer.state.value}, not pending"
            )
        old_deadline = timer.deadline
        self._update(timer, new_interval)
        self.total_updated += 1
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_update(self, timer, old_deadline)
        return timer

    def _update(self, timer: Timer, new_interval: int) -> None:
        """Re-place a pending ``timer`` at ``now + new_interval``.

        Default: the scheme's own unlink → field reset → relink. ``_remove``
        runs *first* (slot/bucket derivation reads the old deadline), then
        every deadline-derived field is reset exactly as ``_reinit`` would,
        and ``_insert`` re-places the record. Wheel schemes override this to
        charge a single cheaper UPDATE instead of DELETE + INSERT.
        """
        self._remove(timer)
        now = self._now
        timer.interval = new_interval
        timer.started_at = now
        timer.deadline = now + new_interval
        timer._remaining = new_interval
        timer._rounds = 0
        timer._level = -1
        timer._slot_index = -1
        timer._fire_at = timer.deadline
        timer._migrated = False
        self._insert(timer)

    def restart_timer(
        self,
        timer: Union[Timer, TimerHandle],
        interval: Optional[int] = None,
        request_id: Optional[Hashable] = None,
    ) -> Timer:
        """Re-arm a finalised (expired or stopped) record in place.

        The re-arm flavour of UPDATE_TIMER: periodic cycles and supervised
        retries hand back the record they were given and get the *same*
        record re-armed — one ``_reinit`` + one INSERT charge, no STOP
        round trip and no fresh allocation per leg. ``interval`` defaults
        to the record's previous interval and ``request_id`` to its
        previous id, which is what preserves id stability across periodic
        repeats.

        Counts as a start (``total_started``, ``on_start``): a restart arms
        a new timer leg, keeping the lifecycle conservation invariant
        ``started == stopped + expired + pending`` intact.
        """
        self._check_open()
        if isinstance(timer, TimerHandle):
            timer = timer.resolve()
        if timer.state is TimerState.PENDING:
            raise TimerStateError(
                f"timer {timer.request_id!r} is still pending; use "
                "update_timer to reschedule a live timer"
            )
        if timer.linked or timer._pq_node is not None:
            raise TimerStateError(
                f"timer {timer.request_id!r} is finalised but still linked "
                "into a structure; cannot restart it"
            )
        new_interval = timer.interval if interval is None else interval
        check_interval(new_interval, self.max_start_interval())
        new_id = timer.request_id if request_id is None else request_id
        if new_id in self._active:
            raise TimerStateError(
                f"request_id {new_id!r} already names a pending timer"
            )
        stopped_at, expired_at, fired_at = (
            timer.stopped_at, timer.expired_at, timer.fired_at,
        )
        timer._reinit(
            new_id, new_interval, self._now, timer.callback, timer.user_data
        )
        # Keep the previous leg's finalisation stamps: a record restarted
        # from inside its own expiry callback still sits in the caller's
        # expired batch, and batch consumers (the sharded merge, span
        # assembly, fingerprints) key on when that leg actually fired.
        # _mark_expired overwrites them at the next finalisation.
        timer.stopped_at = stopped_at
        timer.expired_at = expired_at
        timer.fired_at = fired_at
        self._insert(timer)
        self._active[new_id] = timer
        self.total_started += 1
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_start(self, timer)
        return timer

    def tick(self) -> List[Timer]:
        """PER_TICK_BOOKKEEPING: advance the clock one tick, expire what's due.

        Returns the timers expired on this tick, after running each one's
        Expiry_Action. Callbacks may start or stop other timers re-entrantly
        (protocol code does); timers started inside a callback are due
        strictly in the future, so they cannot expire within the same tick.

        Expiry is atomic per tick: every timer due at this tick is marked
        EXPIRED (and its request id released) *before* any Expiry_Action
        runs, so a callback that tries to stop a sibling timer due at the
        same tick sees it already expired (``TimerStateError``) rather
        than a half-removed record.
        """
        expired: List[Timer] = []
        self._tick_into(expired)
        return expired

    def _tick_into(self, sink: List[Timer]) -> int:
        """Run one tick, appending this tick's expiries to ``sink``.

        The shared body behind :meth:`tick` and :meth:`advance_to` — long
        advances accumulate into one caller-owned list instead of chaining
        per-tick temporaries. Observer dispatch is short-circuited entirely
        when the shared no-op observer is attached (the zero-overhead
        guarantee on the hot path).
        """
        self._check_open()
        observer = self.observer
        observing = observer is not NULL_OBSERVER
        if observing:
            observer.on_tick_begin(self, self._now + 1)
        self._now += 1
        expired = self._collect_expired()
        for timer in expired:
            self._mark_expired(timer)
        # Expire events fire only after the whole tick's expiry set is
        # atomically marked, and before any Expiry_Action runs — observers
        # therefore see a consistent post-marking view of sibling timers.
        if observing:
            for timer in expired:
                observer.on_expire(self, timer)
        for timer in expired:
            self._run_expiry_action(timer)
        if observing:
            observer.on_tick_end(self, len(expired))
        sink.extend(expired)
        return len(expired)

    def advance(self, ticks: int) -> List[Timer]:
        """Run ``ticks`` consecutive ticks; returns all timers expired.

        Delegates to :meth:`advance_to`, so empty stretches are jumped in
        bulk while the observable results (expiry order, OpCounter totals,
        observer event stream) stay bit-identical to ticking one by one.
        """
        if ticks < 0:
            raise ValueError(f"ticks must be >= 0, got {ticks}")
        return self.advance_to(self._now + ticks)

    def advance_to(
        self, deadline: int, _sink: Optional[List[Timer]] = None
    ) -> List[Timer]:
        """Advance the clock to absolute tick ``deadline`` (inclusive).

        The sparse-tick fast path: between real events — ticks where the
        scheme must touch its structure beyond the per-tick constants —
        the scheduler asks :meth:`_next_event` for the next such tick and
        jumps the gap in one :meth:`_skip_ticks` step. Every skipped tick
        is still accounted: per-scheme :meth:`_charge_empty_ticks` applies
        the exact empty-tick OpCounter charges in bulk (multiplied, not
        skipped), and observers with per-tick fidelity still see every
        ``on_tick_begin``/``on_tick_end`` pair.

        Returns the timers expired in ``(now, deadline]``, in firing order.
        """
        expired = _sink if _sink is not None else []
        if deadline < self._now:
            raise ValueError(
                f"deadline {deadline} is in the past (now={self._now})"
            )
        if deadline > self._now:
            self._check_open()
        while self._now < deadline:
            event = self._next_event()
            if event is None or event > deadline:
                self._skip_ticks(deadline - self._now)
                break
            gap = event - self._now - 1
            if gap > 0:
                self._skip_ticks(gap)
            self._tick_into(expired)
        return expired

    def _skip_ticks(self, count: int) -> None:
        """Advance over ``count`` ticks known to expire nothing.

        Three observer regimes, cheapest first: the shared no-op observer
        skips dispatch entirely; an observer that has opted out of
        per-tick fidelity gets one ``on_bulk_advance``; a full-fidelity
        observer gets the bit-identical per-tick event stream.
        """
        if count <= 0:
            return
        observer = self.observer
        if observer is NULL_OBSERVER:
            self._charge_empty_ticks(count)
            self._now += count
            return
        if observer.per_tick_fidelity:
            for _ in range(count):
                observer.on_tick_begin(self, self._now + 1)
                self._charge_empty_ticks(1)
                self._now += 1
                observer.on_tick_end(self, 0)
            return
        start = self._now
        self._charge_empty_ticks(count)
        self._now += count
        observer.on_bulk_advance(self, start, self._now)

    def run_until_idle(self, max_ticks: int = 1_000_000) -> List[Timer]:
        """Advance until no timers remain pending.

        Runs on :meth:`advance_to`, jumping from event to event rather
        than paying per-tick Python dispatch. Raises
        :class:`~repro.core.errors.TimerLivelockError` when ``max_ticks``
        elapse with timers still outstanding, instead of silently
        returning a partial drain — a self-re-arming periodic timer (or an
        unreachable deadline) is a bug the caller must see, not a
        truncated result that looks complete.
        """
        expired: List[Timer] = []
        start_now = self._now
        cap = start_now + max_ticks
        while self.pending_count:
            if self._now - start_now >= max_ticks:
                if self.observer is not NULL_OBSERVER:
                    self.observer.on_anomaly(
                        self,
                        "livelock",
                        {
                            "pending": self.pending_count,
                            "max_ticks": max_ticks,
                            "now": self._now,
                        },
                    )
                raise TimerLivelockError(
                    f"{self.pending_count} timer(s) still pending after "
                    f"{max_ticks} ticks (now={self._now}); raise max_ticks "
                    "or stop the self-re-arming timers"
                )
            event = self._next_event()
            target = cap if event is None else min(event, cap)
            self.advance_to(target, _sink=expired)
        return expired

    def shutdown(self) -> List[Timer]:
        """Stop the module: cancel every pending timer, refuse further work.

        Returns the timers that were cancelled (state ``STOPPED``). After
        shutdown, :meth:`start_timer` and :meth:`tick` raise
        :class:`~repro.core.errors.SchedulerShutdownError`; inspection
        methods keep working. Idempotent.
        """
        if self._shut_down:
            return []
        cancelled = []
        for timer in list(self._active.values()):
            self._remove(timer)
            timer.state = TimerState.STOPPED
            timer.stopped_at = self._now
            cancelled.append(timer)
            self.total_stopped += 1
            self.observer.on_stop(self, timer)
        self._active.clear()
        self._shut_down = True
        return cancelled

    @property
    def is_shut_down(self) -> bool:
        """True after :meth:`shutdown`."""
        return self._shut_down

    def _check_open(self) -> None:
        if self._shut_down:
            raise SchedulerShutdownError(
                f"{type(self).__name__} has been shut down"
            )

    # ------------------------------------------------------------ inspection

    @property
    def now(self) -> int:
        """Current virtual time in ticks."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of outstanding timers (the paper's ``n``)."""
        return len(self._active)

    def pending_timers(self) -> List[Timer]:
        """Snapshot of the outstanding timer records (unspecified order)."""
        return list(self._active.values())

    def is_pending(self, request_id: Hashable) -> bool:
        """True when ``request_id`` names an outstanding timer.

        Accepts a :class:`TimerHandle` too; a stale handle is simply not
        pending (no exception — this is the non-throwing probe).
        """
        if isinstance(request_id, TimerHandle):
            return not request_id.stale and request_id.record.pending
        return request_id in self._active

    def get_timer(self, request_id: Hashable) -> Timer:
        """Look up a pending timer by id (raises ``UnknownTimerError``)."""
        try:
            return self._active[request_id]
        except KeyError:
            raise UnknownTimerError(
                f"no pending timer with request_id {request_id!r}"
            ) from None

    def max_start_interval(self) -> Optional[int]:
        """Exclusive upper bound on accepted intervals, or ``None`` if unbounded.

        Scheme 4 returns its ``MaxInterval``; bounded hierarchies return
        their total span; everything else returns ``None``.
        """
        return None

    def next_expiry(self) -> Optional[int]:
        """Earliest future tick at which a timer may fire, or ``None``.

        Contract: ``None`` iff no timers are pending; otherwise a tick
        strictly greater than ``now`` and never *later* than the true next
        firing tick (a lower bound). Schemes 1–4 and the hybrid return the
        exact minimum deadline; the hashed wheels (5, 6) and hierarchies
        (7) return the next occupied-slot visit, which may precede the
        actual firing when the visited entries still have rounds/levels to
        go. Must not charge the OpCounter — this is fast-path planning,
        not structure work the paper's model prices.

        The conservative base implementation claims the very next tick.
        """
        return self._now + 1 if self._active else None

    def _next_event(self) -> Optional[int]:
        """Next tick (> now) where PER_TICK_BOOKKEEPING must do real work.

        ``advance_to`` skips every tick strictly before this in bulk, so a
        correct override must account for *all* structure activity: slot
        visits that merely decrement rounds, hierarchical cascades, and
        overflow promotions — not just firings. ``None`` means no tick will
        ever do more than the empty-tick constants (which
        :meth:`_charge_empty_ticks` reproduces). Must not charge the
        OpCounter. The base implementation conservatively claims every
        tick, degrading ``advance_to`` to the per-tick path for schemes
        that do not override it.
        """
        return self._now + 1

    def _charge_empty_ticks(self, count: int) -> None:
        """Charge exactly what ``count`` consecutive empty ticks would.

        Called by :meth:`_skip_ticks` *before* ``_now`` advances, covering
        ticks ``(now, now + count]`` — all guaranteed empty by
        :meth:`_next_event`. Overrides must reproduce the scheme's
        per-empty-tick OpCounter charges multiplied by ``count`` and apply
        any per-tick cursor/bookkeeping updates (wheel cursors, Scheme 1
        decrements), but must not touch ``_now``. The base implementation
        is never reached because the base ``_next_event`` never yields a
        skippable gap.
        """
        raise NotImplementedError(
            f"{type(self).__name__} overrides _next_event without "
            "_charge_empty_ticks"
        )

    def introspect(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of scheduler and structure state.

        The base dict covers the model-level quantities every scheme
        shares; concrete schemes extend it with a ``"structure"`` entry
        describing their internal shape — wheel slot occupancy and hash
        chain lengths for Schemes 4–6 (via
        :func:`~repro.core.introspect.occupancy_summary`), tree height for
        Scheme 3, per-level occupancy for the hierarchies.
        """
        info: Dict[str, object] = {
            "scheme": self.scheme_name,
            "store": "object",
            "now": self._now,
            "pending": self.pending_count,
            "total_started": self.total_started,
            "total_stopped": self.total_stopped,
            "total_expired": self.total_expired,
            "total_updated": self.total_updated,
            "callback_errors": len(self.callback_errors),
            "dropped_errors": self.callback_errors.dropped,
            "shut_down": self._shut_down,
        }
        return info

    # ------------------------------------------------------- subclass hooks

    @staticmethod
    def _new_chains(count: int) -> List[DLinkedList]:
        """The chain table of a wheel with ``count`` slots: one intrusive
        list per slot. Schemes 4, 6 and 7 build their slots through this
        hook; the SoA store overrides it with an ``array('q')`` head table
        (:class:`~repro.core.soa_base.SoATimerScheduler`)."""
        return [DLinkedList() for _ in range(count)]

    @abc.abstractmethod
    def _insert(self, timer: Timer) -> None:
        """Place ``timer`` into the scheme's structure (charges ops)."""

    @abc.abstractmethod
    def _remove(self, timer: Timer) -> None:
        """Remove a pending ``timer`` from the structure (charges ops)."""

    @abc.abstractmethod
    def _collect_expired(self) -> List[Timer]:
        """Detach and return every timer due at the (just-advanced) tick."""

    # -------------------------------------------------------------- plumbing

    def _make_auto_id(self) -> str:
        while True:
            candidate = f"auto-{next(self._auto_ids)}"
            if candidate not in self._active:
                return candidate

    def _resolve(self, timer_or_id: Union[Timer, Hashable]) -> Timer:
        if isinstance(timer_or_id, Timer):
            return timer_or_id
        if isinstance(timer_or_id, TimerHandle):
            return timer_or_id.resolve()
        return self.get_timer(timer_or_id)

    def _mark_expired(self, timer: Timer) -> None:
        """First phase of EXPIRY_PROCESSING: state + bookkeeping."""
        timer.state = TimerState.EXPIRED
        timer.expired_at = self._now
        # Unconditional: a restarted record carries its previous leg's
        # stamp until this new finalisation supersedes it.
        timer.fired_at = self._now
        # The record leaves the pending map before any callback runs, so
        # re-entrant start_timer may reuse the id.
        self._active.pop(timer.request_id, None)
        self.total_expired += 1

    def _run_expiry_action(self, timer: Timer) -> None:
        """Second phase of EXPIRY_PROCESSING: the client's Expiry_Action."""
        if timer.callback is not None:
            observer = self.observer
            if observer is NULL_OBSERVER:
                try:
                    timer.callback(timer)
                except Exception as exc:  # noqa: BLE001 - policy decides
                    if self._error_policy == "collect":
                        self.callback_errors.append((timer, exc))
                    else:
                        raise
                return
            observer.on_callback_begin(self, timer)
            try:
                timer.callback(timer)
            except Exception as exc:  # noqa: BLE001 - policy decides
                # The observer sees the failure under either policy; the
                # policy only decides whether tick() re-raises.
                observer.on_callback_error(self, timer, exc)
                observer.on_callback_end(self, timer, exc)
                if self._error_policy == "collect":
                    self.callback_errors.append((timer, exc))
                else:
                    raise
            else:
                observer.on_callback_end(self, timer, None)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(now={self._now}, "
            f"pending={self.pending_count})"
        )
