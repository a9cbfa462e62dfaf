"""A thread-safe front for any scheduler (the real-lock cousin of A.2).

The Appendix A.2 *model* in :mod:`repro.smp` simulates lock contention;
this module is the practical counterpart for programs where client
threads call START/STOP while another thread drives the clock. It is the
paper's "global semaphore" discipline: one lock around the whole module —
correct for every scheme, with exactly the serialisation cost Appendix
A.2 warns about for long critical sections (Scheme 2) and shrugs off for
the O(1) wheels.

The wrapper reproduces the public :class:`TimerScheduler` surface; the
wrapped scheduler must not be touched directly once wrapped.
"""

from __future__ import annotations

import threading
from typing import Hashable, List, Optional, Union

from repro.core.interface import ExpiryAction, Timer, TimerScheduler


class ThreadSafeScheduler:
    """Mutex-serialised facade over a :class:`TimerScheduler`.

    Expiry callbacks run while the lock is held (they are part of
    PER_TICK_BOOKKEEPING); re-entrant calls from the ticking thread's own
    callbacks are supported via an RLock. Calls from *other* threads
    inside a callback would deadlock by design — the module is a single
    serialised resource, per the appendix's global-semaphore picture.
    """

    def __init__(self, scheduler: TimerScheduler) -> None:
        self._scheduler = scheduler
        self._lock = threading.RLock()
        #: acquisitions that had to wait (best effort; uses non-blocking
        #: probe so it undercounts under heavy contention races).
        self.contended_acquisitions = 0

    def _acquire(self) -> None:
        if not self._lock.acquire(blocking=False):
            self.contended_acquisitions += 1
            self._lock.acquire()

    # ----------------------------------------------------------- client API

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> Timer:
        """Serialised START_TIMER."""
        self._acquire()
        try:
            return self._scheduler.start_timer(
                interval,
                request_id=request_id,
                callback=callback,
                user_data=user_data,
            )
        finally:
            self._lock.release()

    def stop_timer(self, timer_or_id: Union[Timer, Hashable]) -> Timer:
        """Serialised STOP_TIMER."""
        self._acquire()
        try:
            return self._scheduler.stop_timer(timer_or_id)
        finally:
            self._lock.release()

    def update_timer(
        self, timer_or_id: Union[Timer, Hashable], new_interval: int
    ) -> Timer:
        """Serialised UPDATE_TIMER (wheel-native re-arm, one lock hold)."""
        self._acquire()
        try:
            return self._scheduler.update_timer(timer_or_id, new_interval)
        finally:
            self._lock.release()

    def restart_timer(
        self,
        timer: Timer,
        interval: Optional[int] = None,
        request_id: Optional[Hashable] = None,
    ) -> Timer:
        """Serialised restart of a fired/stopped record."""
        self._acquire()
        try:
            return self._scheduler.restart_timer(
                timer, interval=interval, request_id=request_id
            )
        finally:
            self._lock.release()

    def tick(self) -> List[Timer]:
        """Serialised PER_TICK_BOOKKEEPING (callbacks run under the lock)."""
        self._acquire()
        try:
            return self._scheduler.tick()
        finally:
            self._lock.release()

    def advance(self, ticks: int) -> List[Timer]:
        """Advance ``ticks`` ticks, one serialised event hop at a time.

        The lock is released between hops so client threads can
        interleave; each hop uses the wrapped scheduler's sparse fast
        path, so runs of provably-empty ticks cost one lock acquisition
        instead of one per tick.
        """
        self._acquire()
        try:
            deadline = self._scheduler.now + ticks
        finally:
            self._lock.release()
        return self.advance_to(deadline)

    def advance_to(self, deadline: int) -> List[Timer]:
        """Advance the clock to ``deadline`` in serialised event hops.

        Between hops the lock is dropped, so a START_TIMER racing the
        jump can still land on a not-yet-skipped tick — each hop re-reads
        the wrapped scheduler's next event under the lock.
        """
        expired: List[Timer] = []
        while True:
            self._acquire()
            try:
                now = self._scheduler.now
                if now >= deadline:
                    break
                event = self._scheduler._next_event()
                target = deadline if event is None else min(event, deadline)
                if target <= now:
                    # A stale _next_event claim (tick <= now) would make
                    # this hop a no-op and the loop spin forever; every
                    # hop must make strictly positive progress. now + 1
                    # never overshoots: deadline > now on this branch.
                    target = now + 1
                expired.extend(self._scheduler.advance_to(target))
            finally:
                self._lock.release()
        return expired

    def next_expiry(self) -> Optional[int]:
        """Serialised lower bound on the next firing tick."""
        with self._lock:
            return self._scheduler.next_expiry()

    def run_until_idle(self, max_ticks: int = 1_000_000) -> List[Timer]:
        """Serialised run to quiescence (one lock hold; see the wrapped
        scheduler for livelock semantics)."""
        self._acquire()
        try:
            return self._scheduler.run_until_idle(max_ticks=max_ticks)
        finally:
            self._lock.release()

    def shutdown(self) -> List[Timer]:
        """Serialised shutdown."""
        self._acquire()
        try:
            return self._scheduler.shutdown()
        finally:
            self._lock.release()

    # --------------------------------------------------------- error handling

    def set_error_policy(self, policy: str) -> None:
        """Serialised error-policy switch.

        Must hold the module lock: a racing ``advance_to`` hop reads the
        policy mid-expiry, and an unserialised flip could let one batch
        run half-"propagate", half-"collect".
        """
        self._acquire()
        try:
            self._scheduler.set_error_policy(policy)
        finally:
            self._lock.release()

    def set_error_capacity(self, capacity: int) -> None:
        """Serialised resize of the bounded error ring."""
        self._acquire()
        try:
            self._scheduler.set_error_capacity(capacity)
        finally:
            self._lock.release()

    @property
    def callback_errors(self) -> List["tuple"]:
        """A serialised *snapshot* of the collected-failure ring.

        Returns a copy taken under the lock, so iterating it cannot race
        a ticking thread appending new failures (the live ring on the
        wrapped scheduler mutates during expiry processing).
        """
        with self._lock:
            return list(self._scheduler.callback_errors)

    @property
    def dropped_errors(self) -> int:
        """Collected failures evicted by the ring's capacity bound."""
        with self._lock:
            return self._scheduler.dropped_errors

    def clear_callback_errors(self) -> List["tuple"]:
        """Serialised drain of the collected-failure ring."""
        self._acquire()
        try:
            return self._scheduler.clear_callback_errors()
        finally:
            self._lock.release()

    # ------------------------------------------------------------ inspection

    @property
    def now(self) -> int:
        """Current tick (reads are serialised too, for a coherent view)."""
        with self._lock:
            return self._scheduler.now

    @property
    def pending_count(self) -> int:
        """Outstanding timers."""
        with self._lock:
            return self._scheduler.pending_count

    def is_pending(self, request_id: Hashable) -> bool:
        """True when ``request_id`` names an outstanding timer."""
        with self._lock:
            return self._scheduler.is_pending(request_id)

    def get_timer(self, request_id: Hashable) -> Timer:
        """Serialised lookup of a pending timer's record."""
        with self._lock:
            return self._scheduler.get_timer(request_id)

    def pending_timers(self) -> List[Timer]:
        """Serialised snapshot of the outstanding records."""
        with self._lock:
            return self._scheduler.pending_timers()

    def max_start_interval(self) -> Optional[int]:
        """Serialised START_TIMER interval bound of the wrapped scheme."""
        with self._lock:
            return self._scheduler.max_start_interval()

    @property
    def free_record_count(self) -> int:
        """Recycled records pooled by the wrapped scheduler."""
        with self._lock:
            return self._scheduler.free_record_count

    @property
    def is_shut_down(self) -> bool:
        """True after :meth:`shutdown`."""
        with self._lock:
            return self._scheduler.is_shut_down

    @property
    def ERROR_POLICIES(self):
        """The wrapped scheduler's accepted error-policy names."""
        return self._scheduler.ERROR_POLICIES

    @property
    def scheme_name(self) -> str:
        """Wrapped scheme's registry name."""
        return self._scheduler.scheme_name

    @property
    def counter(self):
        """The wrapped scheduler's op counter."""
        return self._scheduler.counter

    @property
    def observer(self):
        """The wrapped scheduler's attached observer (read by supervision)."""
        return self._scheduler.observer

    def introspect(self):
        """Serialised structure snapshot of the wrapped scheduler."""
        with self._lock:
            return self._scheduler.introspect()

    def attach_observer(self, observer):
        """Serialised observer attachment on the wrapped scheduler."""
        with self._lock:
            return self._scheduler.attach_observer(observer)

    def detach_observer(self):
        """Serialised observer detachment on the wrapped scheduler."""
        with self._lock:
            return self._scheduler.detach_observer()
