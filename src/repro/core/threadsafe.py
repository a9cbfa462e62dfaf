"""A thread-safe front for any scheduler (the real-lock cousin of A.2).

The Appendix A.2 *model* in :mod:`repro.smp` simulates lock contention;
this module is the practical counterpart for programs where client
threads call START/STOP while another thread drives the clock. It is the
paper's "global semaphore" discipline: one lock around the whole module —
correct for every scheme, with exactly the serialisation cost Appendix
A.2 warns about for long critical sections (Scheme 2) and shrugs off for
the O(1) wheels.

The facade forwards the whole :class:`~repro.core.layer.SchedulerLayer`
surface and every public call of the layer it wraps (``close``,
``flush``, ``snapshot``, ``sync_clock``, ...) under its lock, so the
"module" it serialises is everything below it. Only the outermost layer's
lock makes a stack thread-safe: a facade below a supervising or
journaling layer leaves that layer's own bookkeeping unserialised. The
wrapped scheduler must not be touched directly once wrapped.
"""

from __future__ import annotations

import functools
import inspect
import threading
from typing import List

from repro.core.interface import Timer
from repro.core.layer import SchedulerLayer


def _locked(lock, call):
    def locked(*args, **kwargs):
        with lock:
            return call(*args, **kwargs)

    return functools.update_wrapper(locked, call)


class ThreadSafeScheduler(SchedulerLayer, locked=True):
    """Mutex-serialised facade over a scheduler or a stack of layers.

    Expiry callbacks run while the lock is held (they are part of
    PER_TICK_BOOKKEEPING); re-entrant calls from the ticking thread's own
    callbacks are supported via an RLock. Calls from *other* threads
    inside a callback would deadlock by design — the module is a single
    serialised resource, per the appendix's global-semaphore picture.

    Over a bare scheme ``advance``/``advance_to`` hop event to event and
    drop the lock between hops. Over a layer each is one call under the
    lock, so a durable layer below journals one ``advance`` record per
    client call rather than one per event tick.
    """

    def __init__(self, scheduler) -> None:
        super().__init__(scheduler)
        self._lock = threading.RLock()
        #: acquisitions that had to wait (best effort; uses non-blocking
        #: probe so it undercounts under heavy contention races).
        self.contended_acquisitions = 0
        # The wrapped layer's own public calls, bound once under the lock.
        own = type(self)
        for name in dir(type(scheduler)):
            if name.startswith("_") or hasattr(own, name):
                continue
            if inspect.isfunction(getattr(type(scheduler), name)):
                setattr(self, name, _locked(self._lock, getattr(scheduler, name)))
        if isinstance(scheduler, SchedulerLayer):
            # A layer journals or supervises each advance it gets, so it
            # gets one per client call; only a bare scheme is hopped.
            self.advance = _locked(self._lock, scheduler.advance)
            self.advance_to = _locked(self._lock, scheduler.advance_to)

    def advance(self, ticks: int) -> List[Timer]:
        """Advance ``ticks`` ticks, one serialised event hop at a time.

        The lock is released between hops so client threads can
        interleave; each hop uses the wrapped scheduler's sparse fast
        path, so runs of provably-empty ticks cost one lock acquisition
        instead of one per tick.
        """
        with self._lock:
            deadline = self._inner.now + ticks
        return self.advance_to(deadline)

    def advance_to(self, deadline: int) -> List[Timer]:
        """Advance the clock to ``deadline`` in serialised event hops.

        Between hops the lock is dropped, so a START_TIMER racing the
        jump can still land on a not-yet-skipped tick — each hop re-reads
        the wrapped scheduler's next event under the lock.
        """
        expired: List[Timer] = []
        lock = self._lock
        while True:
            if not lock.acquire(False):
                self.contended_acquisitions += 1
                lock.acquire()
            try:
                now = self._inner.now
                if now >= deadline:
                    break
                event = self._inner._next_event()
                target = deadline if event is None else min(event, deadline)
                if target <= now:
                    # A stale _next_event claim (tick <= now) would make
                    # this hop a no-op and the loop spin forever; every
                    # hop must make strictly positive progress. now + 1
                    # never overshoots: deadline > now on this branch.
                    target = now + 1
                expired.extend(self._inner.advance_to(target))
            finally:
                lock.release()
        return expired

    @property
    def callback_errors(self) -> List["tuple"]:
        """A serialised *snapshot* of the collected-failure ring.

        Returns a copy taken under the lock, so iterating it cannot race
        a ticking thread appending new failures (the live ring on the
        wrapped scheduler mutates during expiry processing).
        """
        with self._lock:
            return list(self._inner.callback_errors)
