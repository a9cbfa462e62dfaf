"""Scheme 2 — ordered list / timer queue (Section 3.2).

"Timers are stored in an ordered list ... we will store the absolute time
at which the timer expires, and not the interval before expiry. The timer
that is due to expire at the earliest time is stored at the head of the
list."

PER_TICK_BOOKKEEPING compares the time of day with the head of the list and
pops while due — O(1) per tick plus the unavoidable expiry work.
START_TIMER searches the list for the insertion position — O(n) worst case,
with the average analysed in Section 3.2 (``2 + 2n/3`` comparisons for
exponential intervals searching from the head, ``2 + n/3`` searching from
the rear; the SEC32 bench reproduces those curves). STOP_TIMER is O(1)
because the list is doubly linked and the client holds the record.

This is the scheme the paper says "VMS and UNIX" used. Pass
``direction=SearchDirection.FROM_REAR`` to get the rear-search variant —
O(1) when all intervals are equal, since every new timer has the latest
deadline and lands at the tail immediately.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.interface import Timer, TimerScheduler
from repro.cost.counters import OpCounter
from repro.structures.sorted_list import SearchDirection, SortedDList


class OrderedListScheduler(TimerScheduler):
    """Scheme 2: sorted doubly linked timer queue keyed by absolute deadline."""

    scheme_name = "scheme2"

    def __init__(
        self,
        direction: SearchDirection = SearchDirection.FROM_HEAD,
        counter: Optional[OpCounter] = None,
    ) -> None:
        super().__init__(counter)
        self._queue = SortedDList(
            key=lambda node: node.deadline,  # type: ignore[attr-defined]
            direction=direction,
            counter=self.counter,
        )
        #: comparisons made by the most recent insertion (SEC32 metering).
        self.last_insert_compares = 0

    @property
    def direction(self) -> SearchDirection:
        """Which end insertion scans from."""
        return self._queue.direction

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "sorted-list",
            "length": len(self._queue),
            "direction": self._queue.direction.name.lower(),
            "earliest_deadline": self.earliest_deadline(),
            "last_insert_compares": self.last_insert_compares,
        }
        return info

    def next_expiry(self) -> Optional[int]:
        """Exact: the head of the sorted queue (uncharged peek)."""
        return self._queue.peek_key()

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Per empty tick: increment time of day (write), load the head
        # (read), and compare its deadline when the queue is non-empty.
        head_key = self._queue.peek_key()
        self.counter.charge(
            writes=count,
            reads=count,
            compares=count if head_key is not None else 0,
        )

    def _insert(self, timer: Timer) -> None:
        self.last_insert_compares = self._queue.insert(timer)

    def _remove(self, timer: Timer) -> None:
        self._queue.remove(timer)

    def _collect_expired(self) -> List[Timer]:
        expired: List[Timer] = []
        # "PER_TICK_PROCESSING need only increment the current time of day,
        # and compare it with the head of the list."
        self.counter.write(1)  # increment time of day
        while True:
            head = self._queue.head
            self.counter.read(1)
            if head is None:
                break
            self.counter.compare(1)
            timer: Timer = head  # nodes on this queue are always Timers
            if timer.deadline > self._now:
                break
            self._queue.pop_front()
            expired.append(timer)
        return expired

    def earliest_deadline(self) -> Optional[int]:
        """Deadline at the head of the queue (used by the hardware
        single-timer assist of Appendix A), or ``None`` when idle."""
        return self._queue.peek_key()

    def deadlines_in_order(self) -> List[int]:
        """Snapshot of all queued deadlines, head to tail (for tests)."""
        return [node.deadline for node in self._queue]  # type: ignore[attr-defined]
