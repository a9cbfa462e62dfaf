"""Scheme 1 — the straightforward algorithm (Section 3.1).

"START_TIMER finds a memory location and sets that location to the
specified timer interval. Every T units, PER_TICK_BOOKKEEPING will
decrement each outstanding timer; if any timer becomes zero,
EXPIRY_PROCESSING is called."

START_TIMER and STOP_TIMER are O(1); PER_TICK_BOOKKEEPING is O(n) because
every outstanding record is touched on every tick — the cost the rest of the
paper is built to avoid. Space is one record per timer, the minimum
possible.

The records live on one intrusive doubly linked list so STOP_TIMER can
unlink in O(1) without a search; the paper's "memory location" per timer is
the record's ``_remaining`` field, decremented in place each tick.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.interface import Timer, TimerScheduler
from repro.cost.counters import OpCounter
from repro.structures.dlist import DLinkedList


class StraightforwardScheduler(TimerScheduler):
    """Scheme 1: per-tick scan of every outstanding timer.

    ``mode`` selects between the paper's two equivalent formulations
    (Section 3.1): ``"decrement"`` stores the remaining interval and
    decrements it each tick (the paper's default); ``"compare"`` stores
    the absolute expiry time and compares it against the time of day
    ("instead of doing a DECREMENT, we can store the absolute time at
    which timers expire and do a COMPARE. This option is valid for all
    timer schemes"). The COMPARE form saves the per-record write — one op
    per timer per tick — at the price of a wider time-of-day field, which
    is exactly the trade-off the paper describes.
    """

    scheme_name = "scheme1"

    def __init__(
        self,
        mode: str = "decrement",
        counter: Optional[OpCounter] = None,
    ) -> None:
        super().__init__(counter)
        if mode not in ("decrement", "compare"):
            raise ValueError(f"mode must be 'decrement' or 'compare', got {mode!r}")
        self.mode = mode
        self._records = DLinkedList()

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "unordered-list",
            "mode": self.mode,
            "records": len(self._records),
        }
        return info

    def next_expiry(self) -> Optional[int]:
        """Exact minimum deadline via an (uncharged) O(n) planning scan.

        In decrement mode ``_remaining == deadline - now`` is an invariant
        (every record is decremented every tick, bulk skips included), so
        both modes reduce to the minimum stored deadline.
        """
        if not self._records:
            return None
        return min(timer.deadline for timer in self._records)  # type: ignore[attr-defined]

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Each empty tick still touches every record: read + decrement +
        # test in decrement mode, read + compare in compare mode. Bulk
        # skips multiply those charges and batch the decrements.
        n = len(self._records)
        if self.mode == "decrement":
            self.counter.charge(
                reads=count * n, writes=count * n, compares=count * n
            )
            for node in self._records:
                node._remaining -= count  # type: ignore[attr-defined]
        else:
            self.counter.charge(reads=count * n, compares=count * n)

    def _insert(self, timer: Timer) -> None:
        # One write to set the location to the interval (or the absolute
        # expiry time), one link to track the record.
        timer._remaining = timer.interval
        self.counter.write(1)
        self.counter.link(1)
        self._records.push_front(timer)

    def _remove(self, timer: Timer) -> None:
        self._records.remove(timer)
        self.counter.link(1)

    def _collect_expired(self) -> List[Timer]:
        if self.mode == "decrement":
            return self._collect_decrement()
        return self._collect_compare()

    def _collect_decrement(self) -> List[Timer]:
        expired: List[Timer] = []
        # DECREMENT variant: read, decrement, test — every record, every tick.
        for node in self._records:
            timer: Timer = node  # records on this list are always Timers
            self.counter.read(1)
            timer._remaining -= 1
            self.counter.write(1)
            self.counter.compare(1)
            if timer._remaining == 0:
                self._records.remove(timer)
                self.counter.link(1)
                expired.append(timer)
        return expired

    def _collect_compare(self) -> List[Timer]:
        expired: List[Timer] = []
        # COMPARE variant: read the stored absolute time, compare with the
        # time of day — no per-record write.
        now = self._now
        for node in self._records:
            timer: Timer = node
            self.counter.read(1)
            self.counter.compare(1)
            if timer.deadline <= now:
                self._records.remove(timer)
                self.counter.link(1)
                expired.append(timer)
        return expired
