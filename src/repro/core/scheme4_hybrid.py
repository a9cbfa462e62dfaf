"""The Section 5 hybrid: a timing wheel for near timers, Scheme 2 beyond.

"Still memory is finite: it is difficult to justify 2^32 words of memory
to implement 32 bit timers. One solution is to implement timers within
some range using this scheme and the allowed memory. Timers greater than
this value are implemented using, say, Scheme 2."

The wheel serves every interval below ``max_interval`` at O(1); longer
timers park in an ordered overflow list (searched from the rear, which is
the cheap end for far-future deadlines) and are *promoted* onto the wheel
as their remaining time falls into range. Promotion is checked once per
wheel revolution — an O(1) amortised drip that keeps PER_TICK costs flat.

This is also, deliberately, the ancestor of the hierarchy: Scheme 7 is
what you get when the overflow list is itself replaced by coarser wheels.
The XTRA3 ablation bench quantifies the difference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.validation import check_positive_int
from repro.core.errors import TimerConfigurationError
from repro.cost.counters import OpCounter
from repro.structures.bitmap import SlotBitmap
from repro.structures.dlist import DLinkedList
from repro.structures.sorted_list import SearchDirection, SortedDList


class HybridWheelScheduler(TimerScheduler):
    """Scheme 4 wheel + Scheme 2 overflow queue (the paper's own hybrid)."""

    scheme_name = "scheme4-hybrid"

    #: scratch marker for which structure currently holds the timer.
    _ON_WHEEL = 0
    _ON_OVERFLOW = 1

    def __init__(
        self,
        max_interval: int = 4096,
        counter: Optional[OpCounter] = None,
    ) -> None:
        super().__init__(counter)
        check_positive_int("max_interval", max_interval)
        if max_interval < 2:
            raise TimerConfigurationError("max_interval must be at least 2")
        self.max_interval = max_interval
        self._slots = [DLinkedList() for _ in range(max_interval)]
        self._cursor = 0
        # One bit per wheel slot, set while the slot list is non-empty;
        # fast-path bookkeeping only, never charged.
        self._occupancy = SlotBitmap(max_interval)
        self._overflow = SortedDList(
            key=lambda node: node.deadline,  # type: ignore[attr-defined]
            direction=SearchDirection.FROM_REAR,
            counter=self.counter,
        )
        #: overflow entries promoted onto the wheel so far.
        self.promotions = 0

    # ----------------------------------------------------------- inspection

    @property
    def cursor(self) -> int:
        """Current time pointer (index into the wheel)."""
        return self._cursor

    @property
    def overflow_count(self) -> int:
        """Timers currently parked beyond the wheel's range."""
        return len(self._overflow)

    @property
    def wheel_count(self) -> int:
        """Timers currently resident on the wheel."""
        return self.pending_count - len(self._overflow)

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "wheel+overflow",
            "max_interval": self.max_interval,
            "cursor": self._cursor,
            "wheel_count": self.wheel_count,
            "overflow_length": len(self._overflow),
            "promotions": self.promotions,
            "slot_occupancy": occupancy_summary(
                [len(slot) for slot in self._slots]
            ),
        }
        return info

    # -------------------------------------------------------- sparse fast path

    def next_expiry(self) -> Optional[int]:
        """Exact: min(next occupied wheel visit, overflow head deadline).

        Wheel slots hold only timers due at their visit tick, and the
        overflow queue is deadline-sorted, so the minimum of the two is
        the true next firing tick.
        """
        candidate = None
        index = self._occupancy.next_set_circular(
            (self._cursor + 1) % self.max_interval
        )
        if index is not None:
            distance = (index - self._cursor - 1) % self.max_interval + 1
            candidate = self._now + distance
        head_key = self._overflow.peek_key()
        if head_key is not None and (candidate is None or head_key < candidate):
            candidate = head_key
        return candidate

    def _next_event(self) -> Optional[int]:
        # A revolution boundary with a non-empty overflow queue is a real
        # event even when nothing fires: the promotion scan pops entries
        # into the wheel (and charges differently from a plain empty tick).
        nxt = self.next_expiry()
        if self._overflow:
            boundary = self._now + self._ticks_to_wrap()
            if nxt is None or boundary < nxt:
                nxt = boundary
        return nxt

    def _ticks_to_wrap(self) -> int:
        """Ticks until the cursor next lands on slot 0 (1..max_interval)."""
        return (self.max_interval - self._cursor - 1) % self.max_interval + 1

    def _charge_empty_ticks(self, count: int) -> None:
        # Per empty tick: cursor write, slot read + compare. Each time the
        # cursor wraps to slot 0 with an empty overflow queue, the
        # promotion check additionally reads the (absent) overflow head.
        # _next_event guarantees any wrap inside a skipped gap has an
        # empty overflow queue.
        wrap_distance = self._ticks_to_wrap()
        wraps = 0
        if count >= wrap_distance:
            wraps = 1 + (count - wrap_distance) // self.max_interval
        self._cursor = (self._cursor + count) % self.max_interval
        self.counter.charge(writes=count, reads=count + wraps, compares=count)

    # ------------------------------------------------------------ internals

    def _insert(self, timer: Timer) -> None:
        remaining = timer.deadline - self._now
        self.counter.compare(1)
        if remaining < self.max_interval:
            self._place_on_wheel(timer, remaining)
        else:
            timer._level = self._ON_OVERFLOW
            self._overflow.insert(timer)

    def _place_on_wheel(self, timer: Timer, remaining: int) -> None:
        index = (self._cursor + remaining) % self.max_interval
        timer._level = self._ON_WHEEL
        timer._slot_index = index
        self.counter.charge(reads=1, writes=1, links=1)
        self._slots[index].push_front(timer)
        self._occupancy.set(index)

    def _remove(self, timer: Timer) -> None:
        if timer._level == self._ON_WHEEL:
            index = timer._slot_index
            self._slots[index].remove(timer)
            timer._slot_index = -1
            self.counter.link(1)
            if not self._slots[index]:
                self._occupancy.clear(index)
        else:
            self._overflow.remove(timer)
        timer._level = -1

    def _collect_expired(self) -> List[Timer]:
        self._cursor = (self._cursor + 1) % self.max_interval
        self.counter.write(1)
        # Once per revolution, promote overflow entries now within range.
        # Their deadlines are < now + max_interval, i.e. strictly ahead of
        # the cursor, so they land on not-yet-visited slots.
        if self._cursor == 0:
            self._promote_due_overflow()
        slot = self._slots[self._cursor]
        self.counter.charge(reads=1, compares=1)
        if slot:
            self._occupancy.clear(self._cursor)  # the drain empties the slot
        expired: List[Timer] = []
        for node in slot.drain():
            timer: Timer = node  # slot lists hold only Timers
            timer._slot_index = -1
            timer._level = -1
            self.counter.charge(reads=1, links=1)
            expired.append(timer)
        return expired

    def _promote_due_overflow(self) -> None:
        # The overflow queue is sorted by deadline: peel from the front
        # while entries fall inside the next wheel revolution.
        while True:
            head_key = self._overflow.peek_key()
            self.counter.read(1)
            if head_key is None:
                break
            self.counter.compare(1)
            if head_key - self._now >= self.max_interval:
                break
            timer: Timer = self._overflow.pop_front()  # type: ignore[assignment]
            self.promotions += 1
            self._place_on_wheel(timer, timer.deadline - self._now)
            self.observer.on_migrate(
                self, timer, self._ON_OVERFLOW, self._ON_WHEEL
            )
