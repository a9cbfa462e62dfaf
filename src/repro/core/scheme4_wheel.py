"""Scheme 4 — basic timing wheel for bounded intervals (Section 5).

"If we can guarantee that all timers are set for periods less than
MaxInterval, this modified algorithm takes O(1) latency for START_TIMER,
STOP_TIMER, and PER_TICK_BOOKKEEPING. ... To set a timer at j units past
current time, we index into Element (i + j mod MaxInterval), and put the
timer at the head of a list of timers that will expire at a time =
CurrentTime + j units."

Unlike the logic-simulation wheels of Section 4.2 (Figure 7), this wheel
"turns one array element every timer unit", so no overflow list is ever
needed for in-range intervals — the property the paper highlights as the
departure from conventional timing-wheel algorithms.

In sorting terms this is a bucket sort that trades memory for processing;
the crucial observation (Section 5) is that stepping through an empty bucket
costs only a few instructions for the entity that must update the current
time anyway.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import TimerConfigurationError
from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.validation import check_positive_int
from repro.cost.counters import NO_CHARGE, OpCounter, charge_folded
from repro.structures.bitmap import SlotBitmap
from repro.structures.dlist import DLinkedList

#: Charged ``(reads, writes, compares, links)`` per routine; the SoA twin
#: charges these same constants.
#: START: index computation + push at the head of the slot list.
INSERT_CHARGE = (1, 1, 0, 1)  # = 3
#: STOP: one unlink.
DELETE_CHARGE = (0, 0, 0, 1)  # = 1
#: UPDATE_TIMER is two pointer splices on a wheel: unlink from the old slot,
#: relink at the recomputed one. The index arithmetic rides the cursor the
#: per-tick bookkeeping already maintains, so the whole re-arm costs half
#: the STOP+START round trip (1 + 3 charged ops).
UPDATE_CHARGE = (0, 0, 0, 2)  # = 2
#: Every tick: pointer increment (write), slot load (read), zero check.
TICK_CHARGE = (1, 1, 1, 0)  # = 3
#: Each timer drained from the slot: one read, one unlink.
EXPIRE_CHARGE = (1, 0, 0, 1)  # = 2


class TimingWheelScheduler(TimerScheduler):
    """Scheme 4: circular buffer of ``max_interval`` slots, one tick each.

    ``store`` selects the timer representation: ``"object"`` (default)
    keeps per-timer :class:`Timer` records on intrusive lists;
    ``"soa"`` returns the struct-of-arrays twin
    (:class:`~repro.core.soa_schemes.SoATimingWheelScheduler`) — same
    scheme, same OpCounter charges and expiry order, a fraction of the
    memory per timer (see ``docs/performance.md``).
    """

    scheme_name = "scheme4"

    def __new__(cls, *args, store: str = "object", **kwargs):
        if store not in ("object", "soa"):
            raise TimerConfigurationError(
                f"store must be 'object' or 'soa', got {store!r}"
            )
        if store == "soa":
            if cls is not TimingWheelScheduler:
                raise TimerConfigurationError(
                    f"store='soa' is not available on {cls.__name__}; "
                    "construct TimingWheelScheduler directly"
                )
            from repro.core.soa_schemes import SoATimingWheelScheduler

            # Not a subclass, so __init__ below is skipped: build it whole.
            return SoATimingWheelScheduler(*args, **kwargs)
        return super().__new__(cls)

    def __init__(
        self,
        max_interval: int,
        counter: Optional[OpCounter] = None,
        recycle: bool = False,
        store: str = "object",
        soa_store=None,
    ) -> None:
        super().__init__(counter, recycle=recycle)
        if soa_store is not None:
            raise TimerConfigurationError(
                "soa_store requires store='soa'"
            )
        check_positive_int("max_interval", max_interval)
        if max_interval < 2:
            # A 1-slot wheel can hold no interval (they must be < max).
            raise TimerConfigurationError("max_interval must be at least 2")
        self.max_interval = max_interval
        self._slots = [DLinkedList() for _ in range(max_interval)]
        self._cursor = 0  # the paper's current time pointer, in [0, max)
        # One bit per slot, set while the slot list is non-empty; pure
        # fast-path bookkeeping, never charged to the counter.
        self._occupancy = SlotBitmap(max_interval)

    def max_start_interval(self) -> Optional[int]:
        return self.max_interval

    @property
    def cursor(self) -> int:
        """Current time pointer (index into the circular buffer)."""
        return self._cursor

    def slot_sizes(self) -> List[int]:
        """Occupancy of each slot, for inspection and tests."""
        return [len(slot) for slot in self._slots]

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "wheel",
            "max_interval": self.max_interval,
            "cursor": self._cursor,
            "slot_occupancy": occupancy_summary(self.slot_sizes()),
        }
        return info

    def next_expiry(self) -> Optional[int]:
        """Exact: every occupied slot's visit tick *is* a deadline here."""
        index = self._occupancy.next_set_circular(
            (self._cursor + 1) % self.max_interval
        )
        if index is None:
            return None
        # Circular distance from the cursor, mapping 0 to a full turn.
        distance = (index - self._cursor - 1) % self.max_interval + 1
        return self._now + distance

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Empty ticks pay only the per-tick constant; the cursor advances
        # with the clock.
        self._cursor = (self._cursor + count) % self.max_interval
        charge_folded(self.counter, NO_CHARGE, count, TICK_CHARGE)

    # Occupancy bits flip only when a slot list goes from empty to
    # non-empty or back.

    def _insert(self, timer: Timer) -> None:
        index = (self._cursor + timer.interval) % self.max_interval
        timer._slot_index = index
        self.counter.charge(*INSERT_CHARGE)
        if self._slots[index].push_front(timer) == 1:
            self._occupancy.set(index)

    def _remove(self, timer: Timer) -> None:
        index = timer._slot_index
        if not self._slots[index].remove(timer):
            self._occupancy.clear(index)
        timer._slot_index = -1
        self.counter.charge(*DELETE_CHARGE)

    def _update(self, timer: Timer, new_interval: int) -> None:
        slots = self._slots
        index = timer._slot_index
        if not slots[index].remove(timer):
            self._occupancy.clear(index)
        now = self._now
        timer.interval = new_interval
        timer.started_at = now
        timer.deadline = timer._fire_at = now + new_interval
        timer._remaining = new_interval
        index = (self._cursor + new_interval) % self.max_interval
        timer._slot_index = index
        self.counter.charge(*UPDATE_CHARGE)
        if slots[index].push_front(timer) == 1:
            self._occupancy.set(index)

    def _collect_expired(self) -> List[Timer]:
        # "Each tick we increment the current timer pointer (mod
        # MaxInterval) and check the array element being pointed to."
        cursor = self._cursor = (self._cursor + 1) % self.max_interval
        slot = self._slots[cursor]
        expired: List[Timer] = []
        if slot:
            self._occupancy.clear(cursor)  # the drain empties the slot
            for timer in slot.drain():  # slot lists hold only Timers
                timer._slot_index = -1
                expired.append(timer)
        charge_folded(self.counter, TICK_CHARGE, len(expired), EXPIRE_CHARGE)
        return expired
