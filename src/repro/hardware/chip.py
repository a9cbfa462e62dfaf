"""The Appendix A scanning timer chip, simulated.

"Another possibility is a chip (actually just a counter) that steps through
the timer arrays, and interrupts the host only if there is work to be done.
When the host inserts a timer into an empty queue pointed to by array
element X it tells the chip about this new queue. The chip then marks X as
'busy'. ... During its scan, when the chip encounters a 'busy' location, it
interrupts the host ... when the host deletes a timer entry from some queue
and leaves behind an empty queue it needs to inform the chip that the
corresponding array location is no longer 'busy'."

The split is modelled faithfully: the chip owns only busy bits (one per
array element, per level for Scheme 7); the host owns the timer queues (the
wrapped scheduler). Host→chip notifications happen on the insert/delete
edges that flip a queue between empty and non-empty; chip→host interrupts
happen when the scan hits a busy bit. The appendix's headline numbers —
``T/M`` interrupts per timer under Scheme 6, at most ``m`` under Scheme 7 —
fall straight out of the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.core.interface import Timer
from repro.core.scheme6_hashed_unsorted import HashedWheelUnsortedScheduler
from repro.core.scheme7_hierarchical import HierarchicalWheelScheduler
from repro.structures.bitmap import WORD_BITS, SlotBitmap

#: Set bits in a word (``int.bit_count`` where the interpreter has it).
_popcount = getattr(int, "bit_count", lambda word: bin(word).count("1"))


@dataclass
class ChipReport:
    """Interrupt accounting for one run."""

    ticks: int = 0
    host_interrupts: int = 0
    busy_notifications: int = 0  # host -> chip "mark busy"
    idle_notifications: int = 0  # host -> chip "clear busy"
    timers_completed: int = 0

    @property
    def interrupts_per_tick(self) -> float:
        """Fraction of ticks on which the host was interrupted."""
        return self.host_interrupts / self.ticks if self.ticks else 0.0

    @property
    def interrupts_per_timer(self) -> float:
        """Host interrupts per completed timer — the appendix's metric."""
        if not self.timers_completed:
            return 0.0
        return self.host_interrupts / self.timers_completed


class ScanningChipAssist:
    """Busy-bit scanning chip wrapped around a Scheme 6 or Scheme 7 module.

    Use it like a scheduler: :meth:`start_timer`, :meth:`stop_timer`,
    :meth:`tick`. Every call keeps the chip's busy bits consistent with the
    host's queues and counts the interrupts the hardware would raise.
    """

    def __init__(
        self,
        scheduler: Union[HashedWheelUnsortedScheduler, HierarchicalWheelScheduler],
    ) -> None:
        if not isinstance(
            scheduler, (HashedWheelUnsortedScheduler, HierarchicalWheelScheduler)
        ):
            raise TypeError(
                "the scanning chip supports the array-based Schemes 6 and 7; "
                f"got {type(scheduler).__name__}"
            )
        self.scheduler = scheduler
        self.report = ChipReport()
        #: The host's occupancy bitmaps, one per level; a bit is set
        #: exactly while its queue is non-empty.
        self._host: List[SlotBitmap] = (
            [scheduler._occupancy]
            if isinstance(scheduler, HashedWheelUnsortedScheduler)
            else [level.occupancy for level in scheduler._levels]
        )
        #: The chip's busy bits: its own copy of each bitmap's words.
        self._busy: List[List[int]] = [[0] * len(b.words) for b in self._host]

    # -------------------------------------------------------- scheduler API

    def start_timer(self, interval: int, **kwargs) -> Timer:
        """START_TIMER through the host, notifying the chip on empty→busy."""
        timer = self.scheduler.start_timer(interval, **kwargs)
        self._sync_busy_bits()
        return timer

    def stop_timer(self, timer_or_id) -> Timer:
        """STOP_TIMER through the host, notifying the chip on busy→empty."""
        timer = self.scheduler.stop_timer(timer_or_id)
        self._sync_busy_bits()
        return timer

    def tick(self) -> List[Timer]:
        """One chip scan step.

        The chip advances its counter; if the location(s) it passes are
        busy it interrupts the host, which then (and only then) runs
        PER_TICK_BOOKKEEPING on its queues.
        """
        interrupted = self._will_visit_busy_slot()
        expired = self.scheduler.tick()
        self.report.ticks += 1
        if interrupted:
            self.report.host_interrupts += 1
        self.report.timers_completed += len(expired)
        self._sync_busy_bits()
        return expired

    def advance(self, ticks: int) -> List[Timer]:
        """Run ``ticks`` chip steps."""
        expired: List[Timer] = []
        for _ in range(ticks):
            expired.extend(self.tick())
        return expired

    @property
    def now(self) -> int:
        """Host scheduler time."""
        return self.scheduler.now

    @property
    def pending_count(self) -> int:
        """Outstanding timers on the host."""
        return self.scheduler.pending_count

    # ------------------------------------------------------------ internals

    def _is_busy(self, level: int, slot: int) -> bool:
        """The chip's busy bit for ``slot`` of ``level``."""
        word, bit = divmod(slot, WORD_BITS)
        return bool(self._busy[level][word] >> bit & 1)

    def _will_visit_busy_slot(self) -> bool:
        """Would the next scan step hit a busy location?"""
        sched = self.scheduler
        next_time = sched.now + 1
        if isinstance(sched, HashedWheelUnsortedScheduler):
            return self._is_busy(0, (sched.cursor + 1) % sched.table_size)
        hit = False
        for level in sched._levels:
            if next_time % level.granularity == 0:
                slot = (next_time // level.granularity) % level.slot_count
                if self._is_busy(level.index, slot):
                    hit = True
        return hit

    def _sync_busy_bits(self) -> None:
        """Reconcile busy bits with queue occupancy, counting notifications.

        In hardware the host sends one message per empty↔non-empty edge.
        The host's occupancy bitmaps flip on exactly those edges, so
        diffing their words against the chip's copy after each host
        operation counts them: O(words), not O(slots) or O(timers).
        """
        report = self.report
        for bitmap, busy in zip(self._host, self._busy):
            words = bitmap.words
            if words == busy:
                continue
            for index, word in enumerate(words):
                old = busy[index]
                if word != old:
                    report.busy_notifications += _popcount(word & ~old)
                    report.idle_notifications += _popcount(old & ~word)
                    busy[index] = word
