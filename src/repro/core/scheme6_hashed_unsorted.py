"""Scheme 6 — hash table with unsorted lists in each bucket (Section 6.1.2).

"If a worst case START_TIMER latency of O(n) is unacceptable, we can
maintain each time list as an unordered list ... Thus START_TIMER has a
worst case and average latency of O(1). But PER_TICK_BOOKKEEPING now takes
longer: every timer tick ... we must decrement the high order bits for
every element in the [bucket], exactly as in Scheme 1."

The paper's strong average-cost statement — every ``TableSize`` ticks each
living timer is decremented once, so per-tick work averages
``n / TableSize`` regardless of the hash distribution (the hash controls
only burstiness) — is what the SEC7 and SEC62 benches measure. This is the
scheme the authors implemented in MACRO-11 on a VAX (Section 7); the
instrumented operation charges below are calibrated so the default
:class:`~repro.cost.vax.VaxCostModel` reproduces the published constants:
insert 13, delete 7, empty tick 4, decrement-and-advance 6, expire 9 cheap
instructions (see ``tests/cost/test_vax.py``).

Timers carry their high-order rounds count in ``timer._rounds``
(``interval // table_size``); a bucket visit expires entries whose count is
zero and decrements the rest.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import TimerConfigurationError
from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.soa_base import store_class
from repro.core.validation import check_positive_int
from repro.cost.counters import NO_CHARGE, OpCounter, charge_folded
from repro.structures.bitmap import SlotBitmap


#: Operation mixes ``(reads, writes, compares, links)`` calibrated to the
#: Section 7 instruction counts (one cheap instruction per abstract op under
#: the default VaxCostModel). The SoA store's row hooks charge these same
#: constants.
INSERT_CHARGE = (4, 4, 1, 4)  # = 13
DELETE_CHARGE = (2, 1, 0, 4)  # = 7
EMPTY_TICK_CHARGE = (2, 1, 1, 0)  # = 4
DECREMENT_CHARGE = (3, 1, 1, 1)  # = 6
EXPIRE_CHARGE = (3, 3, 1, 2)  # = 9
# UPDATE_TIMER fuses the delete and re-insert into one bucket hop: unlink
# (4 links' worth of splicing shared with relink), rehash, and store the
# fresh rounds count — half the DELETE+INSERT bill (7 + 13).
UPDATE_CHARGE = (3, 2, 1, 4)  # = 10


class HashedWheelUnsortedScheduler(TimerScheduler):
    """Scheme 6: hashed timing wheel, per-bucket unsorted lists."""

    scheme_name = "scheme6"

    def __new__(cls, *args, store: str = "object", **kwargs):
        """``store="soa"`` builds the struct-of-arrays subclass (same
        scheme, same charges, a fraction of the memory; see
        ``docs/performance.md``).
        """
        return super().__new__(
            store_class(cls, HashedWheelUnsortedScheduler, store)
        )

    def __init__(
        self,
        table_size: int = 256,
        counter: Optional[OpCounter] = None,
        store: str = "object",
        soa_store=None,
    ) -> None:
        super().__init__(counter)
        if soa_store is not None:
            raise TimerConfigurationError(
                "soa_store requires store='soa'"
            )
        check_positive_int("table_size", table_size)
        self.table_size = table_size
        self._buckets = self._new_chains(table_size)
        self._cursor = 0
        # One bit per bucket, set while the bucket is non-empty; fast-path
        # bookkeeping only, never charged.
        self._occupancy = SlotBitmap(table_size)
        #: bucket entries visited (decremented or expired) across all ticks;
        #: the Section 6.2 quantity — a timer alive T ticks is visited
        #: ~T/TableSize times.
        self.entry_visits = 0

    @property
    def cursor(self) -> int:
        """Current time pointer (index into the hash array)."""
        return self._cursor

    def bucket_sizes(self) -> List[int]:
        """Occupancy of each bucket, for inspection and tests."""
        return [len(bucket) for bucket in self._buckets]

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "hashed-wheel-unsorted",
            "table_size": self.table_size,
            "cursor": self._cursor,
            "chains": occupancy_summary(self.bucket_sizes()),
            "entry_visits": self.entry_visits,
        }
        return info

    def next_expiry(self) -> Optional[int]:
        """Next occupied-bucket visit: a lower bound on the next firing.

        A visited entry may only have its rounds count decremented (still
        a structure touch the cost model charges); ``advance_to`` treats
        every occupied visit as a real event, so the bound is safe.
        """
        index = self._occupancy.next_set_circular(
            (self._cursor + 1) % self.table_size
        )
        if index is None:
            return None
        distance = (index - self._cursor - 1) % self.table_size + 1
        return self._now + distance

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Every tick pays the calibrated 4-instruction empty-tick charge
        # (Section 7) before the bucket walk; skipped ticks visit only
        # empty buckets, so that charge is the whole cost.
        self._cursor = (self._cursor + count) % self.table_size
        charge_folded(self.counter, NO_CHARGE, count, EMPTY_TICK_CHARGE)

    # The hooks below inline the bucket arithmetic: an interval hashes to
    # slot ``(cursor + interval) mod size``, and the entry stores the
    # paper's high-order bits (Figure 9) as its rounds count. For
    # ``interval = q * size + r`` that is ``q`` when ``r > 0``; when
    # ``r == 0`` the slot is first visited a whole revolution after
    # insertion, so the count must be ``q - 1`` — hence
    # ``(interval - 1) // size`` in both cases. Occupancy bits flip only
    # when a chain goes from empty to non-empty or back.

    def _insert(self, timer: Timer) -> None:
        interval = timer.interval
        size = self.table_size
        index = (self._cursor + interval) % size
        timer._slot_index = index
        timer._rounds = (interval - 1) // size
        self.counter.charge(*INSERT_CHARGE)
        if self._buckets[index].push_front(timer) == 1:
            self._occupancy.set(index)

    def _remove(self, timer: Timer) -> None:
        index = timer._slot_index
        if not self._buckets[index].remove(timer):
            self._occupancy.clear(index)
        timer._slot_index = -1
        self.counter.charge(*DELETE_CHARGE)

    def _update(self, timer: Timer, new_interval: int) -> None:
        buckets = self._buckets
        index = timer._slot_index
        if not buckets[index].remove(timer):
            self._occupancy.clear(index)
        now = self._now
        timer.interval = new_interval
        timer.started_at = now
        timer.deadline = timer._fire_at = now + new_interval
        timer._remaining = new_interval
        size = self.table_size
        index = (self._cursor + new_interval) % size
        timer._slot_index = index
        timer._rounds = (new_interval - 1) // size
        self.counter.charge(*UPDATE_CHARGE)
        if buckets[index].push_front(timer) == 1:
            self._occupancy.set(index)

    def _collect_expired(self) -> List[Timer]:
        # Increment the pointer (mod TableSize); walk the whole bucket,
        # expiring zero-count entries and decrementing the rest — "exactly
        # as in Scheme 1" but confined to one bucket. Every visited entry
        # pays the 6-instruction decrement-and-advance and an expiring one
        # the 9-instruction delete+expiry on top (Section 7's "all n timers
        # will be decremented and possibly expire": 15 per expiring visit).
        cursor = self._cursor = (self._cursor + 1) % self.table_size
        bucket = self._buckets[cursor]
        expired: List[Timer] = []
        visits = 0
        for timer in bucket:  # bucket lists hold only Timers
            visits += 1
            if timer._rounds == 0:
                if not bucket.remove(timer):
                    self._occupancy.clear(cursor)
                timer._slot_index = -1
                expired.append(timer)
            else:
                timer._rounds -= 1
        self.entry_visits += visits
        charge_folded(
            self.counter,
            EMPTY_TICK_CHARGE,
            visits,
            DECREMENT_CHARGE,
            len(expired),
            EXPIRE_CHARGE,
        )
        return expired
