"""Grouped sorting queue — deferred sorting for update-heavy loads.

A port of the queue described in "A Grouped Sorting Queue Supporting
Dynamic Updates for Timer Management in High-Speed NICs"
(arXiv:2601.09081). The ordered list of Scheme 2 pays its O(n) search on
*every* START_TIMER, which is exactly the operation a retransmit-storm
workload hammers; a timing wheel avoids the search but needs a bounded
horizon (Scheme 4) or rounds/hierarchy bookkeeping (Schemes 6–7). The
grouped sorting queue splits the difference by quantising time into
fixed-width *groups* of ``group_span`` ticks and deferring all sorting to
the moment a group becomes current:

* Timers due in a **future** group are appended to that group's FIFO —
  O(1), no comparison at all. Since the overwhelming majority of
  update-heavy timers are re-armed or cancelled before their group ever
  becomes current, most timers are never sorted.
* Timers due in the **current** group live in one small sorted list (the
  ``near`` queue), so PER_TICK_BOOKKEEPING is a head peek, exactly as in
  Scheme 2.
* When the clock crosses a group boundary, the group's FIFO is promoted:
  each member is sort-inserted into the near queue. The sort cost is paid
  once per *surviving* timer, batched, over a list bounded by one group's
  population.

STOP_TIMER and UPDATE_TIMER stay O(1) for far timers (intrusive unlink,
FIFO re-append); the unbounded horizon comes for free because groups are
a dict keyed by group index, created on first use and dropped when
emptied — no MaxInterval, no cascades, exact firing ticks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import TimerConfigurationError
from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.observer import NULL_OBSERVER
from repro.core.validation import check_positive_int
from repro.cost.counters import OpCounter
from repro.structures.dlist import DLinkedList
from repro.structures.sorted_list import SortedDList


class GroupedSortingQueueScheduler(TimerScheduler):
    """Scheme #17: per-group FIFOs, one sorted near queue, sort-on-promotion.

    Membership is tracked in the record's scheme-private ``_level`` field:
    ``-1`` while the timer sits in the sorted near queue, the group index
    (``deadline // group_span``) while it waits in a far FIFO.
    """

    scheme_name = "gsq"

    def __init__(
        self,
        group_span: int = 64,
        counter: Optional[OpCounter] = None,
    ) -> None:
        super().__init__(counter)
        check_positive_int("group_span", group_span)
        if group_span < 2:
            raise TimerConfigurationError("group_span must be at least 2")
        self.group_span = group_span
        #: sorted list of timers due in the current group (deadline order).
        self._near = SortedDList(
            key=lambda node: node.deadline,  # type: ignore[attr-defined]
            counter=self.counter,
        )
        #: group index -> FIFO of timers due in that (future) group.
        self._groups: Dict[int, DLinkedList] = {}
        #: timers promoted (sort-inserted) at group boundaries, cumulative.
        self.promotions = 0

    # ------------------------------------------------------------ inspection

    @property
    def group_count(self) -> int:
        """Distinct future groups currently holding timers."""
        return len(self._groups)

    def near_size(self) -> int:
        """Timers in the sorted current-group queue."""
        return len(self._near)

    def group_sizes(self) -> Dict[int, int]:
        """Live timers per future group, for inspection and tests."""
        return {g: len(fifo) for g, fifo in self._groups.items()}

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        sizes = [len(fifo) for fifo in self._groups.values()]
        info["structure"] = {
            "kind": "grouped-sorting-queue",
            "group_span": self.group_span,
            "near_size": len(self._near),
            "future_groups": len(self._groups),
            "group_occupancy": occupancy_summary(sizes),
            "promotions": self.promotions,
        }
        return info

    def next_expiry(self) -> Optional[int]:
        """Near head is exact; a future group's boundary is a lower bound.

        Every member of group ``g`` has ``g * span <= deadline``, and for
        a future group the boundary is strictly past ``now``, so the
        minimum over the near head and the earliest group boundary is a
        valid (often exact) lower bound on the next firing.
        """
        best = self._near.peek_key()
        if self._groups:
            boundary = min(self._groups) * self.group_span
            if best is None or boundary < best:
                best = boundary
        return best

    def _next_event(self) -> Optional[int]:
        # A group boundary with a waiting FIFO is real work (the batched
        # sort) even when nothing expires at the boundary tick itself.
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Per empty tick: clock increment (write), near-head load (read),
        # due compare when the near queue is non-empty. Group boundaries
        # crossed inside the gap are guaranteed promotion-free, but the
        # group-table probe (read + compare) is still paid per crossing.
        now = self._now
        span = self.group_span
        crossings = (now + count) // span - now // span
        has_head = self._near.peek_key() is not None
        self.counter.charge(
            writes=count,
            reads=count + crossings,
            compares=(count if has_head else 0) + crossings,
        )

    # ------------------------------------------------------------- internals

    def _insert(self, timer: Timer) -> None:
        group = timer.deadline // self.group_span
        self.counter.read(1)  # group index computation
        if group == self._now // self.group_span:
            # Due within the current group: sort it in now (near queue).
            timer._level = -1
            self._near.insert(timer)
        else:
            # Future group: O(1) FIFO append, no comparisons — the path
            # update-heavy timers take, and usually the only one they take.
            timer._level = group
            fifo = self._groups.get(group)
            if fifo is None:
                fifo = self._groups[group] = DLinkedList()
            self.counter.charge(writes=1, links=1)
            fifo.push_back(timer)

    def _remove(self, timer: Timer) -> None:
        if timer._level < 0:
            self._near.remove(timer)  # charges the unlink
        else:
            fifo = self._groups[timer._level]
            fifo.remove(timer)
            self.counter.link(1)
            if not fifo:
                del self._groups[timer._level]
            timer._level = -1

    def _collect_expired(self) -> List[Timer]:
        now = self._now
        self.counter.write(1)  # advance the clock
        span = self.group_span
        if now % span == 0:
            # Group boundary: probe the table and promote the new current
            # group, paying the deferred sort for its survivors.
            self.counter.charge(reads=1, compares=1)
            fifo = self._groups.pop(now // span, None)
            if fifo is not None:
                group = now // span
                observer = self.observer
                notify = observer is not NULL_OBSERVER
                for node in fifo.drain():
                    timer: Timer = node  # FIFOs hold only Timers
                    self.counter.charge(reads=1, links=1)  # FIFO pop
                    timer._level = -1
                    self._near.insert(timer)
                    self.promotions += 1
                    if notify:
                        # A promotion is a migration between structures
                        # (far FIFO -> sorted near queue), reported like
                        # the hierarchies' level hops so wake/cascade
                        # accounting sees the boundary work.
                        observer.on_migrate(self, timer, group, -1)
        expired: List[Timer] = []
        # Steady state: one head peek, pop while due (deadlines are exact).
        self.counter.read(1)
        head = self._near.head
        while head is not None:
            self.counter.compare(1)
            timer = head
            if timer.deadline > now:
                break
            self._near.pop_front()
            expired.append(timer)
            head = self._near.head
        return expired

    def is_sorted(self) -> bool:
        """Verification helper: near-queue order invariant."""
        return self._near.is_sorted()
