"""Lawn — per-TTL buckets with head-only expiry (beyond the paper).

The timing wheels of Sections 5–6 buy O(1) ticks by quantising *time*:
slots cover tick ranges, so they need a ``MaxInterval`` (Scheme 4), a
rounds count (Scheme 6), or a hierarchy (Scheme 7). Lawn (Lev-Libfeld,
"Lawn: an Unbound Low Latency Timer Data Structure", arXiv:1906.10860)
instead quantises *duration*: one FIFO bucket per distinct TTL. Because
the clock is monotone, timers of equal TTL arrive in deadline order, so
``push_back`` keeps every bucket sorted for free and only bucket *heads*
can ever be due — PER_TICK_BOOKKEEPING checks one head per bucket.

With ``B`` distinct live TTLs (the discrete-TTL assumption: real
workloads — retransmit timers, keep-alives, leases — draw from a small
set of durations):

* START_TIMER / STOP_TIMER: O(1) — dict lookup + intrusive list link.
* PER_TICK_BOOKKEEPING: O(B) head checks + O(1) per expiry.
* No ``MaxInterval``, no overflow lists, no cascades/migrations: any
  interval is accepted and fires exactly on its deadline, which is why
  the differential chaos suite runs Lawn against every wheel scheme
  with identical fingerprints.

Buckets are created on first use and deleted when emptied, so ``B``
tracks the *live* TTL set and the sparse-tick fast path stays exact:
:meth:`next_expiry` is the true minimum over bucket heads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.cost.counters import OpCounter
from repro.structures.dlist import DLinkedList


class LawnScheduler(TimerScheduler):
    """Lawn: one sorted-by-construction FIFO bucket per distinct TTL."""

    scheme_name = "lawn"

    def __init__(self, counter: Optional[OpCounter] = None) -> None:
        super().__init__(counter)
        #: TTL (interval, in ticks) -> FIFO bucket sorted by deadline.
        self._buckets: Dict[int, DLinkedList] = {}

    # ------------------------------------------------------------ inspection

    @property
    def ttl_count(self) -> int:
        """Distinct live TTLs — the ``B`` in the per-tick O(B) bound."""
        return len(self._buckets)

    def bucket_sizes(self) -> Dict[int, int]:
        """Live timers per TTL bucket, for inspection and tests."""
        return {ttl: len(bucket) for ttl, bucket in self._buckets.items()}

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        sizes = [len(bucket) for bucket in self._buckets.values()]
        info["structure"] = {
            "kind": "lawn",
            "ttl_buckets": len(self._buckets),
            "chains": occupancy_summary(sizes),
        }
        return info

    def next_expiry(self) -> Optional[int]:
        """Exact: the minimum over bucket heads (each head is the bucket min)."""
        best: Optional[int] = None
        for bucket in self._buckets.values():
            head = bucket.head
            if head is not None and (best is None or head.deadline < best):
                best = head.deadline
        return best

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Per empty tick: clock increment (write) plus one head load +
        # due check per bucket. No structure mutates inside a skipped
        # gap, so the bucket count is constant across it.
        buckets = len(self._buckets)
        self.counter.charge(
            writes=count, reads=count * buckets, compares=count * buckets
        )

    # ------------------------------------------------------------- internals

    def _insert(self, timer: Timer) -> None:
        bucket = self._buckets.get(timer.interval)
        # Hash the TTL, append at the tail: monotone arrival keeps the
        # bucket deadline-sorted with no search at all.
        self.counter.charge(reads=1, writes=1, links=1)
        if bucket is None:
            bucket = self._buckets[timer.interval] = DLinkedList()
        bucket.push_back(timer)

    def _remove(self, timer: Timer) -> None:
        bucket = self._buckets[timer.interval]
        bucket.remove(timer)
        self.counter.link(1)
        if not bucket:
            del self._buckets[timer.interval]

    def _collect_expired(self) -> List[Timer]:
        self.counter.write(1)  # advance the clock
        now = self._now
        expired: List[Timer] = []
        emptied: List[int] = []
        for ttl, bucket in self._buckets.items():
            # One head probe per bucket; only heads can be due.
            self.counter.charge(reads=1, compares=1)
            head = bucket.head
            while head is not None and head.deadline <= now:
                bucket.pop_front()
                self.counter.charge(reads=1, links=1)
                expired.append(head)
                head = bucket.head
            if not bucket:
                emptied.append(ttl)
        for ttl in emptied:
            del self._buckets[ttl]
        return expired
