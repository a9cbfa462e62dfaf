"""Scheme 3 — tree-based priority-queue algorithms (Section 4.1.1).

"For large n, tree-based data structures are better. These include
unbalanced binary trees, heaps, post-order and end-order trees, and
leftist-trees. They attempt to reduce the latency in Scheme 2 for
START_TIMER from O(n) to O(log(n))."

One generic scheduler parameterised by the priority-queue substrate, plus
four concrete classes matching the structures the paper names:

* :class:`HeapScheduler` — array binary heap;
* :class:`UnbalancedBSTScheduler` — plain BST, which "easily degenerate[s]
  into a linear list ... if a set of equal timer intervals are inserted"
  (the FIG6 bench demonstrates exactly this);
* :class:`RedBlackTreeScheduler` — the balanced-tree comparator, whose
  STOP_TIMER is O(log n) "because of the need to rebalance the tree after a
  deletion" (Figure 6 note);
* :class:`LeftistTreeScheduler` — leftist heap.

All store absolute deadlines; PER_TICK_BOOKKEEPING pops while the minimum
deadline is due, O(1) when nothing expires.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from repro.core.interface import Timer, TimerScheduler
from repro.cost.counters import OpCounter
from repro.structures.bst import BSTNode, UnbalancedBST
from repro.structures.heap import BinaryHeap, HeapNode
from repro.structures.leftist import LeftistHeap, LeftistNode
from repro.structures.rbtree import RBNode, RedBlackTree


class _PQNode(Protocol):
    key: int
    payload: Timer


class _PriorityQueue(Protocol):
    def __len__(self) -> int: ...

    def min_key(self) -> Optional[int]: ...


class PriorityQueueScheduler(TimerScheduler):
    """Scheme 3 base: any min-ordered tree substrate keyed by deadline."""

    scheme_name = "scheme3"

    def __init__(self, counter: Optional[OpCounter] = None) -> None:
        super().__init__(counter)
        self._pq = self._make_queue()
        #: descent depth / sift comparisons of the last insertion (FIG6).
        self.last_insert_compares = 0

    # Substrate hooks -------------------------------------------------------

    def _make_queue(self):
        raise NotImplementedError

    def _pq_push(self, timer: Timer):
        raise NotImplementedError

    def _pq_remove(self, node) -> None:
        raise NotImplementedError

    def _pq_pop_min(self) -> Timer:
        raise NotImplementedError

    def _pq_min_key(self) -> Optional[int]:
        raise NotImplementedError

    # Scheduler hooks -------------------------------------------------------

    def _insert(self, timer: Timer) -> None:
        before = self.counter.snapshot()
        timer._pq_node = self._pq_push(timer)
        self.last_insert_compares = self.counter.since(before).compares

    def _remove(self, timer: Timer) -> None:
        self._pq_remove(timer._pq_node)
        timer._pq_node = None

    def next_expiry(self) -> Optional[int]:
        """Exact: the tree minimum, probed without perturbing the counter.

        Some substrates (BST, red-black tree) charge reads inside
        ``min_key``; planning queries snapshot and restore the counter so
        the probe is free, as the cost model only prices real tick work.
        """
        before = self.counter.snapshot()
        min_key = self._pq_min_key()
        self.counter.reset_to(before)
        return min_key

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # An empty tick is: write (clock), min-key lookup (substrate-
        # dependent internal charges), read, and a compare when non-empty.
        # Measure one real lookup, then multiply it for the remaining
        # count-1 ticks — the tree is untouched during a skip, so every
        # lookup in the gap charges identically.
        counter = self.counter
        before = counter.snapshot()
        min_key = self._pq_min_key()
        lookup = counter.since(before)
        if count > 1:
            counter.charge(
                reads=lookup.reads * (count - 1),
                writes=lookup.writes * (count - 1),
                compares=lookup.compares * (count - 1),
                links=lookup.links * (count - 1),
            )
        counter.charge(
            writes=count,
            reads=count,
            compares=count if min_key is not None else 0,
        )

    def _collect_expired(self) -> List[Timer]:
        expired: List[Timer] = []
        self.counter.write(1)  # increment time of day
        while True:
            min_key = self._pq_min_key()
            self.counter.read(1)
            if min_key is None:
                break
            self.counter.compare(1)
            if min_key > self._now:
                break
            timer = self._pq_pop_min()
            timer._pq_node = None
            expired.append(timer)
        return expired

    def earliest_deadline(self) -> Optional[int]:
        """Minimum queued deadline, or ``None`` when idle."""
        return self._pq_min_key()

    def structure_height(self) -> int:
        """Height of the underlying tree where defined (degeneration probe)."""
        height = getattr(self._pq, "height", None)
        if height is None:
            raise NotImplementedError(f"{type(self._pq).__name__} has no height")
        return height()

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        try:
            height: Optional[int] = self.structure_height()
        except NotImplementedError:
            height = None
        info["structure"] = {
            "kind": "tree",
            "substrate": type(self._pq).__name__,
            "size": len(self._pq),
            "height": height,
            "earliest_deadline": self.earliest_deadline(),
            "last_insert_compares": self.last_insert_compares,
        }
        return info


class HeapScheduler(PriorityQueueScheduler):
    """Scheme 3 over an array binary heap."""

    scheme_name = "scheme3-heap"

    def _make_queue(self) -> BinaryHeap:
        return BinaryHeap(counter=self.counter)

    def _pq_push(self, timer: Timer) -> HeapNode:
        node = HeapNode(timer.deadline, timer)
        self._pq.push(node)
        return node

    def _pq_remove(self, node: HeapNode) -> None:
        self._pq.remove(node)

    def _pq_pop_min(self) -> Timer:
        return self._pq.pop().payload

    def _pq_min_key(self) -> Optional[int]:
        return self._pq.min_key()


class UnbalancedBSTScheduler(PriorityQueueScheduler):
    """Scheme 3 over a plain BST (degenerates on equal intervals)."""

    scheme_name = "scheme3-bst"

    def _make_queue(self) -> UnbalancedBST:
        return UnbalancedBST(counter=self.counter)

    def _pq_push(self, timer: Timer) -> BSTNode:
        node = BSTNode(timer.deadline, timer)
        self._pq.insert(node)
        return node

    def _pq_remove(self, node: BSTNode) -> None:
        self._pq.remove(node)

    def _pq_pop_min(self) -> Timer:
        return self._pq.pop_min().payload

    def _pq_min_key(self) -> Optional[int]:
        return self._pq.min_key()


class RedBlackTreeScheduler(PriorityQueueScheduler):
    """Scheme 3 over a red-black tree (the balanced comparator)."""

    scheme_name = "scheme3-rbtree"

    def _make_queue(self) -> RedBlackTree:
        return RedBlackTree(counter=self.counter)

    def _pq_push(self, timer: Timer) -> RBNode:
        node = RBNode(timer.deadline, timer)
        self._pq.insert(node)
        return node

    def _pq_remove(self, node: RBNode) -> None:
        self._pq.remove(node)

    def _pq_pop_min(self) -> Timer:
        return self._pq.pop_min().payload

    def _pq_min_key(self) -> Optional[int]:
        return self._pq.min_key()


class LeftistTreeScheduler(PriorityQueueScheduler):
    """Scheme 3 over a leftist tree."""

    scheme_name = "scheme3-leftist"

    def _make_queue(self) -> LeftistHeap:
        return LeftistHeap(counter=self.counter)

    def _pq_push(self, timer: Timer) -> LeftistNode:
        node = LeftistNode(timer.deadline, timer)
        self._pq.push(node)
        return node

    def _pq_remove(self, node: LeftistNode) -> None:
        self._pq.remove(node)

    def _pq_pop_min(self) -> Timer:
        return self._pq.pop().payload

    def _pq_min_key(self) -> Optional[int]:
        return self._pq.min_key()
