"""Intrusive circular doubly linked list with O(1) unlink.

This is the workhorse of every timing-wheel scheme: each wheel slot holds one
``DLinkedList`` and each timer record is a ``DNode``, so STOP_TIMER unlinks
the record in constant time given only a reference to it (paper, Section
3.2, "This can be used by any timer scheme").

The list is circular with a sentinel, the classic kernel ``list_head``
layout: empty means ``sentinel.next is sentinel``; no ``None`` checks are
needed on the hot path.
"""

from __future__ import annotations

from typing import Iterator, Optional


class DNode:
    """A node that can live in at most one :class:`DLinkedList` at a time.

    Subclass this (timer records do) or use it directly with a ``payload``.
    The link fields are module-internal; client code interacts through the
    owning list.
    """

    __slots__ = ("_prev", "_next", "_owner")

    def __init__(self) -> None:
        self._prev: Optional[DNode] = None
        self._next: Optional[DNode] = None
        self._owner: Optional[DLinkedList] = None

    @property
    def linked(self) -> bool:
        """True while this node is a member of some list."""
        return self._owner is not None

    @property
    def owner(self) -> Optional["DLinkedList"]:
        """The list currently containing this node, or ``None``."""
        return self._owner


class DLinkedList:
    """Circular, sentinel-based doubly linked list of :class:`DNode` objects.

    All mutating operations are O(1). Iteration is O(length) and tolerates
    removal of the node most recently yielded (the usual pattern when
    expiring every timer in a wheel slot).
    """

    __slots__ = ("_sentinel", "_length")

    def __init__(self) -> None:
        sentinel = DNode()
        sentinel._prev = sentinel
        sentinel._next = sentinel
        self._sentinel = sentinel
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[DNode]:
        node = self._sentinel._next
        while node is not self._sentinel:
            nxt = node._next  # grab before yielding so the caller may unlink
            yield node
            node = nxt

    def __reversed__(self) -> Iterator[DNode]:
        node = self._sentinel._prev
        while node is not self._sentinel:
            prv = node._prev
            yield node
            node = prv

    def __contains__(self, node: DNode) -> bool:
        return node._owner is self

    @property
    def head(self) -> Optional[DNode]:
        """First node, or ``None`` when empty."""
        nxt = self._sentinel._next
        return None if nxt is self._sentinel else nxt

    @property
    def tail(self) -> Optional[DNode]:
        """Last node, or ``None`` when empty."""
        prv = self._sentinel._prev
        return None if prv is self._sentinel else prv

    def _link(self, node: DNode, prev: DNode, nxt: DNode) -> None:
        if node._owner is not None:
            raise ValueError("node is already a member of a list")
        node._prev = prev
        node._next = nxt
        prev._next = node
        nxt._prev = node
        node._owner = self
        self._length += 1

    def push_front(self, node: DNode) -> int:
        """Insert ``node`` at the head (the paper's START_TIMER fast path).

        Returns the new length, so a caller that tracks occupancy can tell
        an empty chain becoming non-empty (``== 1``) without another call.
        """
        if node._owner is not None:
            raise ValueError("node is already a member of a list")
        sentinel = self._sentinel
        head = sentinel._next
        node._prev = sentinel
        node._next = head
        sentinel._next = node
        head._prev = node
        node._owner = self
        self._length += 1
        return self._length

    def push_back(self, node: DNode) -> int:
        """Insert ``node`` at the tail; returns the new length."""
        if node._owner is not None:
            raise ValueError("node is already a member of a list")
        sentinel = self._sentinel
        tail = sentinel._prev
        node._prev = tail
        node._next = sentinel
        tail._next = node
        sentinel._prev = node
        node._owner = self
        self._length += 1
        return self._length

    def insert_before(self, node: DNode, anchor: DNode) -> None:
        """Insert ``node`` immediately before ``anchor`` (a current member)."""
        if anchor._owner is not self:
            raise ValueError("anchor is not a member of this list")
        self._link(node, anchor._prev, anchor)

    def insert_after(self, node: DNode, anchor: DNode) -> None:
        """Insert ``node`` immediately after ``anchor`` (a current member)."""
        if anchor._owner is not self:
            raise ValueError("anchor is not a member of this list")
        self._link(node, anchor, anchor._next)

    def remove(self, node: DNode) -> int:
        """Unlink ``node`` in O(1); returns the remaining length.

        The node must be a member of this list. A ``0`` return tells an
        occupancy-tracking caller the chain just became empty.
        """
        if node._owner is not self:
            raise ValueError("node is not a member of this list")
        node._prev._next = node._next
        node._next._prev = node._prev
        node._prev = None
        node._next = None
        node._owner = None
        self._length -= 1
        return self._length

    def pop_front(self) -> DNode:
        """Remove and return the head node. Raises ``IndexError`` when empty."""
        node = self.head
        if node is None:
            raise IndexError("pop from an empty DLinkedList")
        self.remove(node)
        return node

    def pop_back(self) -> DNode:
        """Remove and return the tail node. Raises ``IndexError`` when empty."""
        node = self.tail
        if node is None:
            raise IndexError("pop from an empty DLinkedList")
        self.remove(node)
        return node

    def drain(self) -> Iterator[DNode]:
        """Yield every node, unlinking each before it is yielded.

        This is the expiry-processing loop: after the generator is exhausted
        the list is empty and every yielded node is free to be reinserted
        elsewhere (hierarchical migration relies on this).
        """
        while self._length:
            yield self.pop_front()

    def splice_all_to(self, other: "DLinkedList") -> int:
        """Move every node to the back of ``other``; returns the count moved."""
        moved = 0
        while self._length:
            other.push_back(self.pop_front())
            moved += 1
        return moved
