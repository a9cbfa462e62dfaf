"""Struct-of-arrays timer storage for million-timer populations.

Every armed timer in the object store costs one heap-allocated
:class:`~repro.core.interface.Timer` (a ``DNode`` subclass, ~200 bytes of
slotted object plus allocator churn) and the pointer-chased doubly linked
slot lists the wheel schemes thread through it. At the paper's asymptotic
regime — 10\\ :sup:`6`–10\\ :sup:`7` concurrent timers — that per-object
overhead dominates everything the algorithms do.

:class:`SoATimerStore` replaces the records with **parallel columns**:
six ``array('q')`` machine-word columns (deadline, start tick, intrusive
prev/next links, one scheme-private aux word, and a packed
generation+state word) plus three object columns (request id, callback,
user data). A timer is an **int row handle**; wheel slot lists become
``array('q')`` head tables whose chains run through the ``next``/``prev``
columns — the same intrusive-dlist shape as the object store, minus the
objects. ~72 bytes per armed timer instead of ~300.

Handles are generation-tagged: the packed public handle is
``(generation << 36) | row``, and every decode checks the row's current
generation, so a handle held across a free-and-reuse raises
:class:`~repro.core.errors.StaleTimerHandleError` instead of silently
addressing the recycled timer — the same contract
:class:`~repro.core.interface.TimerHandle` gives an object record that
``restart_timer`` re-arms, enforced natively here (the free list *is*
the allocator).

Live rows are exposed to clients as :class:`SoATimerView` flyweights
(materialised on demand, never retained per armed timer); finalised
timers are materialised as ordinary :class:`~repro.core.interface.Timer`
records so everything downstream of EXPIRY_PROCESSING — supervision,
spans, chaos fingerprints — sees exactly what the object store produces.
"""

from __future__ import annotations

import sys
from typing import Callable, Hashable, Iterator, List, Optional

from array import array

from repro.core.errors import StaleTimerHandleError

#: Sentinel row index for "no row" in link columns and head tables.
NIL = -1

#: Bits of a packed handle reserved for the row index (64 G rows).
ROW_BITS = 36
ROW_MASK = (1 << ROW_BITS) - 1

#: meta column layout: ``(generation << 1) | live_bit``.
_LIVE = 1


def pack_handle(row: int, generation: int) -> int:
    """The public int handle for ``row`` at ``generation``."""
    return (generation << ROW_BITS) | row


def unpack_handle(handle: int) -> "tuple[int, int]":
    """``(row, generation)`` from a packed handle (no validation)."""
    return handle & ROW_MASK, handle >> ROW_BITS


class SoATimerStore:
    """Parallel-column timer records addressed by generation-tagged rows.

    The store owns allocation (a row free list is *the* allocator), the
    per-row fields, and the intrusive linked-list plumbing that wheel
    schemes run through the ``next``/``prev`` columns. It knows nothing
    about wheels: schemes own their head tables and cursors and call
    :meth:`link_front` / :meth:`unlink` / :meth:`pop_front` with them.
    """

    __slots__ = (
        "deadline_col",
        "started_col",
        "next_col",
        "prev_col",
        "aux_col",
        "meta_col",
        "request_ids",
        "callbacks",
        "user_datas",
        "_free_rows",
        "_live",
    )

    def __init__(self) -> None:
        self.deadline_col = array("q")
        self.started_col = array("q")
        self.next_col = array("q")
        self.prev_col = array("q")
        #: one scheme-private word per row (scheme 6 rounds, scheme 7 level).
        self.aux_col = array("q")
        #: ``(generation << 1) | live`` per row.
        self.meta_col = array("q")
        self.request_ids: List[object] = []
        self.callbacks: List[object] = []
        self.user_datas: List[object] = []
        self._free_rows: List[int] = []
        self._live = 0

    # ------------------------------------------------------------ allocation

    def alloc(
        self,
        started_at: int,
        interval: int,
        request_id: Optional[Hashable],
        callback: Optional[Callable],
        user_data: object,
    ) -> int:
        """Claim a row for a new pending timer; returns the row index.

        ``request_id=None`` marks the row auto-addressed: its public id
        *is* the packed handle, so no per-timer id object exists at all.
        """
        free = self._free_rows
        if free:
            row = free.pop()
            self.deadline_col[row] = started_at + interval
            self.started_col[row] = started_at
            self.next_col[row] = NIL
            self.prev_col[row] = NIL
            self.aux_col[row] = 0
            self.meta_col[row] |= _LIVE
            self.request_ids[row] = request_id
            self.callbacks[row] = callback
            self.user_datas[row] = user_data
        else:
            row = len(self.meta_col)
            self.deadline_col.append(started_at + interval)
            self.started_col.append(started_at)
            self.next_col.append(NIL)
            self.prev_col.append(NIL)
            self.aux_col.append(0)
            self.meta_col.append(_LIVE)
            self.request_ids.append(request_id)
            self.callbacks.append(callback)
            self.user_datas.append(user_data)
        self._live += 1
        return row

    def free(self, row: int) -> None:
        """Release a row: bump its generation, drop refs, pool it.

        The generation bump is what turns every outstanding handle and
        view of this row stale — the use-after-free guard.
        """
        self.meta_col[row] = ((self.meta_col[row] >> 1) + 1) << 1
        self.request_ids[row] = None
        self.callbacks[row] = None
        self.user_datas[row] = None
        self._free_rows.append(row)
        self._live -= 1

    # ------------------------------------------------------------- row state

    @property
    def live_count(self) -> int:
        """Rows currently holding a pending timer."""
        return self._live

    @property
    def free_count(self) -> int:
        """Rows pooled in the free list (the handle allocator's depth)."""
        return len(self._free_rows)

    @property
    def capacity(self) -> int:
        """Total rows ever allocated (live + free)."""
        return len(self.meta_col)

    def is_live(self, row: int) -> bool:
        """True while ``row`` holds a pending timer."""
        return 0 <= row < len(self.meta_col) and bool(self.meta_col[row] & _LIVE)

    def generation(self, row: int) -> int:
        """Current generation of ``row``."""
        return self.meta_col[row] >> 1

    def handle_of(self, row: int) -> int:
        """The packed generation-tagged handle for (live) ``row``."""
        return (self.meta_col[row] >> 1 << ROW_BITS) | row

    def interval(self, row: int) -> int:
        """Requested duration of the timer in ``row``."""
        return self.deadline_col[row] - self.started_col[row]

    def request_id_of(self, row: int) -> Hashable:
        """Public id of ``row``: the stored one, or the handle when auto."""
        stored = self.request_ids[row]
        return self.handle_of(row) if stored is None else stored

    def resolve_handle(self, handle: int) -> Optional[int]:
        """Row for ``handle`` if it still names a live incarnation.

        Returns ``None`` when the handle never named a row here (out of
        range); raises :class:`StaleTimerHandleError` when it named a row
        that has since been freed or recycled.
        """
        row = handle & ROW_MASK
        generation = handle >> ROW_BITS
        if not 0 <= row < len(self.meta_col):
            return None
        meta = self.meta_col[row]
        if meta >> 1 != generation or not meta & _LIVE:
            raise StaleTimerHandleError(
                f"handle for row {row} (generation {generation}) is stale: "
                f"the row now holds generation {meta >> 1}"
                + ("" if meta & _LIVE else " and is free")
            )
        return row

    def live_rows(self) -> Iterator[int]:
        """Every live row, in row order (inspection; O(capacity))."""
        meta = self.meta_col
        for row in range(len(meta)):
            if meta[row] & _LIVE:
                yield row

    # --------------------------------------------------- intrusive slot lists

    def link_front(self, heads: array, index: int, row: int) -> None:
        """Push ``row`` at the head of the chain rooted at ``heads[index]``."""
        head = heads[index]
        self.next_col[row] = head
        self.prev_col[row] = NIL
        if head != NIL:
            self.prev_col[head] = row
        heads[index] = row

    def unlink(self, heads: array, index: int, row: int) -> None:
        """Remove ``row`` from the chain rooted at ``heads[index]`` in O(1)."""
        nxt = self.next_col[row]
        prv = self.prev_col[row]
        if prv != NIL:
            self.next_col[prv] = nxt
        else:
            heads[index] = nxt
        if nxt != NIL:
            self.prev_col[nxt] = prv
        self.next_col[row] = NIL
        self.prev_col[row] = NIL

    def chain(self, head: int) -> Iterator[int]:
        """Yield the rows of a chain front-to-back.

        The successor is captured before each yield, so the caller may
        unlink (or free) the yielded row — the same tolerance the object
        store's ``DLinkedList.__iter__`` gives expiry loops.
        """
        next_col = self.next_col
        row = head
        while row != NIL:
            nxt = next_col[row]
            yield row
            row = nxt

    def chain_length(self, head: int) -> int:
        """Length of a chain (inspection only)."""
        count = 0
        for _ in self.chain(head):
            count += 1
        return count

    # ------------------------------------------------------------- accounting

    def bytes_estimate(self) -> int:
        """Approximate heap bytes held by the store's own columns.

        ``sys.getsizeof`` over every column plus the free list — the
        quantity the MILLIONS bench divides by the live count to report
        ``bytes_per_timer``. Per-timer *payload* objects (client ids,
        callbacks) are the client's to account, exactly as in the object
        store.
        """
        total = (
            sys.getsizeof(self.deadline_col)
            + sys.getsizeof(self.started_col)
            + sys.getsizeof(self.next_col)
            + sys.getsizeof(self.prev_col)
            + sys.getsizeof(self.aux_col)
            + sys.getsizeof(self.meta_col)
            + sys.getsizeof(self.request_ids)
            + sys.getsizeof(self.callbacks)
            + sys.getsizeof(self.user_datas)
            + sys.getsizeof(self._free_rows)
        )
        return total

    def bytes_per_timer(self) -> Optional[float]:
        """Store bytes per live timer, or ``None`` when empty."""
        if self._live == 0:
            return None
        return self.bytes_estimate() / self._live


class SoAStoreFullError(MemoryError):
    """A fixed-capacity store has no free rows left for :meth:`alloc`."""


#: Header magic for shared-memory store blocks ("SOATW" packed into an i64).
_SHM_MAGIC = 0x534F415457
#: Header words before the columns: magic, capacity.
_SHM_HEADER_WORDS = 2
#: Machine-word columns a shared block carries (deadline/started/next/
#: prev/aux/meta, in that order).
_SHM_COLUMNS = 6


def shared_store_bytes(capacity: int) -> int:
    """Size in bytes of the shared-memory block backing ``capacity`` rows."""
    return (_SHM_HEADER_WORDS + _SHM_COLUMNS * capacity) * 8


#: Every open SharedSoATimerStore in this process. A forked child inherits
#: the parent's mappings (with live memoryview exports that would make
#: ``SharedMemory.__del__`` raise at child exit); the at-fork hook below
#: releases them in the child, which then attaches its own store by name.
_OPEN_SHARED_STORES: "weakref.WeakSet" = None  # type: ignore[assignment]


def _release_inherited_mappings() -> None:
    for store in list(_OPEN_SHARED_STORES or ()):
        try:
            store.close()
        except Exception:
            pass


def _track_shared_store(store: "SharedSoATimerStore") -> None:
    global _OPEN_SHARED_STORES
    if _OPEN_SHARED_STORES is None:
        import os
        import weakref

        _OPEN_SHARED_STORES = weakref.WeakSet()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_release_inherited_mappings)
    _OPEN_SHARED_STORES.add(store)


class SharedSoATimerStore(SoATimerStore):
    """An :class:`SoATimerStore` whose machine-word columns live in one
    :class:`multiprocessing.shared_memory.SharedMemory` block.

    This is the shard-backend data plane: a worker process owns the rows
    (alloc/free/link) while the parent that created the block can attach
    read-only to count live rows, read deadlines, or salvage state after
    the worker dies — without a single byte crossing a pipe. The three
    *object* columns (request id, callback, user data) cannot live in
    shared memory and stay process-local Python lists; everything the
    wheel algorithms touch per tick — deadlines, links, aux, meta — is in
    the block.

    Layout (little-endian ``q`` words)::

        [magic][capacity][deadline x cap][started x cap][next x cap]
                         [prev x cap]   [aux x cap]    [meta x cap]

    Capacity is fixed at creation: :meth:`alloc` on a full store raises
    :class:`SoAStoreFullError` instead of growing (a shared mapping
    cannot be resized in place). Row-allocation order is identical to the
    growable store's — the free list is pre-seeded so a fresh store hands
    out rows 0, 1, 2, … — which keeps packed auto-id handles, and
    therefore expiry fingerprints, bit-identical across store kinds.

    Construct with ``create=True`` to allocate and initialise a new
    block, or ``create=False`` (the **attach-to-existing-buffer**
    constructor) to adopt a block by name, re-deriving the free list from
    the live bits already in the ``meta`` column.
    """

    __slots__ = (
        "_shm", "_owns", "capacity_rows", "_attached_readonly", "__weakref__",
    )

    def __init__(
        self,
        capacity: int = 0,
        *,
        name: Optional[str] = None,
        create: bool = True,
        readonly: bool = False,
    ) -> None:
        from multiprocessing import shared_memory

        if create:
            if capacity < 1:
                raise ValueError(f"capacity must be >= 1, got {capacity}")
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=shared_store_bytes(capacity)
            )
            words = shm.buf.cast("q")
            words[0] = _SHM_MAGIC
            words[1] = capacity
            del words
        else:
            if name is None:
                raise ValueError("attach (create=False) requires a block name")
            shm = shared_memory.SharedMemory(name=name, create=False)
            header = shm.buf.cast("q")
            if header[0] != _SHM_MAGIC:
                magic = header[0]
                del header
                shm.close()
                raise ValueError(
                    f"block {name!r} is not an SoA store (magic {magic:#x})"
                )
            capacity = header[1]
            del header
            # Python <= 3.11 registers *attached* blocks with the
            # resource tracker as if this process created them. Under
            # the fork start method the attacher shares the creator's
            # tracker process, whose cache is a set keyed by name — the
            # duplicate registration dedups, and only destroy() (via
            # unlink) ever unregisters, exactly once. Do NOT "fix" this
            # by unregistering here: that removes the creator's entry
            # from the shared tracker and breaks leak protection.
        self._shm = shm
        self._owns = create
        self.capacity_rows = capacity
        self._attached_readonly = readonly
        words = shm.buf.cast("q")
        columns = []
        offset = _SHM_HEADER_WORDS
        for _ in range(_SHM_COLUMNS):
            columns.append(words[offset:offset + capacity])
            offset += capacity
        (
            self.deadline_col,
            self.started_col,
            self.next_col,
            self.prev_col,
            self.aux_col,
            self.meta_col,
        ) = columns
        # Object columns are process-local: ids/callbacks/payloads cannot
        # cross an shm mapping. An attached reader sees None here.
        self.request_ids = [None] * capacity
        self.callbacks = [None] * capacity
        self.user_datas = [None] * capacity
        # Free rows in descending order so pop() hands out 0, 1, 2, … —
        # the growable store's append order. Attach mode re-derives the
        # list from the live bits (descending scan keeps fresh-block
        # order identical to create mode).
        self._free_rows = [
            row
            for row in range(capacity - 1, -1, -1)
            if not self.meta_col[row] & _LIVE
        ]
        self._live = capacity - len(self._free_rows)
        _track_shared_store(self)

    # ------------------------------------------------------------ allocation

    def alloc(self, started_at, interval, request_id, callback, user_data):
        if self._attached_readonly:
            raise TypeError("store was attached read-only")
        if not self._free_rows:
            raise SoAStoreFullError(
                f"shared store is full ({self.capacity_rows} rows); "
                "size the backend's shm_rows for the peak population"
            )
        return super().alloc(
            started_at, interval, request_id, callback, user_data
        )

    # ------------------------------------------------------------- lifecycle

    @property
    def name(self) -> str:
        """The shared-memory block's name (pass to the attach constructor)."""
        return self._shm.name

    def bytes_estimate(self) -> int:
        """Block size plus the process-local object columns and free list."""
        return (
            self._shm.size
            + sys.getsizeof(self.request_ids)
            + sys.getsizeof(self.callbacks)
            + sys.getsizeof(self.user_datas)
            + sys.getsizeof(self._free_rows)
        )

    def close(self) -> None:
        """Release this process's mapping (the block itself survives).

        Idempotent: safe to call twice, and safe in a forked child that
        inherited the mapping.
        """
        # memoryview slices pin the buffer; drop them before closing.
        for column in (
            "deadline_col", "started_col", "next_col",
            "prev_col", "aux_col", "meta_col",
        ):
            view = getattr(self, column, None)
            if view is not None:
                view.release()
                setattr(self, column, None)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass

    def destroy(self) -> None:
        """Destroy the block system-wide (creator's responsibility).

        Named ``destroy`` — not ``unlink`` — because :meth:`unlink` is
        already the chain-splicing primitive inherited from the base
        store."""
        self._shm.unlink()


# The view deliberately mirrors Timer's public read surface; import late to
# keep this module importable from repro.core.interface if ever needed.
from repro.core.interface import TimerState  # noqa: E402


class SoATimerView(object):
    """Flyweight read view of one live store row.

    What ``start_timer`` returns on an SoA-backed scheme: three slots
    (store, row, generation) instead of a 20-slot record. Attribute reads
    resolve against the columns; once the row is finalised or recycled
    every access raises :class:`StaleTimerHandleError` — hold the
    finalised :class:`~repro.core.interface.Timer` that ``stop_timer``
    and ``tick`` return if you need post-mortem fields.
    """

    __slots__ = ("_store", "_row", "_generation")

    def __init__(self, store: SoATimerStore, row: int, generation: int) -> None:
        self._store = store
        self._row = row
        self._generation = generation

    def _live_row(self) -> int:
        store = self._store
        row = self._row
        meta = store.meta_col[row]
        if meta >> 1 != self._generation or not meta & _LIVE:
            raise StaleTimerHandleError(
                f"view of row {row} (generation {self._generation}) is "
                "stale: the timer was finalised or its row recycled; use "
                "the finalised Timer returned by stop_timer()/tick()"
            )
        return row

    @property
    def handle(self) -> int:
        """The packed generation-tagged handle (valid even when stale)."""
        return pack_handle(self._row, self._generation)

    @property
    def stale(self) -> bool:
        """True once the row was finalised or recycled past this view."""
        store = self._store
        meta = store.meta_col[self._row]
        return meta >> 1 != self._generation or not meta & _LIVE

    @property
    def request_id(self) -> Hashable:
        """Public id: the client's, or the packed handle for auto rows."""
        return self._store.request_id_of(self._live_row())

    @property
    def interval(self) -> int:
        """Requested duration in ticks."""
        return self._store.interval(self._live_row())

    @property
    def deadline(self) -> int:
        """Absolute tick the timer is due (``started_at + interval``)."""
        return self._store.deadline_col[self._live_row()]

    @property
    def started_at(self) -> int:
        """Absolute tick START_TIMER ran."""
        return self._store.started_col[self._live_row()]

    @property
    def callback(self) -> Optional[Callable]:
        """The Expiry_Action, if any."""
        return self._store.callbacks[self._live_row()]

    @property
    def user_data(self) -> object:
        """The client payload passed to START_TIMER."""
        return self._store.user_datas[self._live_row()]

    @property
    def generation(self) -> int:
        """Row incarnation this view was taken against."""
        return self._generation

    @property
    def state(self) -> TimerState:
        """Always PENDING — a live view *is* a pending timer."""
        self._live_row()
        return TimerState.PENDING

    @property
    def pending(self) -> bool:
        """True while the row still holds this incarnation (non-throwing)."""
        return not self.stale

    def __repr__(self) -> str:
        if self.stale:
            return f"SoATimerView(row={self._row}, stale=True)"
        return (
            f"SoATimerView(id={self.request_id!r}, "
            f"interval={self.interval}, deadline={self.deadline})"
        )
