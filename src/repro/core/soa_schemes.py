"""Schemes 4, 6 and 7 over the struct-of-arrays store.

Each class here is the row-oriented twin of one hot wheel scheme —
:class:`~repro.core.scheme4_wheel.TimingWheelScheduler`,
:class:`~repro.core.scheme6_hashed_unsorted.HashedWheelUnsortedScheduler`
and :class:`~repro.core.scheme7_hierarchical.HierarchicalWheelScheduler`
— selected by passing ``store="soa"`` to the object class's constructor
(the ``__new__`` dispatch lives there, so registry names and client code
never change). Wheel slots are ``array('q')`` head tables; chains run
through the store's ``next``/``prev`` columns; the scheme-private word
(Scheme 6's rounds count, Scheme 7's level) lives in the ``aux`` column.

Equivalence contract (enforced by ``tests/core/test_soa_store.py`` and
the chaos differential): for any operation sequence, an SoA scheme and
its object twin produce **bit-identical** OpCounter totals, expiry order,
occupancy-bitmap state and sparse-tick events. Every charge below is one
of the twin module's constants (imported, never copied), including
Scheme 6's calibrated Section 7 instruction mixes; intra-slot expiry order
is preserved because ``link_front`` + front-to-back drain is exactly
``push_front`` + ``drain()``. What differs is only memory: no per-timer
objects, no pointer-chased lists — the regime the MILLIONS bench prices.

Slot indices are *derived*, not stored: scheme 4's wheel keeps the
invariant ``cursor == now % max_interval``, so a pending row's slot is
``deadline % max_interval`` (likewise ``deadline % table_size`` for
scheme 6 and ``(deadline // granularity) % slot_count`` per level for
scheme 7). That is what frees the store from a per-timer slot field.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

from repro.core import scheme4_wheel as scheme4
from repro.core import scheme6_hashed_unsorted as scheme6
from repro.core import scheme7_hierarchical as scheme7
from repro.core.errors import TimerConfigurationError
from repro.core.interface import Timer
from repro.core.introspect import occupancy_summary
from repro.core.observer import NULL_OBSERVER
from repro.core.soa_base import SoATimerScheduler
from repro.core.validation import check_positive_int
from repro.cost.counters import NO_CHARGE, OpCounter, charge_folded
from repro.structures.bitmap import SlotBitmap
from repro.structures.soa import NIL, SoATimerView


class SoATimingWheelScheduler(SoATimerScheduler):
    """Scheme 4 on the SoA store: circular head table, one tick per slot."""

    scheme_name = "scheme4"

    def __init__(
        self,
        max_interval: int,
        counter: Optional[OpCounter] = None,
        recycle: bool = False,
        soa_store=None,
    ) -> None:
        super().__init__(counter, recycle=recycle, soa_store=soa_store)
        check_positive_int("max_interval", max_interval)
        if max_interval < 2:
            raise TimerConfigurationError("max_interval must be at least 2")
        self.max_interval = max_interval
        self._heads = array("q", [NIL]) * max_interval
        self._cursor = 0  # invariant: cursor == now % max_interval
        self._occupancy = SlotBitmap(max_interval)

    def max_start_interval(self) -> Optional[int]:
        return self.max_interval

    @property
    def cursor(self) -> int:
        """Current time pointer (index into the circular head table)."""
        return self._cursor

    def slot_sizes(self) -> List[int]:
        """Occupancy of each slot, for inspection and tests."""
        store = self._store
        return [store.chain_length(head) for head in self._heads]

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
        distance = (index - self._cursor - 1) % self.max_interval + 1
        return self._now + distance

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        self._cursor = (self._cursor + count) % self.max_interval
        charge_folded(self.counter, NO_CHARGE, count, scheme4.TICK_CHARGE)

    def _insert_row(self, row: int) -> None:
        store = self._store
        heads = self._heads
        index = store.deadline_col[row] % self.max_interval
        self.counter.charge(*scheme4.INSERT_CHARGE)
        if heads[index] == NIL:
            self._occupancy.set(index)
        store.link_front(heads, index, row)

    def _remove_row(self, row: int) -> None:
        store = self._store
        heads = self._heads
        index = store.deadline_col[row] % self.max_interval
        store.unlink(heads, index, row)
        self.counter.charge(*scheme4.DELETE_CHARGE)
        if heads[index] == NIL:
            self._occupancy.clear(index)

    def _update_row(self, row: int, new_interval: int) -> None:
        store = self._store
        heads = self._heads
        deadline_col = store.deadline_col
        index = deadline_col[row] % self.max_interval
        store.unlink(heads, index, row)
        if heads[index] == NIL:
            self._occupancy.clear(index)
        now = self._now
        store.started_col[row] = now
        deadline = deadline_col[row] = now + new_interval
        index = deadline % self.max_interval
        self.counter.charge(*scheme4.UPDATE_CHARGE)
        if heads[index] == NIL:
            self._occupancy.set(index)
        store.link_front(heads, index, row)

    def _collect_expired(self) -> List[Timer]:
        cursor = self._cursor = (self._cursor + 1) % self.max_interval
        heads = self._heads
        row = heads[cursor]
        expired: List[Timer] = []
        if row != NIL:
            self._occupancy.clear(cursor)  # the drain empties the slot
            heads[cursor] = NIL
            next_col = self._store.next_col
            finalize = self._finalize_expired
            while row != NIL:
                nxt = next_col[row]
                expired.append(finalize(row))
                row = nxt
        charge_folded(
            self.counter,
            scheme4.TICK_CHARGE,
            len(expired),
            scheme4.EXPIRE_CHARGE,
        )
        return expired


class SoAHashedWheelUnsortedScheduler(SoATimerScheduler):
    """Scheme 6 on the SoA store: hashed head table, rounds in ``aux``."""

    scheme_name = "scheme6"

    def __init__(
        self,
        table_size: int = 256,
        counter: Optional[OpCounter] = None,
        recycle: bool = False,
        soa_store=None,
    ) -> None:
        super().__init__(counter, recycle=recycle, soa_store=soa_store)
        check_positive_int("table_size", table_size)
        self.table_size = table_size
        self._heads = array("q", [NIL]) * table_size
        self._cursor = 0  # invariant: cursor == now % table_size
        self._occupancy = SlotBitmap(table_size)
        #: bucket entries visited (decremented or expired) across all ticks.
        self.entry_visits = 0

    @property
    def cursor(self) -> int:
        """Current time pointer (index into the hash array)."""
        return self._cursor

    def bucket_sizes(self) -> List[int]:
        """Occupancy of each bucket, for inspection and tests."""
        store = self._store
        return [store.chain_length(head) for head in self._heads]

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
        """Next occupied-bucket visit: a lower bound on the next firing."""
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
        self._cursor = (self._cursor + count) % self.table_size
        charge_folded(self.counter, NO_CHARGE, count, scheme6.EMPTY_TICK_CHARGE)

    # Rounds are ``(interval - 1) // size``, as in the object twin.

    def _insert_row(self, row: int) -> None:
        store = self._store
        heads = self._heads
        deadline = store.deadline_col[row]
        size = self.table_size
        index = deadline % size
        store.aux_col[row] = (deadline - store.started_col[row] - 1) // size
        self.counter.charge(*scheme6.INSERT_CHARGE)
        if heads[index] == NIL:
            self._occupancy.set(index)
        store.link_front(heads, index, row)

    def _remove_row(self, row: int) -> None:
        store = self._store
        heads = self._heads
        index = store.deadline_col[row] % self.table_size
        store.unlink(heads, index, row)
        self.counter.charge(*scheme6.DELETE_CHARGE)
        if heads[index] == NIL:
            self._occupancy.clear(index)

    def _update_row(self, row: int, new_interval: int) -> None:
        store = self._store
        heads = self._heads
        deadline_col = store.deadline_col
        size = self.table_size
        index = deadline_col[row] % size
        store.unlink(heads, index, row)
        if heads[index] == NIL:
            self._occupancy.clear(index)
        now = self._now
        store.started_col[row] = now
        deadline = deadline_col[row] = now + new_interval
        index = deadline % size
        store.aux_col[row] = (new_interval - 1) // size
        self.counter.charge(*scheme6.UPDATE_CHARGE)
        if heads[index] == NIL:
            self._occupancy.set(index)
        store.link_front(heads, index, row)

    def _collect_expired(self) -> List[Timer]:
        # Walk the whole bucket, expiring zero-count entries and
        # decrementing the rest — "exactly as in Scheme 1", per bucket.
        cursor = self._cursor = (self._cursor + 1) % self.table_size
        heads = self._heads
        row = heads[cursor]
        expired: List[Timer] = []
        visits = 0
        if row != NIL:
            store = self._store
            aux = store.aux_col
            next_col = store.next_col
            while row != NIL:
                nxt = next_col[row]
                visits += 1
                if aux[row] == 0:
                    store.unlink(heads, cursor, row)
                    expired.append(self._finalize_expired(row))
                else:
                    aux[row] -= 1
                row = nxt
            if heads[cursor] == NIL:
                self._occupancy.clear(cursor)
        self.entry_visits += visits
        charge_folded(
            self.counter,
            scheme6.EMPTY_TICK_CHARGE,
            visits,
            scheme6.DECREMENT_CHARGE,
            len(expired),
            scheme6.EXPIRE_CHARGE,
        )
        return expired


class _SoALevel:
    """One wheel of the SoA hierarchy: a head table plus its bitmap."""

    __slots__ = (
        "index", "slot_count", "granularity", "span", "heads", "occupancy"
    )

    def __init__(self, index: int, slot_count: int, granularity: int) -> None:
        self.index = index
        self.slot_count = slot_count
        self.granularity = granularity
        self.span = granularity * slot_count
        self.heads = array("q", [NIL]) * slot_count
        self.occupancy = SlotBitmap(slot_count)


class SoAHierarchicalWheelScheduler(SoATimerScheduler):
    """Scheme 7 on the SoA store: per-level head tables, level in ``aux``."""

    scheme_name = "scheme7"

    def __init__(
        self,
        slot_counts: Sequence[int] = (60, 60, 24, 100),
        counter: Optional[OpCounter] = None,
        placement: str = "paper",
        recycle: bool = False,
        soa_store=None,
    ) -> None:
        super().__init__(counter, recycle=recycle, soa_store=soa_store)
        if placement not in ("paper", "span"):
            raise TimerConfigurationError(
                f"placement must be 'paper' or 'span', got {placement!r}"
            )
        self.placement = placement
        if not slot_counts:
            raise TimerConfigurationError("at least one level is required")
        self._levels: List[_SoALevel] = []
        granularity = 1
        for index, count in enumerate(slot_counts):
            check_positive_int(f"slot_counts[{index}]", count)
            if count < 2:
                raise TimerConfigurationError(
                    f"slot_counts[{index}] must be >= 2 to be a wheel"
                )
            self._levels.append(_SoALevel(index, count, granularity))
            granularity *= count
        self.total_span = granularity
        self.total_slots = sum(level.slot_count for level in self._levels)
        self.migrations = 0
        self.cascades = 0

    # ------------------------------------------------------------ inspection

    @property
    def levels(self) -> int:
        """Number of wheels (the paper's ``m``)."""
        return len(self._levels)

    def level_granularities(self) -> List[int]:
        """Tick width of one slot at each level."""
        return [level.granularity for level in self._levels]

    def level_spans(self) -> List[int]:
        """Total ticks covered by each level's wheel."""
        return [level.span for level in self._levels]

    def cursor_positions(self) -> List[int]:
        """Current slot index of each level's conceptual cursor."""
        return [
            (self._now // level.granularity) % level.slot_count
            for level in self._levels
        ]

    def slot_sizes(self, level: int) -> List[int]:
        """Occupancy of each slot at ``level``, for inspection and tests."""
        store = self._store
        return [store.chain_length(h) for h in self._levels[level].heads]

    def max_start_interval(self) -> Optional[int]:
        return self.total_span

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "hierarchy",
            "levels": [
                {
                    "index": level.index,
                    "slot_count": level.slot_count,
                    "granularity": level.granularity,
                    "span": level.span,
                    "cursor": (self._now // level.granularity)
                    % level.slot_count,
                    "occupancy": occupancy_summary(
                        self.slot_sizes(level.index)
                    ),
                }
                for level in self._levels
            ],
            "placement": self.placement,
            "migrations": self.migrations,
            "cascades": self.cascades,
        }
        return info

    # ------------------------------------------------------------- internals

    def _place(self, row: int) -> None:
        """Insert ``row`` at the level its placement rule selects (the object
        twin's :meth:`_place`, over the head tables)."""
        store = self._store
        deadline = store.deadline_col[row]
        now = self._now
        scanned = 0
        if self.placement == "paper":
            for level in reversed(self._levels):
                scanned += 1
                if deadline // level.granularity != now // level.granularity:
                    break
            else:
                raise AssertionError("placement requires deadline > now")
        else:
            remaining = deadline - now
            for level in self._levels:
                scanned += 1
                if remaining < level.span:
                    break
            else:
                raise AssertionError("interval validated against total_span")
        slot_index = (deadline // level.granularity) % level.slot_count
        store.aux_col[row] = level.index
        reads, writes, compares, links = scheme7.PLACE_CHARGE
        self.counter.charge(reads, writes, compares + scanned, links)
        if level.heads[slot_index] == NIL:
            level.occupancy.set(slot_index)
        store.link_front(level.heads, slot_index, row)

    _insert_row = _place

    def _remove_row(self, row: int) -> None:
        store = self._store
        level = self._levels[store.aux_col[row]]
        heads = level.heads
        slot_index = (
            store.deadline_col[row] // level.granularity
        ) % level.slot_count
        store.unlink(heads, slot_index, row)
        if heads[slot_index] == NIL:
            level.occupancy.clear(slot_index)
        self.counter.charge(*scheme7.DELETE_CHARGE)

    def _update_row(self, row: int, new_interval: int) -> None:
        store = self._store
        deadline_col = store.deadline_col
        level = self._levels[store.aux_col[row]]
        heads = level.heads
        slot_index = (deadline_col[row] // level.granularity) % level.slot_count
        store.unlink(heads, slot_index, row)
        if heads[slot_index] == NIL:
            level.occupancy.clear(slot_index)
        now = self._now
        store.started_col[row] = now
        deadline = deadline_col[row] = now + new_interval
        # Uncharged placement search, mirroring the object twin's fused
        # update: same destination rule as _place, one UPDATE charge.
        if self.placement == "paper":
            for level in reversed(self._levels):
                if deadline // level.granularity != now // level.granularity:
                    break
        else:
            for level in self._levels:
                if new_interval < level.span:
                    break
        heads = level.heads
        slot_index = (deadline // level.granularity) % level.slot_count
        store.aux_col[row] = level.index
        self.counter.charge(*scheme7.UPDATE_CHARGE)
        if heads[slot_index] == NIL:
            level.occupancy.set(slot_index)
        store.link_front(heads, slot_index, row)

    def _handle_cascaded(self, row: int, expired: List[Timer]) -> None:
        """One row drained from a cascading coarse slot: expire or migrate."""
        store = self._store
        if store.deadline_col[row] == self._now:
            expired.append(self._finalize_expired(row))
        else:
            self.migrations += 1
            from_level = store.aux_col[row]
            self._place(row)
            observer = self.observer
            if observer is not NULL_OBSERVER:
                observer.on_migrate(
                    self,
                    SoATimerView(store, row, store.meta_col[row] >> 1),
                    from_level,
                    store.aux_col[row],
                )

    def next_expiry(self) -> Optional[int]:
        """Next tick that visits an occupied slot on any level."""
        best: Optional[int] = None
        now = self._now
        for level in self._levels:
            if not level.occupancy.any():
                continue
            unit_now = now // level.granularity
            index = level.occupancy.next_set_circular(
                (unit_now + 1) % level.slot_count
            )
            if index is None:
                continue
            unit_distance = (index - unit_now - 1) % level.slot_count + 1
            visit = (unit_now + unit_distance) * level.granularity
            if best is None or visit < best:
                best = visit
        return best

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        now = self._now
        crossings = 0
        for level in self._levels[1:]:
            g = level.granularity
            crossings += (now + count) // g - now // g
        self.cascades += crossings
        charge_folded(
            self.counter,
            NO_CHARGE,
            count,
            scheme7.TICK_CHARGE,
            crossings,
            scheme7.CASCADE_CHARGE,
        )

    def _collect_expired(self) -> List[Timer]:
        expired: List[Timer] = []
        now = self._now
        next_col = self._store.next_col
        cascades = drained = 0

        # Coarse levels first: every boundary crossing cascades its slot —
        # each row either expires now or migrates to a finer wheel.
        for level in reversed(self._levels[1:]):
            if now % level.granularity != 0:
                continue
            cascades += 1
            slot_index = (now // level.granularity) % level.slot_count
            row = level.heads[slot_index]
            if row != NIL:
                level.occupancy.clear(slot_index)  # the drain empties it
                level.heads[slot_index] = NIL
                while row != NIL:
                    nxt = next_col[row]
                    drained += 1
                    self._handle_cascaded(row, expired)
                    row = nxt
        self.cascades += cascades

        # Level 0 advances every tick and expires with exact precision.
        base = self._levels[0]
        slot_index = now % base.slot_count
        row = base.heads[slot_index]
        if row != NIL:
            base.occupancy.clear(slot_index)
            base.heads[slot_index] = NIL
            finalize = self._finalize_expired
            while row != NIL:
                nxt = next_col[row]
                drained += 1
                expired.append(finalize(row))
                row = nxt
        charge_folded(
            self.counter,
            scheme7.TICK_CHARGE,
            cascades,
            scheme7.CASCADE_CHARGE,
            drained,
            scheme7.DRAIN_CHARGE,
        )
        return expired
