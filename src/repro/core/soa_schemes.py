"""Schemes 4, 6 and 7 over the struct-of-arrays store.

Each class here subclasses one hot wheel scheme —
:class:`~repro.core.scheme4_wheel.TimingWheelScheduler`,
:class:`~repro.core.scheme6_hashed_unsorted.HashedWheelUnsortedScheduler`
and :class:`~repro.core.scheme7_hierarchical.HierarchicalWheelScheduler`
— and replaces only its chain storage. It is selected by passing
``store="soa"`` to the object class's constructor (the ``__new__``
dispatch lives there, so registry names and client code never change).
:class:`~repro.core.soa_base.SoATimerScheduler`, ahead of the scheme in
the MRO, supplies the row client API and turns every chain table the
scheme builds into an ``array('q')`` head table; chains run through the
store's ``next``/``prev`` columns, and the scheme-private word (Scheme 6's
rounds count, Scheme 7's level) lives in the ``aux`` column. What is left
here is the row hooks: START, STOP, UPDATE and the tick walk over rows.

Equivalence contract (enforced by ``tests/core/test_soa_store.py`` and
the chaos differential): for any operation sequence, an SoA scheme and
its object scheme produce **bit-identical** OpCounter totals, expiry
order, occupancy-bitmap state and sparse-tick events. Every charge below
is one of the scheme module's constants (imported, never copied),
including Scheme 6's calibrated Section 7 instruction mixes; intra-slot
expiry order is preserved because ``link_front`` + front-to-back drain is
exactly ``push_front`` + ``drain()``. What differs is only memory: no
per-timer objects, no pointer-chased lists — the regime the MILLIONS
bench prices.

Slot indices are *derived*, not stored: scheme 4's wheel keeps the
invariant ``cursor == now % max_interval``, so a pending row's slot is
``deadline % max_interval`` (likewise ``deadline % table_size`` for
scheme 6 and ``(deadline // granularity) % slot_count`` per level for
scheme 7). That is what frees the store from a per-timer slot field.
"""

from __future__ import annotations

from typing import List

from repro.core import scheme4_wheel as scheme4
from repro.core import scheme6_hashed_unsorted as scheme6
from repro.core import scheme7_hierarchical as scheme7
from repro.core.interface import Timer
from repro.core.observer import NULL_OBSERVER
from repro.core.soa_base import SoATimerScheduler
from repro.cost.counters import charge_folded
from repro.structures.soa import NIL, SoATimerView


class SoATimingWheelScheduler(SoATimerScheduler, scheme4.TimingWheelScheduler):
    """Scheme 4 on the SoA store: circular head table, one tick per slot."""

    def slot_sizes(self) -> List[int]:
        """Occupancy of each slot, for inspection and tests."""
        store = self._store
        return [store.chain_length(head) for head in self._slots]

    def _insert_row(self, row: int) -> None:
        store = self._store
        heads = self._slots
        index = store.deadline_col[row] % self.max_interval
        self.counter.charge(*scheme4.INSERT_CHARGE)
        if heads[index] == NIL:
            self._occupancy.set(index)
        store.link_front(heads, index, row)

    def _remove_row(self, row: int) -> None:
        store = self._store
        heads = self._slots
        index = store.deadline_col[row] % self.max_interval
        store.unlink(heads, index, row)
        self.counter.charge(*scheme4.DELETE_CHARGE)
        if heads[index] == NIL:
            self._occupancy.clear(index)

    def _update_row(self, row: int, new_interval: int) -> None:
        store = self._store
        heads = self._slots
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
        heads = self._slots
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


class SoAHashedWheelUnsortedScheduler(
    SoATimerScheduler, scheme6.HashedWheelUnsortedScheduler
):
    """Scheme 6 on the SoA store: hashed head table, rounds in ``aux``."""

    def bucket_sizes(self) -> List[int]:
        """Occupancy of each bucket, for inspection and tests."""
        store = self._store
        return [store.chain_length(head) for head in self._buckets]

    # Rounds are ``(interval - 1) // size``, as in the object scheme.

    def _insert_row(self, row: int) -> None:
        store = self._store
        heads = self._buckets
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
        heads = self._buckets
        index = store.deadline_col[row] % self.table_size
        store.unlink(heads, index, row)
        self.counter.charge(*scheme6.DELETE_CHARGE)
        if heads[index] == NIL:
            self._occupancy.clear(index)

    def _update_row(self, row: int, new_interval: int) -> None:
        store = self._store
        heads = self._buckets
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
        heads = self._buckets
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


class SoAHierarchicalWheelScheduler(
    SoATimerScheduler, scheme7.HierarchicalWheelScheduler
):
    """Scheme 7 on the SoA store: per-level head tables, level in ``aux``."""

    def slot_sizes(self, level: int) -> List[int]:
        """Occupancy of each slot at ``level``, for inspection and tests."""
        store = self._store
        return [store.chain_length(h) for h in self._levels[level].slots]

    def _place(self, row: int) -> None:
        """Insert ``row`` at the level its placement rule selects (the object
        scheme's :meth:`_place`, over the head tables)."""
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
        if level.slots[slot_index] == NIL:
            level.occupancy.set(slot_index)
        store.link_front(level.slots, slot_index, row)

    _insert_row = _place

    def _remove_row(self, row: int) -> None:
        store = self._store
        level = self._levels[store.aux_col[row]]
        heads = level.slots
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
        heads = level.slots
        slot_index = (deadline_col[row] // level.granularity) % level.slot_count
        store.unlink(heads, slot_index, row)
        if heads[slot_index] == NIL:
            level.occupancy.clear(slot_index)
        now = self._now
        store.started_col[row] = now
        deadline = deadline_col[row] = now + new_interval
        # Uncharged placement search, mirroring the object scheme's fused
        # update: same destination rule as _place, one UPDATE charge.
        if self.placement == "paper":
            for level in reversed(self._levels):
                if deadline // level.granularity != now // level.granularity:
                    break
        else:
            for level in self._levels:
                if new_interval < level.span:
                    break
        heads = level.slots
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
            row = level.slots[slot_index]
            if row != NIL:
                level.occupancy.clear(slot_index)  # the drain empties it
                level.slots[slot_index] = NIL
                while row != NIL:
                    nxt = next_col[row]
                    drained += 1
                    self._handle_cascaded(row, expired)
                    row = nxt
        self.cascades += cascades

        # Level 0 advances every tick and expires with exact precision.
        base = self._levels[0]
        slot_index = now % base.slot_count
        row = base.slots[slot_index]
        if row != NIL:
            base.occupancy.clear(slot_index)
            base.slots[slot_index] = NIL
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
