"""Scheme 7 — hierarchical timing wheels (Section 6.2).

"Instead [of one huge array] we can use a number of arrays, each of
different granularity. For instance ... a 100 element array in which each
element represents a day, a 24 element array [hours], a 60 element array
[minutes], a 60 element array [seconds]. Thus instead of 100*24*60*60 =
8.64 million locations to store timers up to 100 days, we need only
100 + 24 + 60 + 60 = 244 locations."

Level ``k`` has ``slot_counts[k]`` slots of granularity
``g[k] = slot_counts[0] * ... * slot_counts[k-1]`` ticks (``g[0] = 1``).
A timer is inserted at the lowest level whose span covers its remaining
time; when its slot is reached the timer *migrates* down ("EXPIRY_PROCESSING
will insert the remainder ... in the minute array"), expiring from level 0
with exact precision. The worked example of Figures 10–11 — an
(hour, minute, second) hierarchy at 11d 10:24:30 setting a 50m45s timer —
is reproduced verbatim in ``tests/core/test_scheme7.py``.

Costs (Section 6.2): START_TIMER is O(m) to find the right array among the
``m`` levels; STOP_TIMER is O(1) with doubly linked lists; a timer migrates
between at most ``m`` lists over its lifetime, so bookkeeping work per timer
is bounded by ``c7 * m`` versus Scheme 6's ``c6 * T / M`` — the trade the
SEC62 bench maps out.

The paper's formulation runs each coarser array off an internal 60-second /
60-minute / 24-hour timer ("there will always be a 60 second timer that is
used to update the minute array"). Equivalently — and how this module does
it — level ``k``'s cursor advances whenever ``now`` crosses a multiple of
``g[k]``, at which point its current slot *cascades*: every timer in it is
re-inserted by remaining time (or expired when due now). The observable
behaviour is identical; a test asserts cascade counts match the internal-
timer formulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import TimerConfigurationError
from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.soa_base import store_class
from repro.core.validation import check_positive_int
from repro.cost.counters import NO_CHARGE, OpCounter, charge_folded
from repro.structures.bitmap import SlotBitmap

#: Seconds / minutes / hours / days, the paper's worked example (Figure 10),
#: with granularity 1 tick = 1 second. Spans 100 days of ticks.
PAPER_LEVELS: Tuple[int, ...] = (60, 60, 24, 100)

#: A power-of-two hierarchy similar to kernel timer wheels: four levels of
#: 256 slots spanning 2**32 ticks.
BINARY_LEVELS: Tuple[int, ...] = (256, 256, 256, 256)

#: Charged ``(reads, writes, compares, links)`` per routine; the SoA store's
#: row hooks and the Nichols variants charge these same constants.
#: START and every migration: index computation + link, plus one compare
#: per level the placement rule scans (the O(m) search of Section 6.2).
PLACE_CHARGE = (1, 1, 0, 1)
#: STOP: one unlink.
DELETE_CHARGE = (0, 0, 0, 1)
#: UPDATE_TIMER on a hierarchy is two splices plus one level read: the
#: destination level search reuses the digit arithmetic the cascade
#: bookkeeping already pays, so one fused charge replaces the DELETE (1) +
#: placement-scan + INSERT (3) bill of a STOP+START round trip.
UPDATE_CHARGE = (1, 0, 0, 2)  # = 3
#: Every tick: clock write + level-0 cursor write/read/compare.
TICK_CHARGE = (1, 2, 1, 0)
#: Every coarse-level boundary crossed (a cascade, even of an empty slot).
CASCADE_CHARGE = (1, 0, 1, 0)
#: Every timer drained from a slot, to expire or migrate: read + unlink.
DRAIN_CHARGE = (1, 0, 0, 1)


class _Level:
    """One wheel in the hierarchy: its chain table and occupancy bitmap.

    ``slots`` is the scheduler's chain table for this wheel (one
    intrusive list per slot on the object store, a head table on the SoA
    store; see ``TimerScheduler._new_chains``). The occupancy bit of a
    slot (the sparse-tick fast path's index, never charged to the counter)
    is set exactly while the slot's chain is non-empty; every mutation
    flips it when a chain goes from empty to non-empty or back.
    """

    __slots__ = (
        "index", "slot_count", "granularity", "span", "slots", "occupancy"
    )

    def __init__(
        self, index: int, slot_count: int, granularity: int, slots
    ) -> None:
        self.index = index
        self.slot_count = slot_count
        self.granularity = granularity
        self.span = granularity * slot_count
        self.slots = slots
        self.occupancy = SlotBitmap(slot_count)

    def slot_for(self, deadline: int) -> int:
        return (deadline // self.granularity) % self.slot_count

    def link(self, slot_index: int, timer: "Timer") -> None:
        if self.slots[slot_index].push_front(timer) == 1:
            self.occupancy.set(slot_index)


class HierarchicalWheelScheduler(TimerScheduler):
    """Scheme 7: a hierarchy of timing wheels with coarsening granularity."""

    scheme_name = "scheme7"

    def __new__(cls, *args, store: str = "object", **kwargs):
        """``store="soa"`` builds the struct-of-arrays subclass (same
        scheme, same charges, a fraction of the memory; see
        ``docs/performance.md``). Only the base hierarchy supports it — the
        Nichols variants keep their object records.
        """
        return super().__new__(
            store_class(cls, HierarchicalWheelScheduler, store)
        )

    def __init__(
        self,
        slot_counts: Sequence[int] = PAPER_LEVELS,
        counter: Optional[OpCounter] = None,
        placement: str = "paper",
        store: str = "object",
        soa_store=None,
    ) -> None:
        """``placement`` selects the insertion rule (an ablation knob):

        * ``"paper"`` (default) — the paper's mixed-radix rule: insert at
          the *highest* level whose time digit differs between now and the
          deadline (Figure 10 puts a 50m45s timer in the hour array because
          the hour digit changes 10 → 11). Timers may migrate up to m-1
          times.
        * ``"span"`` — insert at the *lowest* level whose span covers the
          remaining time (the rule modern kernel wheels use). Fewer
          migrations, same expiry ticks; the ablation bench quantifies the
          difference.
        """
        super().__init__(counter)
        if soa_store is not None:
            raise TimerConfigurationError(
                "soa_store requires store='soa'"
            )
        if placement not in ("paper", "span"):
            raise TimerConfigurationError(
                f"placement must be 'paper' or 'span', got {placement!r}"
            )
        self.placement = placement
        if not slot_counts:
            raise TimerConfigurationError("at least one level is required")
        self._levels: List[_Level] = []
        granularity = 1
        for index, count in enumerate(slot_counts):
            check_positive_int(f"slot_counts[{index}]", count)
            if count < 2:
                raise TimerConfigurationError(
                    f"slot_counts[{index}] must be >= 2 to be a wheel"
                )
            self._levels.append(
                _Level(index, count, granularity, self._new_chains(count))
            )
            granularity *= count
        self.total_span = granularity  # product of all slot counts
        self.total_slots = sum(level.slot_count for level in self._levels)
        #: migrations performed, per level migrated *into* (SEC62 metering).
        self.migrations = 0
        #: cascades (coarse-slot drains) performed, even if the slot was empty.
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
        return [len(slot) for slot in self._levels[level].slots]

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

    def _place(self, timer: Timer) -> None:
        """Insert ``timer`` at the level its placement rule selects.

        Correctness argument (either rule): the destination level ``ℓ`` has
        ``deadline // g[ℓ] > now // g[ℓ]`` and the unit difference is at
        most ``s[ℓ]``, so the destination slot's next drain is exactly the
        deadline's unit boundary — never earlier, never a revolution late —
        and cascading there leaves ``remaining < g[ℓ]``, which re-places
        strictly downward until level 0 expires the timer exactly.
        """
        deadline = timer.deadline
        now = self._now
        scanned = 0
        if self.placement == "paper":
            # The paper's rule: the highest level whose unit digit changes
            # (see _level_by_digits).
            for level in reversed(self._levels):
                scanned += 1
                if deadline // level.granularity != now // level.granularity:
                    break
            else:
                raise AssertionError("placement requires deadline > now")
        else:
            # The lowest level whose span covers the remaining time.
            remaining = deadline - now
            for level in self._levels:
                scanned += 1
                if remaining < level.span:
                    break
            else:
                raise AssertionError("interval validated against total_span")
        slot_index = (deadline // level.granularity) % level.slot_count
        timer._level = level.index
        timer._slot_index = slot_index
        reads, writes, compares, links = PLACE_CHARGE
        self.counter.charge(reads, writes, compares + scanned, links)
        if level.slots[slot_index].push_front(timer) == 1:
            level.occupancy.set(slot_index)

    _insert = _place

    def _level_by_digits(self, deadline: int) -> _Level:
        """The paper's rule: highest level whose unit digit changes.

        "We first calculate the absolute time at which the timer will
        expire ... then we insert the timer into a list beginning (11 - 10
        hours) ahead of the current hour pointer in the hour array."
        Charges one compare per level scanned, as :meth:`_place` does.
        """
        now = self._now
        for level in reversed(self._levels):
            self.counter.compare(1)
            if deadline // level.granularity != now // level.granularity:
                return level
        raise AssertionError("placement requires deadline > now")

    def _handle_cascaded(self, timer: Timer, expired: List[Timer]) -> None:
        """Process one timer drained from a cascading coarse slot.

        Scheme 7 proper migrates the timer toward finer wheels until level 0
        expires it exactly; the Nichols variants in
        :mod:`repro.core.scheme7_variants` override this to trade precision
        for fewer migrations.
        """
        if timer.deadline == self._now:
            timer._level = -1
            timer._slot_index = -1
            expired.append(timer)
        else:
            self.migrations += 1
            from_level = timer._level
            self._place(timer)
            self.observer.on_migrate(self, timer, from_level, timer._level)

    def _remove(self, timer: Timer) -> None:
        level = self._levels[timer._level]
        slot_index = timer._slot_index
        if not level.slots[slot_index].remove(timer):
            level.occupancy.clear(slot_index)
        timer._level = -1
        timer._slot_index = -1
        self.counter.charge(*DELETE_CHARGE)

    def _update(self, timer: Timer, new_interval: int) -> None:
        level = self._levels[timer._level]
        slot_index = timer._slot_index
        if not level.slots[slot_index].remove(timer):
            level.occupancy.clear(slot_index)
        now = self._now
        timer.interval = new_interval
        timer.started_at = now
        deadline = timer.deadline = timer._fire_at = now + new_interval
        timer._remaining = new_interval
        timer._rounds = 0
        timer._migrated = False
        # Uncharged placement search (UPDATE_CHARGE prices it): same
        # destination rule as _place, so expiry behaviour is bit-identical
        # to a remove + reinsert.
        if self.placement == "paper":
            for level in reversed(self._levels):
                if deadline // level.granularity != now // level.granularity:
                    break
        else:
            for level in self._levels:
                if new_interval < level.span:
                    break
        slot_index = (deadline // level.granularity) % level.slot_count
        timer._level = level.index
        timer._slot_index = slot_index
        self.counter.charge(*UPDATE_CHARGE)
        if level.slots[slot_index].push_front(timer) == 1:
            level.occupancy.set(slot_index)

    def next_expiry(self) -> Optional[int]:
        """Next tick that visits an occupied slot on any level.

        Level 0 visits are exact deadlines; a coarse-level visit is the
        cascade that starts migrating its slot's timers down, a lower
        bound on their actual firing ticks. ``advance_to`` must stop at
        either kind, so the minimum over levels is both the fast-path
        event bound and the client-facing lower bound.
        """
        best: Optional[int] = None
        now = self._now
        for level in self._levels:
            if not level.occupancy.any():
                continue
            # Level k's cursor lives in *units* of its granularity; the
            # slot for unit u is visited when now first reaches u * g.
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
        # Each coarse-level boundary crossed inside the gap is an (empty)
        # cascade, and the cascade counter still advances exactly as the
        # per-tick path would.
        now = self._now
        crossings = 0
        for level in self._levels[1:]:
            g = level.granularity
            crossings += (now + count) // g - now // g
        self.cascades += crossings
        charge_folded(
            self.counter, NO_CHARGE, count, TICK_CHARGE, crossings, CASCADE_CHARGE
        )

    def _collect_expired(self) -> List[Timer]:
        expired: List[Timer] = []
        now = self._now
        cascades = drained = 0

        # Coarse levels first: whenever `now` crosses a level boundary the
        # level's new slot cascades — each timer either expires now or
        # migrates to a finer wheel ("EXPIRY_PROCESSING will insert the
        # remainder in the minute array").
        for level in reversed(self._levels[1:]):
            if now % level.granularity != 0:
                continue
            cascades += 1
            slot_index = (now // level.granularity) % level.slot_count
            slot = level.slots[slot_index]
            if slot:
                level.occupancy.clear(slot_index)  # the drain empties it
                for timer in slot.drain():  # slots hold only Timers
                    drained += 1
                    self._handle_cascaded(timer, expired)
        self.cascades += cascades

        # Level 0 advances every tick and expires with exact precision.
        base = self._levels[0]
        slot_index = now % base.slot_count
        slot = base.slots[slot_index]
        if slot:
            base.occupancy.clear(slot_index)
            for timer in slot.drain():
                drained += 1
                timer._level = -1
                timer._slot_index = -1
                expired.append(timer)
        charge_folded(
            self.counter,
            TICK_CHARGE,
            cascades,
            CASCADE_CHARGE,
            drained,
            DRAIN_CHARGE,
        )
        return expired
