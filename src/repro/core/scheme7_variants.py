"""Wick Nichols' precision-vs-bookkeeping variants of Scheme 7 (Section 6.2).

"Wick Nichols has pointed out that if the timer precision is allowed to
decrease with increasing levels in the hierarchy, then we need not migrate
timers between levels. For instance ... we would round off to the nearest
hour and only set the timer in hours. ... This reduces
PER_TICK_BOOKKEEPING overhead further at the cost of a loss in precision of
up to 50% (e.g. a 1 minute and 30 second timer that is rounded to 1
minute). Alternately, we can improve the precision by allowing just one
migration between adjacent lists."

Two schedulers:

* :class:`LossyHierarchicalScheduler` — zero migrations. A timer is rounded
  to its insertion level's granularity and fires when that coarse slot is
  reached. Timers that land on level 0 are exact; for level ``k`` the firing
  error is bounded by half a slot (``rounding="nearest"``, the default) or a
  whole slot minus one tick (``rounding="down"``, which reproduces the
  paper's 1m30s → 1m example and its "up to 50%" bound).
* :class:`SingleMigrationHierarchicalScheduler` — at most one migration, to
  the *adjacent* finer level. The firing error shrinks to under one slot of
  the level *below* the insertion level.

Both expose the same metering fields as the parent (``migrations``,
``cascades``), and :attr:`~repro.core.interface.Timer.fired_at` records the
actual firing tick so the XTRA1 bench can measure precision loss directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.errors import TimerConfigurationError
from repro.core.interface import Timer, TimerScheduler
from repro.core.scheme7_hierarchical import (
    PAPER_LEVELS,
    PLACE_CHARGE,
    HierarchicalWheelScheduler,
)
from repro.cost.counters import OpCounter


class LossyHierarchicalScheduler(HierarchicalWheelScheduler):
    """Scheme 7 without migration: round to the insertion level and fire there."""

    scheme_name = "scheme7-lossy"

    def __init__(
        self,
        slot_counts: Sequence[int] = PAPER_LEVELS,
        rounding: str = "nearest",
        counter: Optional[OpCounter] = None,
    ) -> None:
        if rounding not in ("nearest", "down"):
            raise TimerConfigurationError(
                f"rounding must be 'nearest' or 'down', got {rounding!r}"
            )
        super().__init__(slot_counts, counter)
        self.rounding = rounding

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"]["rounding"] = self.rounding  # type: ignore[index]
        return info

    # Re-arm through the generic remove + reinsert path, not the parent's
    # fused wheel update: the rounding rule in _insert must re-run so the
    # new deadline gets its own (possibly different) firing slot.
    _update = TimerScheduler._update

    def _insert(self, timer: Timer) -> None:
        # The paper's own example rounds "to the nearest hour" for a timer
        # whose hour digit changes, so level selection follows the same
        # mixed-radix rule as the parent scheduler.
        level = self._level_by_digits(timer.deadline)
        if level.index == 0:
            # Finest level: exact, nothing to round.
            timer._fire_at = timer.deadline
            self._place_at_level(timer, 0, timer.deadline)
            return
        g = level.granularity
        if self.rounding == "nearest":
            target_unit = (timer.deadline + g // 2) // g
        else:
            target_unit = timer.deadline // g
        # Clamp the firing unit to the wheel's live window: strictly after
        # the level cursor (so the slot has not already been drained) and at
        # most one full revolution ahead (so it is not drained a revolution
        # early). Nearest-rounding at the window edges can step outside it.
        cur_unit = self._now // g
        target_unit = max(cur_unit + 1, min(target_unit, cur_unit + level.slot_count))
        timer._fire_at = target_unit * g
        self._place_at_level(timer, level.index, timer._fire_at)

    def _place_at_level(self, timer: Timer, level_index: int, fire_at: int) -> None:
        level = self._levels[level_index]
        slot_index = level.slot_for(fire_at)
        timer._level = level_index
        timer._slot_index = slot_index
        self.counter.charge(*PLACE_CHARGE)
        level.link(slot_index, timer)

    def _handle_cascaded(self, timer: Timer, expired: List[Timer]) -> None:
        # No migration, ever: the cascade *is* the (rounded) expiry.
        timer._level = -1
        timer._slot_index = -1
        expired.append(timer)

    def firing_error_bound(self, level_index: int) -> int:
        """Worst-case |fired_at - deadline| for a timer at ``level_index``."""
        g = self._levels[level_index].granularity
        if level_index == 0:
            return 0
        return g // 2 if self.rounding == "nearest" else g - 1


class SingleMigrationHierarchicalScheduler(HierarchicalWheelScheduler):
    """Scheme 7 with at most one migration, to the adjacent finer level."""

    scheme_name = "scheme7-onemigration"

    # Same opt-out as the lossy variant: re-arm via remove + reinsert so
    # _insert resets the migration budget for the new deadline.
    _update = TimerScheduler._update

    def _insert(self, timer: Timer) -> None:
        timer._migrated = False
        self._place(timer)

    def _handle_cascaded(self, timer: Timer, expired: List[Timer]) -> None:
        now = self._now
        if timer.deadline == now:
            timer._level = -1
            timer._slot_index = -1
            expired.append(timer)
            return
        from_level = timer._level
        if timer._migrated or from_level <= 0:
            # The single permitted migration is spent (or the timer was
            # already at the finest wheel): fire, early by < one slot of the
            # level it now sits on.
            timer._level = -1
            timer._slot_index = -1
            timer._fire_at = now
            expired.append(timer)
            return
        # Migrate exactly once, to the adjacent finer level.
        timer._migrated = True
        finer = self._levels[from_level - 1]
        due_unit = timer.deadline // finer.granularity
        cur_unit = now // finer.granularity
        if due_unit == cur_unit:
            # Due within the current finer slot, which has already passed
            # this tick: fire now, early by < finer.granularity.
            timer._level = -1
            timer._slot_index = -1
            timer._fire_at = now
            expired.append(timer)
            return
        self.migrations += 1
        slot_index = due_unit % finer.slot_count
        timer._level = finer.index
        timer._slot_index = slot_index
        self.counter.charge(*PLACE_CHARGE)
        finer.link(slot_index, timer)
        self.observer.on_migrate(self, timer, from_level, finer.index)

    def firing_error_bound(self, insertion_level: int) -> int:
        """Worst-case earliness for a timer inserted at ``insertion_level``."""
        if insertion_level == 0:
            return 0
        return self._levels[insertion_level - 1].granularity - 1
