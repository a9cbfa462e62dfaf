"""Record allocation on the object store: every START gets a fresh record.

There is no record free list: ``start_timer`` allocates, a finalised
record stays valid indefinitely, and ``free_record_count`` reads 0 on
every object scheme. Only ``restart_timer`` reuses a record, in place
(see ``tests/core/test_stale_handles.py``); the SoA store reports its
free rows (``tests/core/test_soa_store.py``).
"""

from __future__ import annotations

from repro.core.interface import TimerState


def test_off_by_default(any_scheduler):
    timer = any_scheduler.start_timer(3)
    any_scheduler.stop_timer(timer)
    assert any_scheduler.free_record_count == 0
    replacement = any_scheduler.start_timer(3)
    assert replacement is not timer
    # Finalised records stay valid indefinitely without recycling.
    assert timer.state is TimerState.STOPPED
