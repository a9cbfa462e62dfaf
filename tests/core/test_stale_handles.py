"""Generation-tagged handles: use-after-reuse across ``restart_timer``.

The hazard these tests pin: ``restart_timer`` re-arms a finalised record
in place, so a client that holds the finalised ``Timer`` across the
re-arm holds the *same Python object reborn as another timer leg*,
possibly under another request id — ``stop_timer(stale_record)`` would
silently cancel the new leg. The guard is the generation tag:
``Timer.generation`` bumps on every ``_reinit``, ``timer.handle``
captures it, and resolving a stale handle raises
:class:`StaleTimerHandleError`. The SoA store enforces the same contract
natively (its free list *is* the allocator).
"""

from __future__ import annotations

import pytest

from repro.core.errors import StaleTimerHandleError, TimerStateError
from repro.core.interface import TimerHandle
from repro.core.scheme6_hashed_unsorted import HashedWheelUnsortedScheduler


def _rearmed_pair(sched):
    """Expire one timer, re-arm its record; returns (stale_handle, victim)."""
    first = sched.start_timer(3, request_id="first")
    handle = first.handle
    sched.advance(3)  # expire -> record finalised
    victim = sched.restart_timer(first, 50, request_id="victim")
    assert victim is first, "restart_timer must re-arm the record in place"
    return handle, victim


def test_handle_tracks_generations():
    sched = HashedWheelUnsortedScheduler(64)
    timer = sched.start_timer(3, request_id="x")
    handle = timer.handle
    assert isinstance(handle, TimerHandle)
    assert not handle.stale
    assert handle.resolve() is timer
    assert timer.generation == 0
    sched.advance(3)
    assert not handle.stale  # finalised but not yet reused: still gen 0
    sched.restart_timer(timer, 5)  # reuse bumps the generation
    assert timer.generation == 1
    assert handle.stale


def test_stale_handle_stop_raises_instead_of_cancelling_victim():
    """The pre-PR bug: this stop used to kill the victim silently."""
    sched = HashedWheelUnsortedScheduler(64)
    handle, victim = _rearmed_pair(sched)
    with pytest.raises(StaleTimerHandleError):
        sched.stop_timer(handle)
    # The reborn timer is untouched — exactly what the raw record path
    # could not guarantee.
    assert victim.pending
    assert sched.pending_count == 1
    assert sched.is_pending("victim")


def test_raw_record_stop_still_cancels_by_identity():
    """Documented sharp edge: the raw record IS the reborn timer.

    Clients that stop by record reference across a ``restart_timer``
    must hold handles instead; this pin documents why (the raw path
    cannot distinguish incarnations, so it cancels whatever the record
    now is).
    """
    sched = HashedWheelUnsortedScheduler(64)
    first = sched.start_timer(3, request_id="first")
    sched.advance(3)
    victim = sched.restart_timer(first, 50, request_id="victim")
    assert victim is first
    sched.stop_timer(first)  # same object -> stops "victim"
    assert not sched.is_pending("victim")


def test_is_pending_accepts_handles_without_raising():
    sched = HashedWheelUnsortedScheduler(64)
    timer = sched.start_timer(3, request_id="x")
    handle = timer.handle
    assert sched.is_pending(handle)
    sched.advance(3)
    assert not sched.is_pending(handle)
    sched.restart_timer(timer, 9)  # goes stale: probe stays non-throwing
    assert handle.stale
    assert not sched.is_pending(handle)


def test_stop_by_live_handle_works():
    sched = HashedWheelUnsortedScheduler(64)
    timer = sched.start_timer(30, request_id="x")
    stopped = sched.stop_timer(timer.handle)
    assert stopped is timer
    assert not sched.is_pending("x")


def test_stopping_finalised_but_unrecycled_handle_is_state_error():
    """Before reuse the handle still resolves; the state check fires."""
    sched = HashedWheelUnsortedScheduler(64)
    timer = sched.start_timer(3, request_id="x")
    handle = timer.handle
    sched.advance(3)
    with pytest.raises(TimerStateError):
        sched.stop_timer(handle)


def test_handles_inert_without_recycling():
    """START allocates a fresh record, so other timers never stale a handle."""
    sched = HashedWheelUnsortedScheduler(64)
    timer = sched.start_timer(3, request_id="x")
    handle = timer.handle
    sched.advance(3)
    sched.start_timer(5)
    assert not handle.stale
    assert handle.resolve() is timer


def test_soa_store_enforces_the_same_contract_natively():
    sched = HashedWheelUnsortedScheduler(64, store="soa")
    view = sched.start_timer(3)
    handle = view.handle
    sched.advance(3)  # expiry frees the row immediately
    victim = sched.start_timer(50)  # row reused under a new generation
    with pytest.raises(StaleTimerHandleError):
        sched.stop_timer(handle)
    with pytest.raises(StaleTimerHandleError):
        view.deadline
    assert not sched.is_pending(handle)
    assert sched.is_pending(victim.handle)
    assert sched.pending_count == 1
