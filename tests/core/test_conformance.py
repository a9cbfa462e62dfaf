"""One behavioural contract, every scheme: the Section 2 timer-module model.

Each test runs against every registered scheme (the lossy hierarchy is
excluded from exact-deadline assertions but included everywhere else).
"""

from __future__ import annotations

import pytest

from repro.core import TimerState
from repro.core.errors import (
    SchedulerShutdownError,
    TimerIntervalError,
    TimerStateError,
    UnknownTimerError,
)
from tests.conftest import ALL_SCHEMES, EXACT_SCHEMES, build

#: Registry schemes that also run on the struct-of-arrays store.
SOA_SCHEMES = ("scheme4", "scheme6", "scheme7")

BAD_INTERVALS = [0, -1, -100, 1.5, "7", None, True]


def _assert_interval_rejected(sched, bad):
    """START and UPDATE both refuse ``bad``; the live timer is untouched."""
    with pytest.raises(TimerIntervalError):
        sched.start_timer(bad)
    live = sched.start_timer(10)
    with pytest.raises(TimerIntervalError):
        sched.update_timer(live, bad)
    assert live.pending
    assert live.deadline == 10


class TestStartTimer:
    def test_returns_pending_record(self, any_scheduler):
        timer = any_scheduler.start_timer(10)
        assert timer.pending
        assert timer.state is TimerState.PENDING
        assert timer.interval == 10
        assert timer.deadline == 10
        assert any_scheduler.pending_count == 1

    def test_deadline_is_relative_to_now(self, exact_scheduler):
        exact_scheduler.advance(5)
        timer = exact_scheduler.start_timer(7)
        assert timer.started_at == 5
        assert timer.deadline == 12

    def test_client_request_id_is_honoured(self, any_scheduler):
        timer = any_scheduler.start_timer(10, request_id="rto-1")
        assert timer.request_id == "rto-1"
        assert any_scheduler.is_pending("rto-1")
        assert any_scheduler.get_timer("rto-1") is timer

    def test_auto_ids_are_unique(self, any_scheduler):
        ids = {any_scheduler.start_timer(10).request_id for _ in range(50)}
        assert len(ids) == 50

    def test_duplicate_pending_id_rejected(self, any_scheduler):
        any_scheduler.start_timer(10, request_id="x")
        with pytest.raises(TimerStateError):
            any_scheduler.start_timer(20, request_id="x")

    def test_id_reusable_after_expiry(self, exact_scheduler):
        exact_scheduler.start_timer(3, request_id="x")
        exact_scheduler.advance(3)
        timer = exact_scheduler.start_timer(5, request_id="x")
        assert timer.pending

    def test_id_reusable_after_stop(self, any_scheduler):
        any_scheduler.start_timer(10, request_id="x")
        any_scheduler.stop_timer("x")
        timer = any_scheduler.start_timer(5, request_id="x")
        assert timer.pending

    @pytest.mark.parametrize("bad", BAD_INTERVALS)
    def test_invalid_intervals_rejected(self, any_scheduler, bad):
        _assert_interval_rejected(any_scheduler, bad)

    @pytest.mark.parametrize("bad", BAD_INTERVALS)
    @pytest.mark.parametrize("name", SOA_SCHEMES)
    def test_invalid_intervals_rejected_soa(self, name, bad):
        _assert_interval_rejected(build(name, store="soa"), bad)

    @pytest.mark.parametrize("store", ("object", "soa"))
    @pytest.mark.parametrize("name", ("scheme4", "scheme7"))
    def test_interval_at_max_start_interval_rejected(self, name, store):
        sched = build(name, store=store)
        limit = sched.max_start_interval()
        with pytest.raises(TimerIntervalError):
            sched.start_timer(limit)
        live = sched.start_timer(limit - 1)
        with pytest.raises(TimerIntervalError):
            sched.update_timer(live, limit)
        sched.update_timer(live, limit - 1)
        assert live.deadline == limit - 1

    @pytest.mark.parametrize(
        "name, store",
        [(name, "object") for name in ALL_SCHEMES]
        + [(name, "soa") for name in SOA_SCHEMES],
    )
    def test_start_and_update_refused_after_shutdown(self, name, store):
        sched = build(name, store=store) if store == "soa" else build(name)
        sched.start_timer(10, request_id="x")
        sched.shutdown()
        # The shut-down check comes first, ahead of the interval check.
        for interval in (5, 0):
            with pytest.raises(SchedulerShutdownError):
                sched.start_timer(interval)
            with pytest.raises(SchedulerShutdownError):
                sched.update_timer("x", interval)

    def test_user_data_carried(self, any_scheduler):
        payload = object()
        timer = any_scheduler.start_timer(10, user_data=payload)
        assert timer.user_data is payload


class TestStopTimer:
    def test_stop_by_record(self, any_scheduler):
        timer = any_scheduler.start_timer(10)
        stopped = any_scheduler.stop_timer(timer)
        assert stopped is timer
        assert timer.state is TimerState.STOPPED
        assert any_scheduler.pending_count == 0

    def test_stop_by_request_id(self, any_scheduler):
        any_scheduler.start_timer(10, request_id="k")
        stopped = any_scheduler.stop_timer("k")
        assert stopped.state is TimerState.STOPPED
        assert not any_scheduler.is_pending("k")

    def test_stopped_timer_never_fires(self, exact_scheduler):
        fired = []
        timer = exact_scheduler.start_timer(5, callback=fired.append)
        exact_scheduler.stop_timer(timer)
        exact_scheduler.advance(100)
        assert fired == []

    def test_unknown_id_raises(self, any_scheduler):
        with pytest.raises(UnknownTimerError):
            any_scheduler.stop_timer("nope")

    def test_double_stop_raises(self, any_scheduler):
        timer = any_scheduler.start_timer(10)
        any_scheduler.stop_timer(timer)
        with pytest.raises(TimerStateError):
            any_scheduler.stop_timer(timer)

    def test_stop_after_expiry_raises(self, exact_scheduler):
        timer = exact_scheduler.start_timer(2)
        exact_scheduler.advance(2)
        with pytest.raises(TimerStateError):
            exact_scheduler.stop_timer(timer)

    def test_stopped_at_recorded(self, any_scheduler):
        timer = any_scheduler.start_timer(10)
        any_scheduler.advance(4)
        any_scheduler.stop_timer(timer)
        assert timer.stopped_at == 4


class TestExpiry:
    @pytest.mark.parametrize("interval", [1, 2, 7, 63, 64, 65, 1000, 4096])
    @pytest.mark.parametrize("scheme", EXACT_SCHEMES)
    def test_fires_exactly_at_deadline(self, scheme, interval):
        scheduler = build(scheme)
        fired = []
        scheduler.start_timer(interval, callback=lambda t: fired.append(scheduler.now))
        scheduler.advance(interval - 1)
        assert fired == []
        scheduler.tick()
        assert fired == [interval]

    def test_tick_returns_expired_timers(self, exact_scheduler):
        t1 = exact_scheduler.start_timer(3)
        t2 = exact_scheduler.start_timer(3)
        exact_scheduler.start_timer(4)
        exact_scheduler.advance(2)
        expired = exact_scheduler.tick()
        assert {t.request_id for t in expired} == {t1.request_id, t2.request_id}

    def test_expired_state_and_fields(self, exact_scheduler):
        timer = exact_scheduler.start_timer(5)
        exact_scheduler.advance(5)
        assert timer.state is TimerState.EXPIRED
        assert timer.expired_at == 5
        assert timer.fired_at == 5
        assert not timer.pending

    def test_simultaneous_expiries_all_fire(self, exact_scheduler):
        fired = []
        for i in range(20):
            exact_scheduler.start_timer(9, request_id=i, callback=lambda t: fired.append(t.request_id))
        exact_scheduler.advance(9)
        assert sorted(fired) == list(range(20))

    def test_expiry_counts(self, exact_scheduler):
        for _ in range(5):
            exact_scheduler.start_timer(3)
        victim = exact_scheduler.start_timer(3)
        exact_scheduler.stop_timer(victim)
        exact_scheduler.advance(3)
        assert exact_scheduler.total_started == 6
        assert exact_scheduler.total_stopped == 1
        assert exact_scheduler.total_expired == 5

    def test_interleaved_timers_fire_in_deadline_order(self, exact_scheduler):
        order = []
        for interval in (30, 10, 20, 40, 10):
            exact_scheduler.start_timer(
                interval, callback=lambda t: order.append(t.interval)
            )
        exact_scheduler.advance(100)
        assert order == [10, 10, 20, 30, 40]


class TestReentrantCallbacks:
    def test_callback_can_start_new_timer(self, exact_scheduler):
        fired = []

        def chain(timer):
            fired.append(exact_scheduler.now)
            if len(fired) < 3:
                exact_scheduler.start_timer(4, callback=chain)

        exact_scheduler.start_timer(4, callback=chain)
        exact_scheduler.advance(20)
        assert fired == [4, 8, 12]

    def test_callback_can_stop_other_timer(self, exact_scheduler):
        fired = []
        victim = exact_scheduler.start_timer(10, callback=fired.append)

        def killer(timer):
            exact_scheduler.stop_timer(victim)

        exact_scheduler.start_timer(5, callback=killer)
        exact_scheduler.advance(20)
        assert fired == []
        assert victim.state is TimerState.STOPPED

    def test_sibling_expired_same_tick_is_already_expired(self, exact_scheduler):
        """Expiry is atomic per tick: a callback cannot stop a sibling that
        was due on the same tick — it is already EXPIRED (not a crash, not
        a half-removed record)."""
        from repro.core.errors import TimerStateError

        outcomes = []

        def try_stop_other(timer):
            other = sibling_b if timer is sibling_a else sibling_a
            try:
                exact_scheduler.stop_timer(other)
                outcomes.append("stopped")
            except TimerStateError:
                outcomes.append("already-expired")

        sibling_a = exact_scheduler.start_timer(6, callback=try_stop_other)
        sibling_b = exact_scheduler.start_timer(6, callback=try_stop_other)
        exact_scheduler.advance(6)
        assert outcomes == ["already-expired", "already-expired"]
        assert sibling_a.state is TimerState.EXPIRED
        assert sibling_b.state is TimerState.EXPIRED

    def test_callback_can_reuse_own_request_id(self, exact_scheduler):
        fired = []

        def rearm(timer):
            fired.append(exact_scheduler.now)
            if len(fired) < 2:
                exact_scheduler.start_timer(
                    3, request_id="periodic", callback=rearm
                )

        exact_scheduler.start_timer(3, request_id="periodic", callback=rearm)
        exact_scheduler.advance(10)
        assert fired == [3, 6]


class TestClock:
    def test_advance_accumulates(self, any_scheduler):
        any_scheduler.advance(3)
        any_scheduler.advance(4)
        assert any_scheduler.now == 7

    def test_advance_rejects_negative(self, any_scheduler):
        with pytest.raises(ValueError):
            any_scheduler.advance(-1)

    def test_run_until_idle_drains_everything(self, any_scheduler):
        for interval in (5, 50, 500, 5000):
            any_scheduler.start_timer(interval)
        any_scheduler.run_until_idle(max_ticks=100_000)
        assert any_scheduler.pending_count == 0

    def test_pending_timers_snapshot(self, any_scheduler):
        t1 = any_scheduler.start_timer(10)
        t2 = any_scheduler.start_timer(20)
        snapshot = any_scheduler.pending_timers()
        assert {t.request_id for t in snapshot} == {
            t1.request_id,
            t2.request_id,
        }


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_mixed_workload_bookkeeping_is_consistent(scheme):
    """Start/stop/expire churn leaves counters and population consistent."""
    import random

    scheduler = build(scheme)
    rng = random.Random(99)
    live = {}
    for step in range(2000):
        action = rng.random()
        if action < 0.4:
            timer = scheduler.start_timer(rng.randint(1, 5000))
            live[timer.request_id] = timer
        elif action < 0.6 and live:
            request_id = rng.choice(list(live))
            timer = live.pop(request_id)
            if timer.pending:
                scheduler.stop_timer(timer)
        else:
            for timer in scheduler.tick():
                live.pop(timer.request_id, None)
    # Reconcile: every live-pending record is still pending in the module.
    live = {k: t for k, t in live.items() if t.pending}
    assert scheduler.pending_count == len(live)
    assert (
        scheduler.total_started
        == scheduler.total_stopped + scheduler.total_expired + scheduler.pending_count
    )
