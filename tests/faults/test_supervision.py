"""SupervisedScheduler: wheel-native retry, backoff, and quarantine."""

from __future__ import annotations

import pytest

from repro.core import (
    RetryPolicy,
    SupervisedScheduler,
    TimerStateError,
    UnknownTimerError,
    make_scheduler,
    origin_of,
)
from repro.core.supervision import RearmId
from repro.obs.tracing import TraceRecorder
from tests.conftest import ALL_SCHEMES, build


def supervised(scheme="scheme6", **kwargs):
    return SupervisedScheduler(build(scheme), **kwargs)


class FailTimes:
    """Callback that raises on its first ``n`` invocations."""

    def __init__(self, n):
        self.n = n
        self.calls = 0
        self.fired = []

    def __call__(self, timer):
        self.calls += 1
        if self.calls <= self.n:
            raise RuntimeError(f"boom #{self.calls}")
        self.fired.append(timer)


def test_successful_expiry_passes_through():
    sup = supervised()
    action = FailTimes(0)
    sup.start_timer(5, request_id="t", callback=action)
    sup.advance(5)
    assert action.calls == 1
    assert sup.survivors == [("t", 5, 1)]
    assert sup.retries == 0
    assert not sup.is_pending("t")


def test_failed_expiry_is_rearmed_as_a_wheel_timer():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=3, base_backoff=4))
    action = FailTimes(1)
    sup.start_timer(5, request_id="t", callback=action)
    sup.advance(5)
    # The retry is a *real* inner timer: pending on the wheel under a
    # RearmId, visible in pending_count and introspection.
    assert sup.pending_count == 1
    assert sup.is_pending("t")
    info = sup.introspect()["supervision"]
    assert info["retrying"] == ["t"]
    assert info["retries"] == 1
    assert sup.next_expiry() == 9  # failed at 5, base backoff 4
    sup.advance(4)
    assert action.fired and action.fired[0].request_id != "t"
    assert isinstance(action.fired[0].request_id, RearmId)
    assert origin_of(action.fired[0].request_id) == "t"
    assert sup.survivors == [("t", 5, 2)]
    assert sup.pending_count == 0


def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(max_attempts=10, base_backoff=2, backoff_multiplier=3.0,
                         max_backoff=20)
    assert policy.backoff_for("t", 1) == 2
    assert policy.backoff_for("t", 2) == 6
    assert policy.backoff_for("t", 3) == 18
    assert policy.backoff_for("t", 4) == 20  # capped


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=5, base_backoff=100, jitter=0.3, seed=4)
    values = {policy.backoff_for(f"t{i}", 1) for i in range(30)}
    assert values == {policy.backoff_for(f"t{i}", 1) for i in range(30)}
    assert all(70 <= v <= 130 for v in values)
    assert len(values) > 1  # jitter actually spreads the schedule


def test_quarantine_after_max_attempts():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=3, base_backoff=1))
    action = FailTimes(99)
    sup.start_timer(2, request_id="t", callback=action)
    sup.run_until_idle()
    assert action.calls == 3
    assert sup.quarantined_total == 1
    assert not sup.is_pending("t")
    assert sup.pending_count == 0
    record = sup.quarantine["t"]
    assert record.attempts == 3
    assert record.reason == "attempts"
    assert "boom" in record.error
    info = sup.introspect()["supervision"]
    assert info["quarantine"][0]["request_id"] == "t"


def test_retry_deadline_quarantines_late_retries():
    policy = RetryPolicy(max_attempts=10, base_backoff=50, retry_deadline=10)
    sup = supervised(retry_policy=policy)
    sup.start_timer(2, request_id="t", callback=FailTimes(99))
    sup.advance(2)  # first failure; retry at 52 > deadline 2 + 10
    assert sup.quarantined_total == 1
    assert sup.quarantine["t"].reason == "deadline"


def test_restart_releases_quarantine():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=1))
    sup.start_timer(1, request_id="t", callback=FailTimes(99))
    sup.advance(1)
    assert "t" in sup.quarantine
    with pytest.raises(TimerStateError):
        sup.stop_timer("t")  # quarantined, not pending
    action = FailTimes(0)
    sup.start_timer(3, request_id="t", callback=action)
    assert "t" not in sup.quarantine
    sup.advance(3)
    assert action.fired


def test_release_quarantined():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=1))
    sup.start_timer(1, request_id="t", callback=FailTimes(99))
    sup.advance(1)
    record = sup.release_quarantined("t")
    assert record.request_id == "t"
    with pytest.raises(UnknownTimerError):
        sup.release_quarantined("t")


def test_stop_timer_resolves_through_pending_rearm():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=5, base_backoff=100))
    sup.start_timer(2, request_id="t", callback=FailTimes(99))
    sup.advance(2)  # failed once; re-armed 100 ticks out under a RearmId
    assert sup.is_pending("t")
    stopped = sup.stop_timer("t")  # client still uses its own id
    assert origin_of(stopped.request_id) == "t"
    assert sup.pending_count == 0
    assert not sup.is_pending("t")
    sup.run_until_idle()
    assert sup.survivors == []  # never fired


def test_get_timer_reads_the_rearm_record_mid_retry():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=3, base_backoff=4))
    first = sup.start_timer(5, request_id="t", callback=FailTimes(1))
    assert sup.get_timer("t") is first
    sup.advance(5)  # failed once; re-armed 4 ticks out under RearmId("t", 1)
    assert sup.is_pending("t")
    record = sup.get_timer("t")
    assert record is first  # one record for the whole retry chain
    assert record.request_id == RearmId("t", 1)
    assert record.deadline == 9
    assert sup.get_timer(RearmId("t", 1)) is record
    sup.advance(4)  # the retry succeeds
    assert not sup.is_pending("t")
    with pytest.raises(UnknownTimerError):
        sup.get_timer("t")


def test_get_timer_of_a_quarantined_id_raises_like_stop_and_update():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=1))
    sup.start_timer(3, request_id="q", callback=FailTimes(9))
    sup.advance(3)
    assert "q" in sup.quarantine
    for call in (sup.get_timer, sup.stop_timer, lambda rid: sup.update_timer(rid, 5)):
        with pytest.raises(TimerStateError, match="quarantined"):
            call("q")


def test_duplicate_client_id_rejected_while_retrying():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=5, base_backoff=100))
    sup.start_timer(2, request_id="t", callback=FailTimes(99))
    sup.advance(2)
    with pytest.raises(TimerStateError):
        sup.start_timer(7, request_id="t")


def test_stale_rearm_does_not_fire_after_restart():
    # Stop a retrying timer, restart the same id, and make sure the old
    # re-arm (already cancelled) can't resurrect or double-fire it.
    sup = supervised(retry_policy=RetryPolicy(max_attempts=5, base_backoff=10))
    sup.start_timer(2, request_id="t", callback=FailTimes(99))
    sup.advance(2)
    sup.stop_timer("t")
    action = FailTimes(0)
    sup.start_timer(30, request_id="t", callback=action)
    sup.run_until_idle()
    assert action.calls == 1
    assert [s[0] for s in sup.survivors] == ["t"]


def test_unknown_stop_raises():
    sup = supervised()
    with pytest.raises(UnknownTimerError):
        sup.stop_timer("ghost")


def test_retry_visible_in_trace_stream():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=3, base_backoff=4))
    recorder = TraceRecorder()
    sup.attach_observer(recorder)
    sup.start_timer(5, request_id="t", callback=FailTimes(1))
    sup.run_until_idle()
    etypes = [e.etype for e in recorder.events()]
    assert "callback_error" in etypes
    assert "retry" in etypes
    # The re-arm shows up as a genuine start event for the rearm id.
    starts = [e for e in recorder.events() if e.etype == "start"]
    assert any(e.request_id.startswith("rearm:1:") for e in starts)
    retry = next(e for e in recorder.events() if e.etype == "retry")
    assert retry.detail == {"attempt": 1, "retry_at": 9}


def test_quarantine_visible_in_trace_stream():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=1))
    recorder = TraceRecorder()
    sup.attach_observer(recorder)
    sup.start_timer(1, request_id="t", callback=FailTimes(99))
    sup.advance(1)
    quarantine = next(e for e in recorder.events() if e.etype == "quarantine")
    assert quarantine.detail["attempts"] == 1
    assert "boom" in quarantine.detail["error"]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_retry_machinery_works_on_every_scheme(scheme):
    sup = supervised(scheme, retry_policy=RetryPolicy(max_attempts=3, base_backoff=2))
    action = FailTimes(2)
    sup.start_timer(10, request_id="t", callback=action)
    sup.run_until_idle()
    assert action.calls == 3
    assert sup.retries == 2
    assert sup.survivors == [("t", 10, 3)]
    assert sup.pending_count == 0


def test_user_data_carried_across_rearms():
    seen = []

    def action(timer):
        seen.append(timer.user_data)
        if len(seen) == 1:
            raise RuntimeError("first try fails")

    sup = supervised(retry_policy=RetryPolicy(max_attempts=3, base_backoff=1))
    sup.start_timer(2, request_id="t", callback=action, user_data={"k": 1})
    sup.run_until_idle()
    assert seen == [{"k": 1}, {"k": 1}]


def test_shutdown_cancels_rearms():
    sup = supervised(retry_policy=RetryPolicy(max_attempts=5, base_backoff=50))
    sup.start_timer(1, request_id="t", callback=FailTimes(99))
    sup.advance(1)
    cancelled = sup.shutdown()
    assert len(cancelled) == 1
    assert sup.supervised_count == 0


# ------------------------------------------------ native re-arm regression


def test_retry_chain_is_one_record_under_one_rearm_id_chain():
    """Formerly each retry allocated a fresh inner timer and left the
    expired attempt's record behind; the whole chain must now be one
    record restarted under successive RearmIds of the same origin."""
    from repro.core.observer import TimerObserver

    inner = build("scheme6")
    started = []

    class Recorder(TimerObserver):
        def on_start(self, scheduler, timer):
            # The id is captured eagerly: the re-arm mutates the record
            # in place, so by the end the object shows only the last id.
            started.append((id(timer), timer.request_id))

    inner.attach_observer(Recorder())
    sup = SupervisedScheduler(
        inner, retry_policy=RetryPolicy(max_attempts=4, base_backoff=2)
    )
    action = FailTimes(3)
    sup.start_timer(5, request_id="t", callback=action)
    sup.run_until_idle()
    assert action.calls == 4
    assert sup.survivors == [("t", 5, 4)]
    # Four starts (original + three re-arms) ...
    ids = [rid for _, rid in started]
    assert ids[0] == "t"
    assert [
        (origin_of(rid), rid.seq) for rid in ids[1:]
    ] == [("t", 1), ("t", 2), ("t", 3)]
    # ... but exactly ONE record: every retry re-armed the same object.
    assert len({obj for obj, _ in started}) == 1
    assert inner.pending_count == 0
