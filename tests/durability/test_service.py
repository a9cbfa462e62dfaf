"""DurableScheduler semantics: WAL-before-mutate, recovery, catch-up."""

from __future__ import annotations

import errno
import os

import pytest

from repro.core.errors import (
    TimerConfigurationError,
    TimerIntervalError,
    TimerStateError,
    UnknownTimerError,
)
from repro.core.registry import make_scheduler
from repro.core.supervision import SupervisedScheduler
from repro.durability.journal import JournalWriteError, read_journal
from repro.durability.service import JOURNAL_NAME, DurableScheduler, recover
from repro.durability.snapshot import list_snapshots, load_latest_snapshot
from repro.faults.crash import CrashPoint, SimulatedCrash


def _plain(tmp_path, **kwargs):
    kwargs.setdefault("sync", "always")
    return DurableScheduler(make_scheduler("scheme1"), tmp_path, **kwargs)


def _supervised(tmp_path, scheme="scheme6", **kwargs):
    kwargs.setdefault("sync", "always")
    return DurableScheduler(
        SupervisedScheduler(make_scheduler(scheme)), tmp_path, **kwargs
    )


def test_ops_are_journaled_in_order(tmp_path):
    with _plain(tmp_path) as durable:
        durable.start_timer(10, request_id="a")
        durable.start_timer(20, request_id="b")
        durable.stop_timer("b")
        durable.advance(12)
    ops = [(op, data.get("id")) for _, op, data in
           read_journal(tmp_path / JOURNAL_NAME).records]
    assert ops == [
        ("start", "a"),
        ("start", "b"),
        ("stop", "b"),
        ("advance", None),
        ("expire", "a"),
    ]


def test_auto_ids_survive_recovery(tmp_path):
    with _plain(tmp_path) as durable:
        first = durable.start_timer(10)
        assert str(first.request_id) == "auto-d0"
    recovered = recover(tmp_path, lambda: make_scheduler("scheme1"))
    auto = recovered.start_timer(10)
    assert str(auto.request_id) == "auto-d1"  # the series continues
    recovered.close()


def test_duplicate_id_raises_without_a_phantom_record(tmp_path):
    with _plain(tmp_path) as durable:
        durable.start_timer(10, request_id="a")
        before = durable.journal.last_seq
        with pytest.raises(TimerStateError):
            durable.start_timer(5, request_id="a")
        assert durable.journal.last_seq == before


def test_non_string_ids_are_rejected(tmp_path):
    with _plain(tmp_path) as durable:
        with pytest.raises(TimerConfigurationError, match="string"):
            durable.start_timer(10, request_id=42)


def test_invalid_interval_leaves_no_record(tmp_path):
    with _plain(tmp_path) as durable:
        with pytest.raises(TimerIntervalError):
            durable.start_timer(0, request_id="a")
        assert durable.journal.last_seq == 0


def test_stop_of_unknown_id_raises_without_a_phantom_record(tmp_path):
    with _plain(tmp_path) as durable:
        with pytest.raises(UnknownTimerError):
            durable.stop_timer("ghost")
        assert durable.journal.last_seq == 0


def test_sync_clock_requires_a_supervised_stack(tmp_path):
    with _plain(tmp_path) as durable:
        with pytest.raises(TimerStateError, match="SupervisedScheduler"):
            durable.sync_clock(5)


def test_existing_journal_refuses_a_fresh_service(tmp_path):
    with _plain(tmp_path) as durable:
        durable.start_timer(10, request_id="a")
    with pytest.raises(TimerStateError, match="recover"):
        DurableScheduler(make_scheduler("scheme1"), tmp_path)


def test_plain_recovery_fires_at_the_same_absolute_ticks(tmp_path):
    fired = []
    with _plain(tmp_path) as durable:
        durable.start_timer(10, request_id="a")
        durable.start_timer(30, request_id="b")
        durable.advance(15)  # fires a at 10
    recovered = recover(
        tmp_path,
        lambda: make_scheduler("scheme1"),
        rebind=lambda key, user_data: fired.append,
    )
    assert recovered.now == 15
    assert recovered.is_pending("b") and not recovered.is_pending("a")
    recovered.advance(20)
    assert [str(t.request_id) for t in fired] == ["b"]
    assert fired[0].deadline == 30  # not re-based by the restart
    recovered.close()


def test_recovery_catches_up_missed_deadlines_late_never_skip(tmp_path):
    # die after the start is durable but before the deadline is processed
    durable = _plain(tmp_path, crash=CrashPoint(3, "before"))
    durable.start_timer(5, request_id="a")  # seq 1
    durable.start_timer(40, request_id="b")  # seq 2
    with pytest.raises(SimulatedCrash):
        durable.advance(20)  # the advance record dies with the process
    # in-memory the clock reached 20 and "a" fired; none of it is durable
    fired = []
    recovered = recover(
        tmp_path,
        lambda: make_scheduler("scheme1"),
        rebind=lambda key, user_data: fired.append,
    )
    # the journal knows only the starts: now=0, both pending
    assert recovered.recovery.catch_up_fired == 0
    recovered.advance(20)
    assert [str(t.request_id) for t in fired] == ["a"]
    recovered.close()


def test_catch_up_fires_overdue_timers_without_client_motion(tmp_path):
    # make the deadline miss durable: the advance record reaches the disk
    # but the process dies before the expiry outcome does.
    durable = _plain(tmp_path, crash=CrashPoint(4, "before"))
    durable.start_timer(5, request_id="a")  # seq 1
    durable.start_timer(40, request_id="b")  # seq 2
    with pytest.raises(SimulatedCrash):
        durable.advance(20)  # seq 3 = advance, seq 4 = expire(a) -> dies
    fired = []
    recovered = recover(
        tmp_path,
        lambda: make_scheduler("scheme1"),
        rebind=lambda key, user_data: fired.append,
    )
    # "a" was overdue at the recovered clock (due 5 <= now 20): delivered
    # by recovery itself, one tick late, without waiting for the client.
    assert recovered.recovery.catch_up_fired == 1
    assert [str(t.request_id) for t in fired] == ["a"]
    assert recovered.now == 21
    assert recovered.is_pending("b")
    # and the delivery itself was journaled: a second recovery agrees
    recovered.close()
    again = recover(tmp_path, lambda: make_scheduler("scheme1"))
    assert again.recovery.catch_up_fired == 0
    assert not again.is_pending("a") and again.is_pending("b")
    again.close()


def test_snapshots_bound_replay_to_the_tail(tmp_path):
    with _plain(tmp_path, snapshot_every=10) as durable:
        for i in range(35):
            durable.start_timer(1000 + i, request_id=f"t{i}")
    assert list_snapshots(tmp_path)  # cadence produced snapshots
    recovered = recover(tmp_path, lambda: make_scheduler("scheme1"))
    report = recovered.recovery
    assert report.snapshot_seq >= 30
    assert report.replayed_records == 35 - report.snapshot_seq
    assert recovered.pending_count == 35
    recovered.close()


def test_supervised_recovery_restores_outcome_history(tmp_path):
    with _supervised(tmp_path) as durable:
        durable.sync_clock(1)
        durable.start_timer(3, request_id="a")
        durable.start_timer(50, request_id="b")
        for wall in range(2, 10):
            durable.sync_clock(wall)  # fires a at its deadline
    build = lambda: SupervisedScheduler(make_scheduler("scheme6"))
    recovered = recover(tmp_path, build)
    stack = recovered.stack
    assert [str(o) for o, _, _ in stack.survivors] == ["a"]
    assert recovered.is_pending("b")
    assert stack.clock_jumps == 0
    recovered.close()


def test_supervised_recovery_recounts_clock_jumps_from_sync_records(tmp_path):
    with _supervised(tmp_path) as durable:
        durable.sync_clock(1)
        durable.sync_clock(2)
        durable.sync_clock(60)  # forward jump
        durable.sync_clock(20)  # backward jump
    recovered = recover(
        tmp_path, lambda: SupervisedScheduler(make_scheduler("scheme6"))
    )
    assert recovered.stack.clock_jumps == 2
    # the restored baseline is live: the next reading diffs against it
    recovered.sync_clock(21)
    assert recovered.stack.clock_jumps == 2
    recovered.sync_clock(90)
    assert recovered.stack.clock_jumps == 3
    recovered.close()


def test_batch_mode_loses_at_most_the_group_commit_window(tmp_path):
    durable = DurableScheduler(
        make_scheduler("scheme1"), tmp_path, sync="batch", batch_size=4
    )
    for i in range(10):  # two full batches commit; two records buffered
        durable.start_timer(100, request_id=f"t{i}")
    assert durable.journal.unsynced == 2
    # simulated power loss: the buffer dies without a flush/close
    durable._journal._handle.close()
    recovered = recover(tmp_path, lambda: make_scheduler("scheme1"))
    assert recovered.pending_count == 8  # t8/t9 were acked but unsynced
    assert not recovered.is_pending("t8")
    # the client's idempotent re-issue completes the lost tail
    recovered.start_timer(100, request_id="t8")
    recovered.start_timer(100, request_id="t9")
    assert recovered.pending_count == 10
    recovered.close()


def test_introspect_exposes_the_durability_section(tmp_path):
    with _plain(tmp_path) as durable:
        durable.start_timer(10, request_id="a")
        info = durable.introspect()
    section = info["durability"]
    assert section["journal_seq"] == 1
    assert section["sync"] == "always"
    assert section["pending_in_state"] == 1


# ------------------------------------------------------------- UPDATE_TIMER


def test_update_is_journaled_and_replayed(tmp_path):
    with _plain(tmp_path) as durable:
        durable.start_timer(10, request_id="a")
        durable.update_timer("a", 40)
    ops = [(op, data.get("id")) for _, op, data in
           read_journal(tmp_path / JOURNAL_NAME).records]
    assert ops == [("start", "a"), ("update", "a")]
    recovered = recover(tmp_path, lambda: make_scheduler("scheme1"))
    assert recovered.is_pending("a")
    fired = recovered.advance(40)
    assert [t.request_id for t in fired] == ["a"]
    recovered.close()


def test_update_preserves_id_and_arrival_order_across_recovery(tmp_path):
    with _plain(tmp_path) as durable:
        durable.start_timer(10, request_id="a")
        durable.start_timer(20, request_id="b")
        durable.update_timer("a", 100)  # rescheduled AFTER b now
    recovered = recover(tmp_path, lambda: make_scheduler("scheme1"))
    fired = recovered.run_until_idle()
    assert [(t.request_id, t.fired_at) for t in fired] == [("b", 20), ("a", 100)]
    recovered.close()


def test_update_of_unknown_id_leaves_no_phantom_record(tmp_path):
    with _plain(tmp_path) as durable:
        durable.start_timer(10, request_id="a")
        before = durable.journal.last_seq
        with pytest.raises(UnknownTimerError):
            durable.update_timer("ghost", 5)
        with pytest.raises(TimerIntervalError):
            durable.update_timer("a", 0)
        assert durable.journal.last_seq == before


# ------------------------------------------------------------- I/O failures


def test_commit_io_error_loses_no_acknowledged_timer(tmp_path, monkeypatch):
    real_fsync = os.fsync
    fsyncs = []

    def second_fsync_fails(fd):
        fsyncs.append(fd)
        if len(fsyncs) == 2:
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr("repro.durability.journal.os.fsync", second_fsync_fails)
    durable = DurableScheduler(
        make_scheduler("scheme1"),
        tmp_path,
        sync="batch",
        batch_size=4,
        snapshot_every=None,
    )
    acknowledged = []
    for i in range(14):
        try:
            durable.start_timer(100, request_id=f"t{i}")
        except JournalWriteError:
            assert not durable.is_pending(f"t{i}")  # rejected, not applied
        else:
            acknowledged.append(f"t{i}")
    durable.close()
    assert len(acknowledged) == 13
    recovered = recover(tmp_path, lambda: make_scheduler("scheme1"))
    assert sorted(t.request_id for t in recovered.pending_timers()) == sorted(
        acknowledged
    )
    recovered.close()


def test_failed_snapshot_write_defers_without_failing_ops(tmp_path, monkeypatch):
    attempts = []

    def no_space(path, text, fsync=True):
        attempts.append(path)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("repro.durability.snapshot.atomic_write_text", no_space)
    durable = _plain(tmp_path, sync="never", snapshot_every=4)
    for i in range(8):
        durable.start_timer(100, request_id=f"t{i}")  # none of them raises
    assert durable.pending_count == 8
    # due at seq 4; the failure defers it to seq 8, not to every op
    assert len(attempts) == 2
    with pytest.raises(JournalWriteError, match="No space"):
        durable.snapshot()  # an explicit snapshot still reports it
    assert list_snapshots(tmp_path) == []

    monkeypatch.undo()  # the disk has room again
    for i in range(8, 12):
        durable.start_timer(100, request_id=f"t{i}")
    assert load_latest_snapshot(tmp_path).seq == 12
    durable.close()
    recovered = recover(tmp_path, lambda: make_scheduler("scheme1"))
    assert recovered.pending_count == 12
    recovered.close()
