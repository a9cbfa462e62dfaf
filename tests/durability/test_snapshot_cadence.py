"""Snapshot cadence: taken in proportion to the state they encode.

A snapshot of R rows falls due ``snapshot_every + R`` records after the
previous one, so snapshot work stays amortised O(1) per journaled record
while replay stays bounded by the snapshot recovery loads.
"""

from __future__ import annotations

import random

from repro.core.registry import make_scheduler
from repro.core.supervision import SupervisedScheduler
from repro.durability import service as service_module
from repro.durability.service import (
    DEFAULT_SNAPSHOT_EVERY,
    JOURNAL_NAME,
    DurableScheduler,
    recover,
)
from repro.durability.snapshot import list_snapshots, load_latest_snapshot


def _plain_stack():
    return make_scheduler("scheme6", table_size=256)


class _Storm:
    """Update-heavy re-arm traffic over a constant pending set."""

    def __init__(self, durable, pending: int, seed: int = 1987) -> None:
        self.rng = random.Random(seed)
        self.minted = 0
        self.live = [self._mint(durable) for _ in range(pending)]

    def _mint(self, durable) -> str:
        key = f"t{self.minted}"
        self.minted += 1
        durable.start_timer(self.rng.randint(2_000, 8_000), request_id=key)
        return key

    def run(self, durable, ops: int) -> None:
        """90% UPDATE, 10% STOP plus a START of a new id: one record each."""
        rng = self.rng
        for _ in range(ops):
            index = rng.randrange(len(self.live))
            if rng.random() < 0.9:
                durable.update_timer(self.live[index], rng.randint(2_000, 8_000))
            else:
                durable.stop_timer(self.live[index])
                self.live[index] = self._mint(durable)


def _rows(state: dict) -> int:
    """Rows a snapshot payload encodes: pending plus outcome history."""
    return sum(
        len(state[name])
        for name in ("pending", "survivors", "stopped", "shed_dropped", "quarantine")
    )


def test_snapshot_count_is_proportional_to_records_over_state(tmp_path, monkeypatch):
    encoded = []
    real_write = service_module.write_snapshot

    def counting_write(directory, state, seq, **kwargs):
        encoded.append(_rows(state))
        return real_write(directory, state, seq, **kwargs)

    monkeypatch.setattr(service_module, "write_snapshot", counting_write)
    durable = DurableScheduler(_plain_stack(), tmp_path, sync="never")
    storm = _Storm(durable, pending=1_000)
    storm.run(durable, 20_000)
    records = durable.journal.last_seq
    assert durable.pending_count == 1_000
    durable.close()

    every = DEFAULT_SNAPSHOT_EVERY
    assert records >= 20_000
    # A fixed every-256 cadence would take about records / 256 (~82).
    assert len(encoded) <= records / (every + 1_000) + 3, len(encoded)
    # Amortised: every snapshot but the last was paid for by at least as
    # many records as it encoded rows.
    assert sum(encoded[:-1]) <= records


def test_replay_stays_bounded_by_the_loaded_snapshot_across_crashes(tmp_path):
    durable = DurableScheduler(_plain_stack(), tmp_path, sync="never")
    storm = _Storm(durable, pending=600)
    storm.run(durable, 3_000)
    durable._journal._handle.close()  # power loss: no flush, no close

    first = recover(tmp_path, _plain_stack, sync="never")
    every = first.snapshot_every
    snap = load_latest_snapshot(tmp_path)
    rows = _rows(snap.state)
    assert first.recovery.snapshot_seq == snap.seq > 0
    assert first.recovery.replayed_records <= every + rows
    assert first.pending_count == 600

    # Run up to one record short of the due point, then die again.
    due = snap.seq + every + rows
    while first.journal.last_seq < due - 1:
        storm.run(first, 1)
    assert first.journal.last_seq == due - 1
    first._journal._handle.close()

    second = recover(tmp_path, _plain_stack, sync="never")
    assert second.recovery.snapshot_seq == snap.seq  # none fell due
    assert second.recovery.replayed_records == due - 1 - snap.seq
    assert second.recovery.replayed_records <= every + rows
    # The due point counts from the loaded snapshot, not from recovery.
    storm.run(second, 1)
    assert load_latest_snapshot(tmp_path).seq == due
    second.close()


def test_snapshots_never_alter_the_journal_bytes(tmp_path):
    blobs = {}
    for name, kwargs in (("default", {}), ("disabled", {"snapshot_every": None})):
        directory = tmp_path / name
        durable = DurableScheduler(
            SupervisedScheduler(make_scheduler("scheme7")),
            directory,
            sync="batch",
            batch_size=16,
            **kwargs,
        )
        storm = _Storm(durable, pending=300, seed=4242)
        for _ in range(30):
            storm.run(durable, 100)
            durable.advance(97)  # expiries journal supervisor outcomes
            storm.live = [key for key in storm.live if durable.is_pending(key)]
            while len(storm.live) < 300:
                storm.live.append(storm._mint(durable))
        durable.close()
        blobs[name] = (directory / JOURNAL_NAME).read_bytes()
    assert len(list_snapshots(tmp_path / "default")) >= 2
    assert list_snapshots(tmp_path / "disabled") == []
    assert blobs["default"].count(b'"op":"expire"')
    assert blobs["default"] == blobs["disabled"]
