"""The WAL layer: CRC framing, group commit, torn tails, crash end states."""

from __future__ import annotations

import errno
import json
import os

import pytest

from repro.durability.journal import (
    Journal,
    JournalCorruptionError,
    JournalWriteError,
    decode_record,
    encode_record,
    read_journal,
    truncate_to,
)
from repro.core.errors import TimerConfigurationError
from repro.faults.crash import CrashPoint, SimulatedCrash


def test_record_round_trip():
    line = encode_record(3, "start", {"id": "t1", "interval": 10})
    assert decode_record(line) == (3, "start", {"id": "t1", "interval": 10})


def test_crc_detects_a_flipped_byte():
    line = encode_record(1, "start", {"id": "t1"})
    damaged = line.replace("t1", "t2")  # payload changed, crc not
    with pytest.raises(JournalCorruptionError, match="CRC"):
        decode_record(damaged)


def test_decode_rejects_malformed_shapes():
    for raw in ("[]", '{"seq": "x"}', "not json", '{"seq": 1, "op": 2}'):
        with pytest.raises(JournalCorruptionError):
            decode_record(raw)


def test_unserialisable_data_is_rejected_before_touching_the_file(tmp_path):
    with Journal(tmp_path / "j.jsonl", sync="always") as journal:
        with pytest.raises(JournalWriteError, match="serialisable"):
            journal.append("start", {"id": object()})
        assert journal.last_seq == 0
    assert read_journal(tmp_path / "j.jsonl").records == []


def test_sequences_are_contiguous_from_one(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        seqs = [journal.append("start", {"id": f"t{i}"}) for i in range(5)]
    assert seqs == [1, 2, 3, 4, 5]
    read = read_journal(path)
    assert [seq for seq, _, _ in read.records] == seqs
    assert read.last_seq == 5
    assert read.skipped == []


def test_bad_sync_mode_and_batch_size_are_configuration_errors(tmp_path):
    with pytest.raises(TimerConfigurationError):
        Journal(tmp_path / "j.jsonl", sync="sometimes")
    with pytest.raises(TimerConfigurationError):
        Journal(tmp_path / "j.jsonl", sync="batch", batch_size=0)


def test_group_commit_amortises_fsyncs(tmp_path):
    with Journal(tmp_path / "j.jsonl", sync="batch", batch_size=8) as journal:
        for i in range(24):
            journal.append("start", {"id": f"t{i}"})
        assert journal.fsyncs == 3  # one per full batch
        assert journal.unsynced == 0
        journal.append("start", {"id": "tail"})
        assert journal.unsynced == 1
        journal.flush()
        assert journal.unsynced == 0
        assert journal.fsyncs == 4
    assert len(read_journal(tmp_path / "j.jsonl").records) == 25


def test_always_mode_fsyncs_every_append(tmp_path):
    with Journal(tmp_path / "j.jsonl", sync="always") as journal:
        for i in range(4):
            journal.append("start", {"id": f"t{i}"})
        assert journal.fsyncs == 4


def test_torn_tail_is_skipped_and_truncated(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        journal.append("start", {"id": "a"})
        journal.append("start", {"id": "b"})
    # tear the last record in half (no trailing newline)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - len(blob.splitlines()[-1]) // 2 - 1])
    read = read_journal(path)
    assert [data["id"] for _, _, data in read.records] == ["a"]
    assert read.last_seq == 1
    assert read.skipped and "torn" in read.skipped[0][1]
    removed = truncate_to(path, read.valid_length)
    assert removed > 0
    # appending after truncation continues cleanly at the next seq
    with Journal(path, sync="always", start_seq=read.last_seq) as journal:
        journal.append("start", {"id": "c"})
    seqs = [seq for seq, _, _ in read_journal(path).records]
    assert seqs == [1, 2]


def test_corrupt_trailing_record_is_skipped(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        journal.append("start", {"id": "a"})
        journal.append("start", {"id": "b"})
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = b"#" * 20 + b"\n"
    path.write_bytes(b"".join(lines))
    read = read_journal(path)
    assert [data["id"] for _, _, data in read.records] == ["a"]
    assert read.skipped


def test_mid_journal_corruption_refuses_to_replay(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        for key in ("a", "b", "c"):
            journal.append("start", {"id": key})
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"#" * 20 + b"\n"  # damage the middle, keep a valid tail
    path.write_bytes(b"".join(lines))
    with pytest.raises(JournalCorruptionError, match="mid-journal"):
        read_journal(path)


def test_offset_seek_reads_only_the_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        journal.append("start", {"id": "a"})
        offset = journal._length
        journal.append("start", {"id": "b"})
    read = read_journal(path, start_after=1, offset=offset)
    assert [data["id"] for _, _, data in read.records] == ["b"]
    assert read.last_seq == 2


def test_stale_offset_falls_back_to_a_full_scan(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        for key in ("a", "b", "c"):
            journal.append("start", {"id": key})
    # an offset landing mid-record cannot decode: re-scan from the top
    read = read_journal(path, start_after=1, offset=7)
    assert [data["id"] for _, _, data in read.records] == ["b", "c"]
    assert read.last_seq == 3


def test_missing_file_reads_empty(tmp_path):
    read = read_journal(tmp_path / "absent.jsonl")
    assert read.records == [] and read.last_seq == 0


def test_simulated_crash_is_not_an_exception_subclass():
    # so no library `except Exception` can swallow a planned death
    assert issubclass(SimulatedCrash, BaseException)
    assert not issubclass(SimulatedCrash, Exception)


@pytest.mark.parametrize("mode", ["before", "torn", "corrupt", "after"])
def test_crash_modes_leave_the_documented_end_state(tmp_path, mode):
    path = tmp_path / "j.jsonl"
    journal = Journal(path, sync="always", crash=CrashPoint(3, mode))
    journal.append("start", {"id": "a"})
    journal.append("start", {"id": "b"})
    with pytest.raises(SimulatedCrash):
        journal.append("start", {"id": "c"})
    read = read_journal(path)
    survivors = [data["id"] for _, _, data in read.records]
    if mode == "after":
        # fully durable, merely unacknowledged: replay sees the record
        # and the client's idempotent re-issue will be skipped.
        assert survivors == ["a", "b", "c"]
        assert read.last_seq == 3
    else:
        assert survivors == ["a", "b"]
        assert read.last_seq == 2
        if mode == "before":
            assert read.skipped == []
        else:
            assert read.skipped  # damaged line detected, not replayed


def test_crash_before_loses_the_unsynced_batch(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(
        path, sync="batch", batch_size=100, crash=CrashPoint(3, "before")
    )
    journal.append("start", {"id": "a"})
    journal.append("start", {"id": "b"})
    with pytest.raises(SimulatedCrash):
        journal.append("start", {"id": "c"})
    # nothing was ever committed: the acked-but-unsynced window died too
    assert read_journal(path).records == []


def test_crash_torn_flushes_the_buffer_ahead_of_the_torn_line(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(
        path, sync="batch", batch_size=100, crash=CrashPoint(3, "torn")
    )
    journal.append("start", {"id": "a"})
    journal.append("start", {"id": "b"})
    with pytest.raises(SimulatedCrash):
        journal.append("start", {"id": "c"})
    read = read_journal(path)
    assert [data["id"] for _, _, data in read.records] == ["a", "b"]
    assert read.skipped and "torn" in read.skipped[0][1]


def test_injected_fsync_failure_rejects_cleanly(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(path, sync="always", fsync_fail_at_seq=2)
    journal.append("start", {"id": "a"})
    size_before = path.stat().st_size
    with pytest.raises(JournalWriteError, match="fsync"):
        journal.append("start", {"id": "b"})
    # the unacknowledged bytes were rolled back, not left for replay
    assert path.stat().st_size == size_before
    assert journal.last_seq == 1
    # the failure is one-shot: the retry lands with the same seq slot free
    assert journal.append("start", {"id": "b"}) == 2
    assert [d["id"] for _, _, d in read_journal(path).records] == ["a", "b"]


def test_fsync_failure_in_batch_keeps_older_buffered_records(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(path, sync="batch", batch_size=2, fsync_fail_at_seq=2)
    journal.append("start", {"id": "a"})
    with pytest.raises(JournalWriteError):
        journal.append("start", {"id": "b"})  # fills the batch -> commit fails
    assert journal.unsynced == 1  # "a" stays buffered; only "b" was dropped
    journal.append("start", {"id": "b2"})
    journal.flush()
    assert [d["id"] for _, _, d in read_journal(path).records] == ["a", "b2"]


def _fail_next_fsync(monkeypatch):
    """Make the next ``os.fsync`` the journal issues fail with ``EIO``."""
    real_fsync = os.fsync
    failed = []

    def flaky(fd):
        if not failed:
            failed.append(fd)
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr("repro.durability.journal.os.fsync", flaky)


def test_os_fsync_failure_rejects_cleanly(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    journal = Journal(path, sync="always")
    journal.append("start", {"id": "a"})
    size_before = path.stat().st_size
    _fail_next_fsync(monkeypatch)
    with pytest.raises(JournalWriteError, match="Input/output") as raised:
        journal.append("start", {"id": "b"})
    assert isinstance(raised.value.__cause__, OSError)
    # the unacknowledged bytes were rolled back, not left for replay
    assert path.stat().st_size == size_before
    assert journal.last_seq == 1
    assert journal.append("start", {"id": "b"}) == 2
    assert [d["id"] for _, _, d in read_journal(path).records] == ["a", "b"]


def test_os_fsync_failure_in_batch_keeps_older_buffered_records(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    journal = Journal(path, sync="batch", batch_size=2)
    journal.append("start", {"id": "a"})
    _fail_next_fsync(monkeypatch)
    with pytest.raises(JournalWriteError):
        journal.append("start", {"id": "b"})  # fills the batch -> commit fails
    assert journal.unsynced == 1  # "a" stays buffered; only "b" was dropped
    journal.append("start", {"id": "b2"})
    journal.flush()
    assert [d["id"] for _, _, d in read_journal(path).records] == ["a", "b2"]


def test_short_write_is_rolled_back(tmp_path):
    class HalfWrites:
        """A disk that fills halfway through the group."""

        def __init__(self, raw):
            self.raw = raw

        def write(self, blob):
            return self.raw.write(blob[: len(blob) // 2])

        def __getattr__(self, name):
            return getattr(self.raw, name)

    path = tmp_path / "j.jsonl"
    journal = Journal(path, sync="batch", batch_size=3)
    journal.append("start", {"id": "a"})
    journal.flush()
    size_before = path.stat().st_size
    journal.append("start", {"id": "b"})
    raw, journal._handle = journal._handle, HalfWrites(journal._handle)
    with pytest.raises(JournalWriteError, match="short"):
        journal.flush()
    assert path.stat().st_size == size_before  # no half record left behind
    journal._handle = raw
    assert journal.unsynced == 1  # "b" stays buffered for the next commit
    journal.append("start", {"id": "c"})
    journal.close()
    assert [d["id"] for _, _, d in read_journal(path).records] == ["a", "b", "c"]


def test_journal_lines_are_plain_jsonl(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        journal.append("start", {"id": "a", "interval": 9})
    obj = json.loads(path.read_text().splitlines()[0])
    assert set(obj) == {"seq", "op", "data", "crc"}
