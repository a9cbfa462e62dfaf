"""Atomic snapshots: round trip, pruning, and rejection of damage."""

from __future__ import annotations

import errno
import json
import pathlib
import zlib

import pytest

from repro.core.registry import make_scheduler
from repro.durability.journal import JournalWriteError
from repro.durability.service import DurableScheduler, recover
from repro.durability.snapshot import (
    list_snapshots,
    load_latest_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.durability.state import DurableState
from repro.io import atomic_write_json


def _state(n: int) -> dict:
    state = DurableState()
    state.apply(1, "start", {"id": f"t{n}", "interval": 5, "deadline": 5, "now": 0})
    return state.to_dict()


def test_round_trip(tmp_path):
    path = write_snapshot(tmp_path, _state(1), seq=12, journal_offset=340)
    assert path == snapshot_path(tmp_path, 12)
    loaded = load_latest_snapshot(tmp_path)
    assert loaded is not None
    assert loaded.seq == 12
    assert loaded.journal_offset == 340
    assert "t1" in loaded.state["pending"]
    assert loaded.rejected == []


def test_latest_wins_and_keep_prunes(tmp_path):
    for seq in (5, 10, 15, 20):
        write_snapshot(tmp_path, _state(seq), seq=seq, journal_offset=0, keep=2)
    names = [p.name for p in list_snapshots(tmp_path)]
    assert names == ["snapshot-000000000015.json", "snapshot-000000000020.json"]
    assert load_latest_snapshot(tmp_path).seq == 20


def test_prune_failure_keeps_the_new_snapshot(tmp_path, monkeypatch):
    def denied(self, missing_ok=False):
        raise PermissionError(errno.EACCES, "Permission denied", str(self))

    write_snapshot(tmp_path, _state(1), seq=5, journal_offset=0, keep=1)
    monkeypatch.setattr(pathlib.Path, "unlink", denied)
    newest = write_snapshot(tmp_path, _state(2), seq=9, journal_offset=0, keep=1)
    assert newest == snapshot_path(tmp_path, 9)
    assert len(list_snapshots(tmp_path)) == 2  # the stale one stays behind
    assert load_latest_snapshot(tmp_path).seq == 9


def test_corrupt_newest_falls_back_to_older(tmp_path):
    write_snapshot(tmp_path, _state(1), seq=5, journal_offset=0)
    newest = write_snapshot(tmp_path, _state(2), seq=9, journal_offset=0)
    newest.write_text(newest.read_text().replace('"crc"', '"cRc"'))
    loaded = load_latest_snapshot(tmp_path)
    assert loaded.seq == 5
    assert loaded.rejected and loaded.rejected[0][0] == newest.name


def test_checksum_rejects_payload_tampering(tmp_path):
    path = write_snapshot(tmp_path, _state(1), seq=5, journal_offset=0)
    doc = json.loads(path.read_text())
    doc["seq"] = 6  # stored crc no longer matches
    path.write_text(json.dumps(doc))
    assert load_latest_snapshot(tmp_path) is None


def test_empty_directory_loads_none(tmp_path):
    assert load_latest_snapshot(tmp_path) is None
    assert list_snapshots(tmp_path) == []


def test_no_tmp_files_left_behind(tmp_path):
    write_snapshot(tmp_path, _state(1), seq=3, journal_offset=0)
    leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
    assert leftovers == []


# ------------------------------------------------------ layouts and CRC


def _rich_state() -> dict:
    state = DurableState()
    state.apply(1, "start", {
        "id": "réseau", "interval": 9, "deadline": 9, "now": 0,
        "user_data": {"z": [1, None, 0.25], "a": "ü", "big": 2**70},
    })
    state.apply(2, "start", {"id": "b", "interval": 4, "deadline": 4, "now": 0})
    state.apply(3, "expire", {"id": "b", "attempts": 1, "now": 4})
    state.apply(4, "sync", {"wall": 4})
    return state.to_dict()


def _old_crc(seq, journal_offset, state) -> int:
    body = json.dumps(
        {"seq": seq, "journal_offset": journal_offset, "state": state},
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF


def _write_old_layout(directory, state, seq, journal_offset):
    """The original writer: default separators, insertion-ordered state."""
    payload = {
        "format": 1,
        "seq": seq,
        "journal_offset": journal_offset,
        "state": state,
        "crc": _old_crc(seq, journal_offset, state),
    }
    return atomic_write_json(snapshot_path(directory, seq), payload, indent=None)


def test_old_layout_snapshot_still_loads(tmp_path):
    state = _rich_state()
    path = _write_old_layout(tmp_path, state, seq=4, journal_offset=321)
    assert '"format": 1, "seq": 4' in path.read_text()  # really the old layout
    loaded = load_latest_snapshot(tmp_path)
    assert loaded is not None and loaded.rejected == []
    assert (loaded.seq, loaded.journal_offset) == (4, 321)
    assert loaded.state == json.loads(json.dumps(state))


def test_new_layout_is_the_header_then_the_canonical_state(tmp_path):
    state = _rich_state()
    text = write_snapshot(tmp_path, state, seq=4, journal_offset=321).read_text()
    header = '{"format":1,"seq":4,"journal_offset":321,"crc":%d,"state":' % (
        _old_crc(4, 321, state)
    )
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    assert text == header + canonical + "}\n"
    loaded = load_latest_snapshot(tmp_path)
    assert loaded.state == json.loads(canonical)


def test_old_and_new_layouts_recover_the_same_service(tmp_path):
    def rebuilt():
        return make_scheduler("scheme6")

    with DurableScheduler(
        rebuilt(), tmp_path, sync="always", snapshot_every=None
    ) as durable:
        for i in range(6):
            durable.start_timer(3 + i, request_id=f"t{i}", user_data={"i": i})
        durable.advance(5)
        durable.snapshot()
        durable.update_timer("t5", 4)
    new = load_latest_snapshot(tmp_path)
    recovered = recover(tmp_path, rebuilt)
    expected = json.dumps(recovered.state.to_dict(), sort_keys=True)
    pending = sorted(t.request_id for t in recovered.pending_timers())
    recovered.close()

    new.path.unlink()
    _write_old_layout(tmp_path, new.state, new.seq, new.journal_offset)
    old = recover(tmp_path, rebuilt)
    assert old.recovery.snapshot_seq == new.seq
    assert old.recovery.rejected_snapshots == []
    assert json.dumps(old.state.to_dict(), sort_keys=True) == expected
    assert sorted(t.request_id for t in old.pending_timers()) == pending
    old.close()


@pytest.mark.parametrize("layout", ["old", "new"])
@pytest.mark.parametrize(
    "tamper",
    [
        lambda doc: doc.update(seq=doc["seq"] + 1),
        lambda doc: doc.update(seq=float(doc["seq"])),
        lambda doc: doc.update(journal_offset=doc["journal_offset"] - 1),
        lambda doc: doc["state"].update(now=doc["state"]["now"] + 1),
        lambda doc: doc["state"]["pending"]["réseau"]["user_data"].update(big=2**70 + 1),
    ],
    ids=["seq", "seq-float", "offset", "state", "user-data"],
)
def test_every_crc_check_rejects_tampering(tmp_path, layout, tamper):
    state = _rich_state()
    if layout == "old":
        path = _write_old_layout(tmp_path, state, seq=4, journal_offset=321)
    else:
        path = write_snapshot(tmp_path, state, seq=4, journal_offset=321)
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    assert load_latest_snapshot(tmp_path) is None


def test_non_finite_state_is_rejected_before_the_file(tmp_path):
    state = _rich_state()
    state["pending"]["réseau"]["user_data"]["z"][2] = float("nan")
    with pytest.raises(JournalWriteError, match="serialisable"):
        write_snapshot(tmp_path, state, seq=4, journal_offset=0)
    assert list(tmp_path.iterdir()) == []
