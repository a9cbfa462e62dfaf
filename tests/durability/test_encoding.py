"""Journal byte layout: one encode per record, lines pinned byte-for-byte.

A journal written today must be byte-identical to one written by the
original two-pass encoder (CRC over the sorted, compact body, then the
whole record re-encoded with ``crc`` added), and the reader must check
the CRC against the line's own bytes.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_scheduler
from repro.core.supervision import RetryPolicy, SupervisedScheduler, origin_of
from repro.core.threadsafe import ThreadSafeScheduler
from repro.durability import journal as journal_module
from repro.durability.journal import (
    HOT_RECORD_FIELDS,
    Journal,
    JournalCorruptionError,
    JournalWriteError,
    decode_record,
    encode_record,
    read_journal,
)
from repro.durability.service import JOURNAL_NAME, DurableScheduler, recover
from repro.durability.snapshot import list_snapshots

#: (seq, op, data) -> the exact line the original two-pass encoder wrote.
RECORDS = [
    (
        1,
        "start",
        {"id": "dns-a", "interval": 30, "deadline": 30, "now": 0, "user_data": None},
    ),
    (
        2,
        "start",
        {
            "id": "réseau-✓",
            "interval": 5,
            "deadline": 5,
            "now": 0,
            "user_data": {"z": [1, 2, {"b": True, "a": None}], "a": "ü", "": {}},
            "auto": True,
        },
    ),
    (3, "update", {"id": "big", "interval": 2**40, "deadline": 2**64 + 1, "now": 7}),
    (
        4,
        "quarantine",
        {
            "id": "q",
            "attempts": 3,
            "reason": "max_attempts",
            "error": "RuntimeError('boom')",
            "at": 12,
            "deadline": 9,
        },
    ),
    (5, "advance", {"target": 10**20}),
    (
        6,
        "start",
        {"id": "f", "user_data": [0.1, -2.5e-300, 1e300, 'tab\t"quote"\\', ""]},
    ),
    (7, "sync", {"wall": -3}),
    (2**53 + 1, "stop", {"id": "", "now": 0}),
]

EXPECTED_LINES = [
    '{"crc":3396589208,"data":{"deadline":30,"id":"dns-a","interval":30,"now":0,"user_data":null},"op":"start","seq":1}',
    '{"crc":2985555185,"data":{"auto":true,"deadline":5,"id":"r\\u00e9seau-\\u2713","interval":5,"now":0,"user_data":{"":{},"a":"\\u00fc","z":[1,2,{"a":null,"b":true}]}},"op":"start","seq":2}',
    '{"crc":3669165307,"data":{"deadline":18446744073709551617,"id":"big","interval":1099511627776,"now":7},"op":"update","seq":3}',
    '{"crc":249657319,"data":{"at":12,"attempts":3,"deadline":9,"error":"RuntimeError(\'boom\')","id":"q","reason":"max_attempts"},"op":"quarantine","seq":4}',
    '{"crc":3084878567,"data":{"target":100000000000000000000},"op":"advance","seq":5}',
    '{"crc":3802484172,"data":{"id":"f","user_data":[0.1,-2.5e-300,1e+300,"tab\\t\\"quote\\"\\\\",""]},"op":"start","seq":6}',
    '{"crc":3781214138,"data":{"wall":-3},"op":"sync","seq":7}',
    '{"crc":7999536,"data":{"id":"","now":0},"op":"stop","seq":9007199254740993}',
]

#: sha256 of the journal :func:`journal_stream` leaves behind (138
#: records, 13,916 bytes), as written by the original two-pass encoder.
STREAM_SHA256 = "0f3cebd33ef0624a79a1217fcf400e74c893f75d8ab025a0a769b9c00645b642"


def _two_pass(seq, op, data):
    """The original encoder: CRC the body, then re-encode with ``crc``."""
    body = json.dumps(
        {"seq": seq, "op": op, "data": data}, sort_keys=True, separators=(",", ":")
    )
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return json.dumps(
        {"seq": seq, "op": op, "data": data, "crc": crc},
        sort_keys=True,
        separators=(",", ":"),
    )


@pytest.mark.parametrize("record, expected", list(zip(RECORDS, EXPECTED_LINES)))
def test_encode_record_matches_the_two_pass_bytes(record, expected):
    line = encode_record(*record)
    assert line == expected
    assert line == _two_pass(*record)
    assert decode_record(line) == record
    assert decode_record(line.encode("utf-8")) == record


def journal_stream(directory):
    """A small seeded start/update/stop/advance stream with retries, a
    quarantine and automatic snapshots, through the production stack."""
    calls = {}

    def flaky(timer):
        key = origin_of(timer.request_id)
        calls[key] = calls.get(key, 0) + 1
        if key.endswith("q") or (key.endswith("3") and calls[key] == 1):
            raise RuntimeError(f"boom {key}")

    stack = SupervisedScheduler(
        ThreadSafeScheduler(make_scheduler("scheme7")),
        retry_policy=RetryPolicy(max_attempts=3, base_backoff=2),
    )
    durable = DurableScheduler(
        stack, directory, sync="batch", batch_size=8, snapshot_every=40
    )
    live = []
    for step in range(120):
        if step % 4 == 0 or not live:
            key = f"t{step}" + ("q" if step % 20 == 8 else "")
            durable.start_timer(
                3 + step % 17,
                request_id=key,
                callback=flaky,
                user_data={"step": step, "name": f"ü{step}", "w": [step * 0.5, None]},
            )
            live.append(key)
        elif step % 4 == 1:
            key = live[step % len(live)]
            if durable.is_pending(key):
                durable.update_timer(key, 2 + step % 11)
        elif step % 4 == 2 and step % 3 == 0:
            key = live.pop(0)
            if durable.is_pending(key):
                durable.stop_timer(key)
        else:
            durable.advance(1 + step % 3)
    durable.advance(60)
    durable.close()
    return durable


def test_journal_stream_bytes_match_the_pinned_digest(tmp_path):
    durable = journal_stream(tmp_path)
    blob = (tmp_path / JOURNAL_NAME).read_bytes()
    ops = {op for _, op, _ in read_journal(tmp_path / JOURNAL_NAME).records}
    # the stream exercises every client op and supervision outcome
    assert {"start", "update", "stop", "advance", "expire", "rearm", "quarantine"} <= ops
    assert list_snapshots(tmp_path)
    assert durable.journal.last_seq == blob.count(b"\n")
    assert hashlib.sha256(blob).hexdigest() == STREAM_SHA256


def test_journal_stream_recovers_from_its_snapshot(tmp_path):
    journal_stream(tmp_path)
    recovered = recover(
        tmp_path,
        lambda: SupervisedScheduler(ThreadSafeScheduler(make_scheduler("scheme7"))),
    )
    assert recovered.recovery.snapshot_seq > 0
    assert recovered.recovery.rejected_snapshots == []
    reduced = read_journal(tmp_path / JOURNAL_NAME)
    assert recovered.journal.last_seq == reduced.last_seq
    recovered.close()


# ------------------------------------------------------------------ reader


def test_decode_rejects_a_line_without_the_crc_prefix_as_malformed():
    line = encode_record(1, "start", {"id": "a"})
    obj = json.loads(line)
    reordered = json.dumps(
        {"seq": obj["seq"], "op": obj["op"], "data": obj["data"], "crc": obj["crc"]},
        separators=(",", ":"),
    )
    for raw in (reordered, " " + line, '{"CRC":1,' + line[1:], '{"crc":x,"seq":1}'):
        with pytest.raises(JournalCorruptionError, match="malformed"):
            decode_record(raw)


def test_decode_rejects_a_respaced_line_as_a_crc_mismatch():
    line = encode_record(1, "start", {"id": "a", "interval": 9})
    respaced = json.dumps(json.loads(line))  # same record, default separators
    assert respaced != line and respaced.startswith('{"crc": ')
    with pytest.raises(JournalCorruptionError, match="CRC mismatch"):
        decode_record(respaced)


def test_decode_rejects_a_valid_crc_over_a_malformed_body():
    body = '{"data":[],"op":"start","seq":1}'
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    with pytest.raises(JournalCorruptionError, match="malformed"):
        decode_record('{"crc":%d,%s' % (crc, body[1:]))


def test_stale_offset_on_a_record_boundary_falls_back_to_a_full_scan(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        offsets = []
        for key in ("a", "b", "c"):
            journal.append("start", {"id": key})
            offsets.append(journal._length)
    # lands cleanly on record 3 although the snapshot claims seq 1
    read = read_journal(path, start_after=1, offset=offsets[1])
    assert [data["id"] for _, _, data in read.records] == ["b", "c"]
    assert read.last_seq == 3


# ----------------------------------------------------------- strict JSON


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_rejected_before_the_file(tmp_path, value):
    path = tmp_path / "j.jsonl"
    with Journal(path, sync="always") as journal:
        journal.append("start", {"id": "a"})
        with pytest.raises(JournalWriteError, match="serialisable"):
            journal.append("start", {"id": "b", "user_data": {"x": [value]}})
        assert journal.last_seq == 1
    for line in path.read_text(encoding="utf-8").splitlines():
        json.loads(line, parse_constant=pytest.fail)  # strict JSON only
    assert read_journal(path).last_seq == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_user_data_leaves_the_stack_untouched(tmp_path, value):
    durable = DurableScheduler(make_scheduler("scheme6"), tmp_path, sync="always")
    with pytest.raises(JournalWriteError):
        durable.start_timer(5, request_id="a", user_data=value)
    assert not durable.is_pending("a")
    assert durable.pending_count == 0
    assert durable.journal.last_seq == 0
    durable.start_timer(5, request_id="a", user_data=0.5)  # the id is still free
    durable.close()


# ------------------------------------------------------ hot-record templates


class Priority(enum.IntEnum):
    HIGH = 7


#: Exact ints of any sign and size, and strs with non-ASCII characters
#: and lone surrogates: the values a hot record's template formats.
PLAIN = st.one_of(
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**63)),
    st.text(st.characters(exclude_categories=()), max_size=12),
    st.sampled_from(["", "réseau-✓", "\ud800", "a\udfffb", "😀", 'q"\\\n']),
)

#: Values that must fall back to ``json.dumps``: none is an exact int,
#: an exact str or ``None``.
NOT_PLAIN = st.one_of(
    st.booleans(),
    st.just(Priority.HIGH),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=3)), max_size=3),
    st.dictionaries(
        st.text(max_size=3),
        st.one_of(st.none(), st.booleans(), st.lists(st.integers(), max_size=2)),
        max_size=3,
    ),
)


def _plain_record(data, op):
    """A record of ``op``'s hot shape, its keys in a random order."""
    fields = HOT_RECORD_FIELDS[op]
    values = {
        name: data.draw(st.one_of(st.none(), PLAIN) if name == "user_data" else PLAIN)
        for name in fields
    }
    return {name: values[name] for name in data.draw(st.permutations(fields))}


def _encode_without_json_dumps(seq, op, record):
    with mock.patch.object(
        journal_module.json, "dumps", side_effect=AssertionError("fell back")
    ):
        return encode_record(seq, op, record)


def _encode_counting_json_dumps(seq, op, record):
    with mock.patch.object(
        journal_module.json, "dumps", wraps=json.dumps
    ) as dumps:
        line = encode_record(seq, op, record)
    assert dumps.call_count == 1
    return line


SEQS = st.integers(min_value=1, max_value=2**64)
HOT_OPS = st.sampled_from(sorted(HOT_RECORD_FIELDS))


@settings(max_examples=300, deadline=None)
@given(op=HOT_OPS, seq=SEQS, data=st.data())
def test_hot_records_are_formatted_to_the_json_dumps_bytes(op, seq, data):
    record = _plain_record(data, op)
    expected = _two_pass(seq, op, record)
    line = _encode_without_json_dumps(seq, op, record)
    assert line == expected
    assert decode_record(line) == (seq, op, record)


@settings(max_examples=300, deadline=None)
@given(op=HOT_OPS, seq=SEQS, data=st.data())
def test_a_record_with_a_value_that_is_not_plain_falls_back(op, seq, data):
    record = _plain_record(data, op)
    name = data.draw(st.sampled_from(HOT_RECORD_FIELDS[op]))
    record[name] = data.draw(NOT_PLAIN)
    assert _encode_counting_json_dumps(seq, op, record) == _two_pass(seq, op, record)


@settings(max_examples=200, deadline=None)
@given(op=HOT_OPS, seq=SEQS, data=st.data())
def test_a_record_with_another_key_set_falls_back(op, seq, data):
    record = _plain_record(data, op)
    if data.draw(st.booleans()):
        del record[data.draw(st.sampled_from(HOT_RECORD_FIELDS[op]))]
    else:
        extra = data.draw(
            st.text(max_size=8).filter(lambda key: key not in record)
        )
        record[extra] = data.draw(st.one_of(st.booleans(), PLAIN))
    assert _encode_counting_json_dumps(seq, op, record) == _two_pass(seq, op, record)


def test_an_auto_start_falls_back():
    record = dict(RECORDS[0][2], auto=True)
    assert _encode_counting_json_dumps(9, "start", record) == _two_pass(
        9, "start", record
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("op", sorted(HOT_RECORD_FIELDS))
def test_non_finite_floats_in_a_hot_record_still_raise(op, value):
    fields = HOT_RECORD_FIELDS[op]
    for name in fields:
        record = {field: 1 for field in fields}
        record[name] = value
        with pytest.raises(JournalWriteError, match="serialisable"):
            encode_record(1, op, record)


def test_an_int_too_long_to_print_fails_as_json_dumps_does():
    record = {"target": 10**5000}
    try:
        expected = _two_pass(1, "advance", record)
    except ValueError:  # interpreters that cap int-to-str conversion
        with pytest.raises(JournalWriteError):
            encode_record(1, "advance", record)
    else:
        assert encode_record(1, "advance", record) == expected
