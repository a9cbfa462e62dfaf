"""Append-only JSONL write-ahead log for the timer service.

One journal record is one line::

    {"crc":3735928559,"data":{...},"op":"start","seq":17}

``seq`` numbers are monotone and contiguous from 1; ``crc`` is the
CRC-32 of the line's bytes after the ``crc`` field (brace restored), so
a torn or bit-rotted line is detected rather than replayed. The record
schema per ``op`` is documented in ``docs/durability.md``.

Durability is a dial (:data:`SYNC_MODES`):

``"always"``
    Every append is written and ``fsync``'d before it returns — the ack
    implies durability; nothing acknowledged is ever lost.
``"batch"``
    Group commit: appends accumulate in an in-process buffer and are
    written + ``fsync``'d together every ``batch_size`` records (or on
    :meth:`Journal.flush`). One fsync amortises over the batch; the
    price is a bounded loss window — up to ``batch_size - 1``
    acknowledged records can die with the process. The recovery
    protocol (``docs/durability.md``) is built so clients re-issue that
    lost tail idempotently.
``"never"``
    One unbuffered write per record, no fsync — the fast lane for
    benchmarks and tests that do not model power loss.

Crash faults plug in at this layer: a
:class:`~repro.faults.crash.CrashPoint` kills the append that produces
its sequence number, leaving the file in one of the four end states a
real power loss can (fully missing, torn, corrupt, or fully durable)
and raising :class:`~repro.faults.crash.SimulatedCrash`.

:func:`read_journal` is the inverse: it validates CRC and sequence
contiguity, **skips only trailing** undecodable records (the torn tail
a crash legitimately leaves), and refuses — with
:class:`JournalCorruptionError` — to skip damage in the middle of the
log, which would silently drop acknowledged history.
"""

from __future__ import annotations

import errno
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import TimerConfigurationError, TimerError
from repro.faults.crash import CrashPoint, SimulatedCrash

#: Recognised fsync disciplines (see module docstring).
SYNC_MODES = ("always", "batch", "never")

#: Default group-commit batch size for ``sync="batch"``.
DEFAULT_BATCH_SIZE = 64


class JournalError(TimerError):
    """Base class for journal failures."""


class JournalCorruptionError(JournalError):
    """The journal is damaged somewhere replay cannot safely skip."""


class JournalWriteError(JournalError):
    """An append could not be made durable; the operation was not applied."""


#: The records the service writes on every client op and tick: op ->
#: sorted field names. A record with exactly these fields, each a plain
#: int or str (``user_data`` may also be ``None``), is formatted from a
#: template (see :func:`encode_record`).
HOT_RECORD_FIELDS: Dict[str, Tuple[str, ...]] = {
    "start": ("deadline", "id", "interval", "now", "user_data"),
    "stop": ("id", "now"),
    "update": ("deadline", "id", "interval", "now"),
    "advance": ("target",),
    "expire": ("attempts", "deadline", "id", "now"),
}

#: op -> (fields, the sorted compact record after its opening brace,
#: with one ``%s`` per field and ``%d`` for ``seq``).
_TEMPLATES = {
    op: (
        fields,
        '"data":{'
        + ",".join(f'"{name}":%s' for name in fields)
        + f'}},"op":"{op}","seq":%d}}',
    )
    for op, fields in HOT_RECORD_FIELDS.items()
}

_OPEN_CRC = zlib.crc32(b"{")
_quote = json.encoder.encode_basestring_ascii
_MISSING = object()


def encode_record(seq: int, op: str, data: Dict[str, object]) -> str:
    """One journal line (no trailing newline) with its CRC-32 stamped in.

    The body is encoded once; splicing ``"crc"`` in as its first key
    gives the sorted, compact encoding of the whole record. A hot record
    (:data:`HOT_RECORD_FIELDS`) whose values are all of type exactly
    ``int`` or ``str`` is formatted from its template to the bytes
    ``json.dumps`` would write: ints in decimal, strs through its
    ASCII-escaping quoter. Everything else — a bool, an ``IntEnum``, a
    float, a container, any other key set or op — goes through
    ``json.dumps``.
    """
    template = _TEMPLATES.get(op)
    tail = None
    if template is not None and len(data) == len(template[0]) and type(seq) is int:
        fields, text = template
        values = []
        for name in fields:
            value = data.get(name, _MISSING)
            kind = type(value)
            if kind is int:
                values.append(value)
            elif kind is str:
                values.append(_quote(value))
            elif value is None and name == "user_data":
                values.append("null")
            else:
                break
        else:
            values.append(seq)
            try:
                tail = text % tuple(values)
            except ValueError:
                pass  # an int past str()'s digit limit: json.dumps reports it
    if tail is None:
        try:
            body = json.dumps(
                {"seq": seq, "op": op, "data": data},
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
            )
        except (TypeError, ValueError) as exc:
            raise JournalWriteError(
                f"journal record {op!r} is not JSON-serialisable: {exc}"
            ) from exc
        tail = body[1:]
    crc = zlib.crc32(tail.encode("utf-8"), _OPEN_CRC)
    return '{"crc":%d,%s' % (crc, tail)


def decode_record(raw: Union[str, bytes]) -> Tuple[int, str, Dict[str, object]]:
    """CRC-check, then parse, one line; raises :class:`JournalCorruptionError`.

    The CRC covers the line's own bytes after the ``crc`` field (opening
    brace restored), so a record is never re-encoded to be checked.
    """
    if isinstance(raw, str):
        raw = raw.encode("utf-8")
    head, _, tail = raw.partition(b",")
    try:
        stored = int(head[7:] if head.startswith(b'{"crc":') else b"")
    except ValueError:
        raise JournalCorruptionError(f"malformed record: {raw[:80]!r}") from None
    body = b"{" + tail
    expected = zlib.crc32(body) & 0xFFFFFFFF
    if stored != expected:
        raise JournalCorruptionError(
            f"CRC mismatch: stored {stored}, computed {expected}"
        )
    try:
        obj = json.loads(body)
    except ValueError as exc:
        raise JournalCorruptionError(f"unparseable record: {exc}") from exc
    if (
        not isinstance(obj, dict)
        or not isinstance(obj.get("seq"), int)
        or isinstance(obj.get("seq"), bool)
        or not isinstance(obj.get("op"), str)
        or not isinstance(obj.get("data"), dict)
    ):
        raise JournalCorruptionError(f"malformed record: {raw[:80]!r}")
    return obj["seq"], obj["op"], obj["data"]


class Journal:
    """The append-only WAL (see module docstring).

    ``start_seq`` continues an existing journal after recovery — the
    next appended record gets ``start_seq + 1``. The recovery path
    truncates any torn tail bytes *before* reopening, so appends never
    concatenate onto a half-written line (see :func:`truncate_to`).
    """

    def __init__(
        self,
        path: Union[str, Path],
        sync: str = "batch",
        batch_size: int = DEFAULT_BATCH_SIZE,
        start_seq: int = 0,
        crash: Optional[CrashPoint] = None,
        fsync_fail_at_seq: Optional[int] = None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise TimerConfigurationError(
                f"sync must be one of {SYNC_MODES}, got {sync!r}"
            )
        if batch_size < 1:
            raise TimerConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.batch_size = batch_size
        self.crash = crash
        self.fsync_fail_at_seq = fsync_fail_at_seq
        self._fsync_failed = False
        self._crashed = False
        self._seq = start_seq
        self._buffer: List[bytes] = []
        # Unbuffered, so a rolled-back commit leaves nothing to flush later.
        self._handle = open(self.path, "ab", buffering=0)
        self._length = self._handle.tell()
        self.appended = 0
        self.fsyncs = 0
        self.bytes_written = 0

    # --------------------------------------------------------------- appends

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq

    @property
    def next_seq(self) -> int:
        """Sequence number the next append will receive."""
        return self._seq + 1

    @property
    def unsynced(self) -> int:
        """Acknowledged records currently sitting in the group-commit buffer."""
        return len(self._buffer)

    def append(self, op: str, data: Dict[str, object]) -> int:
        """Append one record per the sync discipline; returns its seq.

        Raises :class:`JournalWriteError` (and applies nothing) when the
        record cannot be serialised or its commit write or fsync fails; raises
        :class:`~repro.faults.crash.SimulatedCrash` at a configured
        :class:`~repro.faults.crash.CrashPoint`.
        """
        seq = self._seq + 1
        line = encode_record(seq, op, data).encode("utf-8") + b"\n"
        crash = self.crash
        if crash is not None and not self._crashed and seq == crash.at_seq:
            self._crashed = True
            self._execute_crash(line, crash.mode, seq)
        if self.sync == "always":
            self._commit([line], fsync=True, covering=seq)
        elif self.sync == "batch":
            self._buffer.append(line)
            if len(self._buffer) >= self.batch_size:
                lines, self._buffer = self._buffer, []
                try:
                    self._commit(lines, fsync=True, covering=seq)
                except JournalWriteError:
                    # The group stays buffered for the next commit; only
                    # the record whose append failed is dropped with it.
                    self._buffer = lines[:-1] + self._buffer
                    raise
        else:  # never
            self._commit([line], fsync=False, covering=seq)
        self._seq = seq
        self.appended += 1
        return seq

    def flush(self, fsync: bool = True) -> None:
        """Force out the group-commit buffer (a manual group commit)."""
        if self._buffer:
            lines, self._buffer = self._buffer, []
            try:
                self._commit(lines, fsync=fsync, covering=self._seq)
            except JournalWriteError:
                self._buffer = lines + self._buffer
                raise
        elif fsync and self.sync == "never":
            # "never" wrote without syncing; an explicit flush still
            # lets tests and shutdown make the file durable.
            os.fsync(self._handle.fileno())
            self.fsyncs += 1

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            try:
                self.flush(fsync=self.sync != "never")
            finally:
                self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- internals

    def _commit(self, lines: List[bytes], fsync: bool, covering: int) -> None:
        """Write ``lines`` and optionally fsync, as one atomic-ish group.

        A failed write or fsync — a real ``OSError`` or the injected
        ``fsync_fail_at_seq`` one — rolls the file back to its pre-commit
        length (the bytes were never acknowledged durable, so a later
        replay must not see them) and raises :class:`JournalWriteError`
        chained to the ``OSError``.
        """
        base = self._length
        blob = b"".join(lines)
        handle = self._handle
        try:
            if handle.write(blob) != len(blob):
                raise OSError(errno.ENOSPC, "short journal write")
            if fsync:
                if (
                    self.fsync_fail_at_seq is not None
                    and not self._fsync_failed
                    and covering >= self.fsync_fail_at_seq
                ):
                    self._fsync_failed = True
                    raise OSError(errno.EIO, "injected fsync failure")
                os.fsync(handle.fileno())
                self.fsyncs += 1
        except OSError as exc:
            os.ftruncate(handle.fileno(), base)
            raise JournalWriteError(
                f"commit covering seq {covering} failed ({exc}); "
                "the operation was not applied"
            ) from exc
        self._length = base + len(blob)
        self.bytes_written += len(blob)

    def _execute_crash(self, line: bytes, mode: str, seq: int) -> None:
        """Leave the file in the configured post-mortem state and die."""
        if mode == "before":
            # Neither this record nor the unsynced buffer reached the disk.
            self._buffer.clear()
            raise SimulatedCrash(f"crashed before journal seq {seq}")
        # In the other modes the kernel had started flushing: everything
        # buffered ahead of this record becomes durable first.
        pending, self._buffer = self._buffer, []
        if mode == "torn":
            pending.append(line[: max(1, len(line) // 2)])
        elif mode == "corrupt":
            third = max(1, len(line) // 3)
            pending.append(line[:third] + b"#" * third + line[2 * third :])
        else:  # after
            pending.append(line)
        self._commit(pending, fsync=True, covering=seq)
        raise SimulatedCrash(f"crashed at journal seq {seq} ({mode})")


@dataclass
class ReadResult:
    """What :func:`read_journal` recovered from a journal file."""

    #: ``(seq, op, data)`` triples with ``seq > start_after``, in order.
    records: List[Tuple[int, str, Dict[str, object]]]
    #: highest valid sequence number seen (0 for an empty journal).
    last_seq: int
    #: byte offset of the end of the last valid record — truncate here
    #: before appending again (see :func:`truncate_to`).
    valid_length: int
    #: trailing records recovery skipped: ``(line_number, reason)``.
    skipped: List[Tuple[int, str]] = field(default_factory=list)


def read_journal(
    path: Union[str, Path],
    start_after: int = 0,
    offset: Optional[int] = None,
) -> ReadResult:
    """Read every valid record after ``start_after``, skipping a torn tail.

    ``offset`` (from a snapshot) seeks straight to the tail so replay
    cost is bounded by the records since the last snapshot; when the
    offset turns out stale (does not land on record ``start_after + 1``)
    the whole file is re-scanned instead. Undecodable or out-of-sequence
    records are skipped **only when nothing valid follows them** — a
    crash can tear the tail, nothing can tear the middle; mid-journal
    damage raises :class:`JournalCorruptionError`.
    """
    path = Path(path)
    if not path.exists():
        return ReadResult(records=[], last_seq=start_after, valid_length=0)
    with open(path, "rb") as handle:
        if offset:
            handle.seek(offset)
        blob = handle.read()
    base = offset or 0
    parts = blob.split(b"\n")
    # A complete record always ends in the newline written with it; a
    # final fragment without one is a torn write by construction.
    torn_tail = parts[-1] if parts[-1] else None
    parts = parts[:-1]

    records: List[Tuple[int, str, Dict[str, object]]] = []
    failures: List[Tuple[int, str]] = []
    expected = (start_after if offset else 0) + 1
    valid_length = base
    position = base
    last_seq = start_after if offset else 0
    for lineno, raw in enumerate(parts, start=1):
        end = position + len(raw) + 1
        if not raw:
            position = end
            continue
        try:
            seq, op, data = decode_record(raw)
        except JournalCorruptionError as exc:
            if not records and not failures and offset:
                # The very first record after a seek is wrong: stale offset.
                return read_journal(path, start_after=start_after)
            failures.append((lineno, str(exc)))
            position = end
            continue
        if failures:
            raise JournalCorruptionError(
                f"valid record seq {seq} follows damaged line "
                f"{failures[0][0]} ({failures[0][1]}) — mid-journal "
                "corruption cannot be skipped safely"
            )
        if seq != expected:
            if not records and offset:
                return read_journal(path, start_after=start_after)
            raise JournalCorruptionError(
                f"sequence break: expected {expected}, found {seq} — "
                "acknowledged history is missing; refusing to replay"
            )
        expected = seq + 1
        last_seq = seq
        valid_length = end
        if seq > start_after:
            records.append((seq, op, data))
        position = end
    if torn_tail is not None:
        failures.append((len(parts) + 1, "torn write (no trailing newline)"))
    return ReadResult(
        records=records,
        last_seq=last_seq,
        valid_length=valid_length,
        skipped=failures,
    )


def truncate_to(path: Union[str, Path], valid_length: int) -> int:
    """Cut a journal back to its last valid record; returns bytes removed.

    Called by recovery before reopening for append, so a torn tail can
    never concatenate with the next record.
    """
    path = Path(path)
    size = path.stat().st_size
    if size <= valid_length:
        return 0
    with open(path, "rb+") as handle:
        handle.truncate(valid_length)
        handle.flush()
        os.fsync(handle.fileno())
    return size - valid_length
