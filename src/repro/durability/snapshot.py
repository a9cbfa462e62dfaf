"""Atomic state snapshots bounding journal replay to the tail.

A snapshot is the :class:`~repro.durability.state.DurableState`
reduction serialised at a journal sequence number, written with the
tmp-file + fsync + ``os.replace`` recipe (:func:`repro.io.
atomic_write_text`) so a reader only ever sees a complete snapshot —
old or new, never torn. Each snapshot also records the journal *byte
offset* its sequence number corresponds to, so recovery seeks straight
to the tail instead of re-parsing the whole log.

Snapshots are self-validating (CRC-32 over the canonical encoding of
``{journal_offset, seq, state}``, recomputed from the parsed file) and
the newest valid one wins: a corrupt or torn newest file is rejected
and the previous one used — recovery then simply replays a longer tail.
``keep`` bounds disk usage; the pruned history is redundant with the
journal anyway.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.durability.journal import JournalWriteError
from repro.io import atomic_write_text

#: Snapshot schema version stamped into every file.
SNAPSHOT_FORMAT = 1

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")


def snapshot_path(directory: Union[str, Path], seq: int) -> Path:
    """Canonical file name for the snapshot covering journal ``seq``."""
    return Path(directory) / f"snapshot-{seq:012d}.json"


def _canonical(state: Dict[str, object]) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _checksum(seq: int, journal_offset: int, state_text: str) -> int:
    """CRC-32 of the canonical ``{journal_offset, seq, state}`` encoding."""
    head = '{"journal_offset":%d,"seq":%d,"state":' % (journal_offset, seq)
    return zlib.crc32((head + state_text + "}").encode("utf-8")) & 0xFFFFFFFF


def write_snapshot(
    directory: Union[str, Path],
    state: Dict[str, object],
    seq: int,
    journal_offset: int,
    keep: int = 2,
) -> Path:
    """Atomically write the snapshot covering ``seq``; prune old ones.

    ``state`` is encoded once: the file is the header fields followed by
    that exact canonical text, which is also what the CRC covers. An
    unencodable state or an ``OSError`` from the write (``ENOSPC``, say)
    raises :class:`JournalWriteError`; older snapshots stay in place.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        text = _canonical(state)
    except (TypeError, ValueError) as exc:
        raise JournalWriteError(f"snapshot is not JSON-serialisable: {exc}") from exc
    crc = _checksum(seq, journal_offset, text)
    header = '{"format":%d,"seq":%d,"journal_offset":%d,"crc":%d,"state":' % (
        SNAPSHOT_FORMAT, seq, journal_offset, crc
    )
    try:
        path = atomic_write_text(snapshot_path(directory, seq), header + text + "}\n")
    except OSError as exc:
        raise JournalWriteError(f"snapshot write failed: {exc}") from exc
    for stale in list_snapshots(directory)[: -keep or None]:
        if stale != path:
            try:
                stale.unlink(missing_ok=True)
            except OSError:
                pass  # best effort: a stale snapshot is redundant, not harmful
    return path


def list_snapshots(directory: Union[str, Path]) -> List[Path]:
    """Snapshot files in ascending sequence order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: List[Tuple[int, Path]] = []
    for path in directory.iterdir():
        match = _SNAPSHOT_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _seq, path in sorted(found)]


@dataclass
class LoadedSnapshot:
    """The newest valid snapshot, plus what was rejected on the way."""

    seq: int
    journal_offset: int
    state: Dict[str, object]
    path: Path
    #: (file name, reason) per newer snapshot rejected as invalid.
    rejected: List[Tuple[str, str]] = field(default_factory=list)


def load_latest_snapshot(
    directory: Union[str, Path],
) -> Optional[LoadedSnapshot]:
    """Newest snapshot that parses and CRC-checks; ``None`` if none do.

    Damaged snapshots are never fatal — each rejection just pushes
    recovery back to an older snapshot (or to a full journal replay)
    with a correspondingly longer tail.
    """
    rejected: List[Tuple[str, str]] = []
    for path in reversed(list_snapshots(directory)):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            seq = payload["seq"]
            journal_offset = payload["journal_offset"]
            state = payload["state"]
            if type(seq) is not int or type(journal_offset) is not int:
                raise ValueError("malformed header")
            if payload["crc"] != _checksum(seq, journal_offset, _canonical(state)):
                raise ValueError("CRC mismatch")
        except (ValueError, KeyError, TypeError, OSError) as exc:
            rejected.append((path.name, str(exc) or type(exc).__name__))
            continue
        return LoadedSnapshot(
            seq=seq,
            journal_offset=journal_offset,
            state=state,
            path=path,
            rejected=rejected,
        )
    return None
