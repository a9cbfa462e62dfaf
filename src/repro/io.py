"""Crash-safe file primitives shared across the repo.

A process can die between any two syscalls, so "write a JSON file" is
not atomic: a kill mid-``write()`` leaves a torn file, and a kill after
``write()`` but before the data reaches the platter leaves a file whose
*name* is newer than its *bytes*. Everything durable in this repo — the
journal snapshots in :mod:`repro.durability.snapshot` (already-encoded
text, via :func:`atomic_write_text`) and the checked-in ``BENCH_*.json``
baselines written by ``python -m repro.bench --json`` (via
:func:`atomic_write_json`) — follows the classic tmp-file + ``fsync`` +
``os.replace`` recipe:

1. write the full payload to ``<target>.tmp.<pid>`` in the same
   directory (same filesystem, so the final rename cannot cross devices);
2. ``flush`` + ``os.fsync`` the tmp file so its *contents* are durable;
3. ``os.replace`` it over the target — atomic on POSIX and Windows;
4. ``fsync`` the containing directory so the *rename* is durable too.

Readers therefore always observe either the old complete file or the
new complete file, never a prefix of the new one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union


def fsync_directory(path: Union[str, Path]) -> None:
    """Flush a directory's metadata (new names / renames) to disk.

    Best-effort: some platforms (and some CI filesystems) refuse to open
    directories for fsync; losing the *rename* on those is acceptable,
    losing silently on platforms that support it is not.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: Union[str, Path], text: str, fsync: bool = True
) -> Path:
    """Atomically replace ``path`` with ``text`` (see module docstring).

    The tmp file lives next to the target so ``os.replace`` stays on one
    filesystem. On any failure the tmp file is removed and the original
    target is left untouched.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        fsync_directory(target.parent)
    return target


def atomic_write_json(
    path: Union[str, Path],
    payload: object,
    indent: int | None = 2,
    sort_keys: bool = False,
    fsync: bool = True,
) -> Path:
    """Serialise ``payload`` and atomically replace ``path`` with it.

    Serialisation happens *before* the target is touched, so a payload
    that is not JSON-serialisable leaves the existing file intact.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text, fsync=fsync)
