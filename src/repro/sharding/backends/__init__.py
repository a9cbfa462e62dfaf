"""Pluggable shard execution backends (see :mod:`.base` for the protocol).

========================  =========================================  ==========
backend                   shards execute in                          GIL
========================  =========================================  ==========
``inprocess``             this interpreter, per-shard locks          shared
``multiprocessing``       one worker process per shard + shm plane   one each
========================  =========================================  ==========
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sharding.backends.base import (
    BackendCapabilityError,
    BackendUnavailableError,
    ShardBackend,
    ShardFaultError,
    ShardPlane,
    apply_ops,
    decode_timer,
    encode_timer,
)

#: Registered backend names (classes imported lazily; the
#: multiprocessing module costs a fork probe).
BACKEND_NAMES: Tuple[str, ...] = ("inprocess", "multiprocessing")


def _backend_class(name: str):
    if name == "inprocess":
        from repro.sharding.backends.inprocess import InProcessBackend

        return InProcessBackend
    if name == "multiprocessing":
        from repro.sharding.backends.mp import MultiprocessingBackend

        return MultiprocessingBackend
    raise ValueError(
        f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
    )


def backend_availability() -> Dict[str, Tuple[bool, str]]:
    """``name -> (usable, reason)`` for every registered backend."""
    report: Dict[str, Tuple[bool, str]] = {
        "inprocess": (True, "ok"),
        "multiprocessing": (True, "ok"),
    }
    import multiprocessing

    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        report["multiprocessing"] = (False, "no fork start method")
    return report


def available_backends() -> List[str]:
    """Names of the backends that can run on this host, registry order."""
    report = backend_availability()
    return [name for name in BACKEND_NAMES if report[name][0]]


def make_backend(
    name: str,
    shard_count: int,
    plane: ShardPlane,
    **options,
) -> ShardBackend:
    """Instantiate backend ``name`` (raises
    :class:`BackendUnavailableError` when it cannot run here)."""
    usable, reason = backend_availability().get(name, (False, "unknown"))
    cls = _backend_class(name)
    if not usable:
        raise BackendUnavailableError(f"backend {name!r} unavailable: {reason}")
    return cls(shard_count, plane, **options)


__all__ = [
    "BACKEND_NAMES",
    "BackendCapabilityError",
    "BackendUnavailableError",
    "ShardBackend",
    "ShardFaultError",
    "ShardPlane",
    "apply_ops",
    "available_backends",
    "backend_availability",
    "decode_timer",
    "encode_timer",
    "make_backend",
]
