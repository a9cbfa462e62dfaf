"""The remote shard worker: one loop, any transport.

The multiprocessing backend (duplex pipes, one process per shard) runs
this loop; the transport only supplies ``recv_bytes`` / ``send_bytes``
callables. Messages are pickled tuples::

    ("ops", ops, stop_on_error) -> ("results", [encoded OpResult, ...])
    ("advance", deadline)       -> ("results", ("ok", [wire timers]))
    ("close",)                  -> ("results", ("ok", None)), then exit

Results are wire-encoded (:func:`~repro.sharding.backends.base
.encode_value`) and pre-pickled defensively: a value that cannot be
pickled is replaced by a :class:`RuntimeError` describing it, so one
exotic payload can never wedge the framing.
"""

from __future__ import annotations

import pickle
from typing import Callable, List

from repro.sharding.backends.base import (
    OpResult,
    apply_ops,
    encode_value,
    encode_timer,
)


def _safe_dumps(message: object) -> bytes:
    try:
        return pickle.dumps(message)
    except Exception as exc:
        return pickle.dumps(
            (
                "results",
                (
                    "err",
                    RuntimeError(
                        f"shard result could not cross the process "
                        f"boundary: {exc!r}"
                    ),
                ),
            )
        )


def _encode_results(results: List[OpResult]) -> List[OpResult]:
    encoded: List[OpResult] = []
    for status, value in results:
        if status == "ok":
            encoded.append(("ok", encode_value(value)))
        else:
            encoded.append((status, value))
    return encoded


def shard_loop(
    index: int,
    build: Callable[[int], object],
    recv_bytes: Callable[[], bytes],
    send_bytes: Callable[[bytes], None],
) -> None:
    """Build shard ``index`` via ``build`` and serve ops until closed."""
    try:
        shard = build(index)
    except Exception as exc:
        send_bytes(_safe_dumps(("fatal", exc)))
        return
    send_bytes(_safe_dumps(("ready", None)))
    while True:
        message = pickle.loads(recv_bytes())
        kind = message[0]
        if kind == "ops":
            results = apply_ops(shard, message[1], message[2])
            send_bytes(_safe_dumps(("results", _encode_results(results))))
        elif kind == "advance":
            deadline = message[1]
            try:
                expired = (
                    shard.advance_to(deadline)
                    if shard.now < deadline
                    else []
                )
                payload: OpResult = (
                    "ok",
                    [encode_timer(timer) for timer in expired],
                )
            except Exception as exc:
                payload = ("err", exc)
            send_bytes(_safe_dumps(("results", payload)))
        elif kind == "close":
            # Release a shared-memory mapping cleanly before exiting —
            # SharedMemory.__del__ cannot close a buffer with live
            # memoryview exports.
            store = getattr(shard, "store", None)
            close = getattr(store, "close", None)
            if callable(close):
                close()
            send_bytes(_safe_dumps(("results", ("ok", None))))
            return
        else:
            send_bytes(
                _safe_dumps(
                    (
                        "results",
                        ("err", ValueError(f"unknown message {kind!r}")),
                    )
                )
            )
