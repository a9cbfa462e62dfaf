"""Forwarding cost as calls: Python frames per START/STOP/UPDATE per layer.

Section 7 prices each routine in instructions; a wrapper layer's price is
the Python calls it adds, which a noisy host cannot move. Only frames of
``repro`` code are counted (CPython versions differ in their stdlib
frames, e.g. ``json``). The layer pins are the counts of the
hand-written forwarders the layer base replaced, except the durable
stack's, which is the count once its journal formats the hot records from
templates and reads each value once: a START or UPDATE no longer makes
a second ``now`` read or a ``max_start_interval`` call, three frames
each through the stack; the bare-wheel pins are
the flat one-body-per-routine hot paths of schemes 4/6/7 on both stores,
so a chain abstraction shared by the stores may add no call per routine.
All were measured with this very workload; a change may lower them,
never raise them.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.core.registry import make_scheduler
from repro.core.supervision import SupervisedScheduler
from repro.core.threadsafe import ThreadSafeScheduler
from repro.durability import DurableScheduler

N = 2_000

#: Parent counts per op, ``(start, stop, update)``.
PINNED = {
    "S(T(scheme7))": (10.079, 8.079, 10.042),
    "D(S(T(scheme7)))": (24.079, 24.079, 26.042),
    "scheme4/object": (7.994, 5.99, 9.966),
    "scheme4/soa": (8.994, 8.99, 10.966),
    "scheme6/object": (7.582, 5.573, 8.449),
    "scheme6/soa": (8.582, 8.573, 9.449),
    "scheme7/object": (6.079, 4.079, 6.042),
    "scheme7/soa": (7.079, 7.079, 7.042),
}

#: Bare-wheel geometries: every interval of the workload fits.
WHEELS = {
    "scheme4": {"max_interval": 1 << 18},
    "scheme6": {"table_size": 4096},
    "scheme7": {"slot_counts": (64, 64, 64)},
}


def _supervised():
    core = make_scheduler("scheme7", slot_counts=(64, 64, 64))
    return SupervisedScheduler(ThreadSafeScheduler(core))


def _repro_calls(action) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_globals.get("__name__", "").startswith("repro."):
            count += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return count


def calls_per_op(top):
    """``(start, stop, update)`` calls per op over ``N`` seeded timers."""
    rng = random.Random(7)
    ids = [f"t{i}" for i in range(N)]
    starts = [rng.randrange(1, 200_000) for _ in ids]
    updates = [rng.randrange(1, 200_000) for _ in ids]

    def start():
        for rid, interval in zip(ids, starts):
            top.start_timer(interval, request_id=rid)

    def update():
        for rid, interval in zip(ids, updates):
            top.update_timer(rid, interval)

    def stop():
        for rid in ids:
            top.stop_timer(rid)

    start_calls, update_calls = _repro_calls(start), _repro_calls(update)
    counted = (start_calls, _repro_calls(stop), update_calls)
    return tuple(round(c / N, 3) for c in counted)


def test_supervised_threadsafe_calls_per_op_do_not_grow():
    measured = calls_per_op(_supervised())
    pinned = PINNED["S(T(scheme7))"]
    assert all(m <= p for m, p in zip(measured, pinned)), (measured, pinned)


def test_durable_stack_calls_per_op_do_not_grow(tmp_path):
    top = DurableScheduler(_supervised(), tmp_path, sync="never", snapshot_every=None)
    measured = calls_per_op(top)
    top.close()
    pinned = PINNED["D(S(T(scheme7)))"]
    assert all(m <= p for m, p in zip(measured, pinned)), (measured, pinned)


@pytest.mark.parametrize("store", ["object", "soa"])
@pytest.mark.parametrize("scheme", sorted(WHEELS))
def test_bare_wheel_calls_per_op_do_not_grow(scheme, store):
    measured = calls_per_op(make_scheduler(scheme, store=store, **WHEELS[scheme]))
    pinned = PINNED[f"{scheme}/{store}"]
    assert all(m <= p for m, p in zip(measured, pinned)), (measured, pinned)
