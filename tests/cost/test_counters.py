"""Operation counters and snapshots."""

from __future__ import annotations

import random

import pytest

from repro.core import scheme_names
from repro.cost.counters import NULL_COUNTER, OpCounter, OpSnapshot
from tests.conftest import build


def test_initial_state():
    counter = OpCounter()
    assert counter.total == 0
    snap = counter.snapshot()
    assert snap == OpSnapshot(0, 0, 0, 0)
    assert snap.total == 0


def test_single_op_bumps():
    counter = OpCounter()
    counter.read()
    counter.write(2)
    counter.compare(3)
    counter.link(4)
    assert counter.reads == 1
    assert counter.writes == 2
    assert counter.compares == 3
    assert counter.links == 4
    assert counter.total == 10


def test_charge_batch():
    counter = OpCounter()
    counter.charge(reads=4, writes=4, compares=1, links=4)
    assert counter.total == 13  # Scheme 6's insert mix


def test_snapshot_subtraction():
    counter = OpCounter()
    counter.read(5)
    before = counter.snapshot()
    counter.write(3)
    counter.compare(1)
    delta = counter.since(before)
    assert delta == OpSnapshot(reads=0, writes=3, compares=1, links=0)
    assert delta.total == 4
    assert delta.memory_ops == 3


def test_snapshot_addition():
    a = OpSnapshot(1, 2, 3, 4)
    b = OpSnapshot(10, 20, 30, 40)
    assert a + b == OpSnapshot(11, 22, 33, 44)


def test_reset():
    counter = OpCounter()
    counter.charge(reads=9, links=9)
    counter.reset()
    assert counter.total == 0


def test_null_counter_swallows_everything():
    NULL_COUNTER.read(100)
    NULL_COUNTER.write(100)
    NULL_COUNTER.compare(100)
    NULL_COUNTER.link(100)
    NULL_COUNTER.charge(reads=5, writes=5)
    assert NULL_COUNTER.total == 0


def test_repr_mentions_fields():
    counter = OpCounter()
    counter.read(2)
    assert "reads=2" in repr(counter)


@pytest.mark.parametrize(
    "name, store",
    [(name, "object") for name in scheme_names()]
    + [(name, "soa") for name in ("scheme4", "scheme6", "scheme7")],
)
def test_null_counter_stays_zero_under_a_storm(name, store):
    """Every scheme's hot paths charge through ``OpCounter`` methods, which
    the shared null counter swallows; a path that bumped the fields
    directly would leave it nonzero for every later user."""
    kwargs = {"counter": NULL_COUNTER}
    if store == "soa":
        kwargs["store"] = "soa"
    sched = build(name, **kwargs)
    rng = random.Random(name)
    pending = [f"t{i}" for i in range(100)]
    for rid in pending:
        sched.start_timer(rng.randint(1, 300), request_id=rid)
    serial = len(pending)
    for now in range(400):
        for _ in range(5):
            rid = pending[rng.randrange(len(pending))]
            if not sched.is_pending(rid):
                sched.start_timer(rng.randint(1, 300), request_id=rid)
            elif rng.random() < 0.8:
                sched.update_timer(rid, rng.randint(1, 300))
            else:
                sched.stop_timer(rid)
                pending.remove(rid)
                pending.append(f"t{serial}")
                sched.start_timer(rng.randint(1, 300), request_id=pending[-1])
                serial += 1
        sched.advance_to(now + 1)
    sched.run_until_idle()
    assert NULL_COUNTER.total == 0
