"""The VAX cost model calibration against Section 7."""

from __future__ import annotations

import pytest

from repro.core import HashedWheelUnsortedScheduler
from repro.cost.counters import OpSnapshot
from repro.cost.vax import SECTION7_COSTS, VaxCostModel


def test_published_constants():
    assert SECTION7_COSTS["insert"] == 13
    assert SECTION7_COSTS["delete"] == 7
    assert SECTION7_COSTS["empty_tick"] == 4
    assert SECTION7_COSTS["decrement_and_advance"] == 6
    assert SECTION7_COSTS["expire"] == 9
    assert SECTION7_COSTS["per_timer_per_scan"] == 15


def test_default_weights_price_ops_at_one():
    model = VaxCostModel()
    assert model.instructions(OpSnapshot(1, 1, 1, 1)) == 4.0


def test_custom_weights():
    model = VaxCostModel(read_cost=2.0, write_cost=3.0)
    assert model.instructions(OpSnapshot(reads=1, writes=1)) == 5.0


def _assert_section7_constants(store):
    """The instrumented Scheme 6 charges exactly the published mixes, and
    the fused UPDATE at half the STOP+START bill."""
    model = VaxCostModel()
    sched = HashedWheelUnsortedScheduler(table_size=128, store=store)

    before = sched.counter.snapshot()
    timer = sched.start_timer(500)
    assert model.instructions(sched.counter.since(before)) == 13

    before = sched.counter.snapshot()
    sched.update_timer(timer, 300)
    assert model.instructions(sched.counter.since(before)) == 10

    before = sched.counter.snapshot()
    sched.stop_timer(timer)
    assert model.instructions(sched.counter.since(before)) == 7

    before = sched.counter.snapshot()
    sched.tick()  # empty
    assert model.instructions(sched.counter.since(before)) == 4

    # Decrement-and-advance (6): a timer with one spare revolution.
    sched2 = HashedWheelUnsortedScheduler(table_size=8, store=store)
    sched2.start_timer(8 + 3)
    sched2.advance(2)
    before = sched2.counter.snapshot()
    sched2.tick()  # visits the entry, decrements, does not expire
    assert model.instructions(sched2.counter.since(before)) == 4 + 6

    # Expiring visit adds the 9-instruction delete+expiry (6 + 9 = 15).
    sched2.advance(7)
    before = sched2.counter.snapshot()
    expired = sched2.tick()
    assert len(expired) == 1
    assert model.instructions(sched2.counter.since(before)) == 4 + 6 + 9


def test_scheme6_hot_paths_hit_section7_constants():
    """The default (object) store charges the Section 7 constants."""
    _assert_section7_constants("object")


def test_scheme6_soa_hot_paths_hit_section7_constants():
    """The struct-of-arrays store charges the same Section 7 constants."""
    _assert_section7_constants("soa")


def test_predicted_per_tick_formula():
    assert VaxCostModel.predicted_per_tick(0, 256) == 4.0
    assert VaxCostModel.predicted_per_tick(256, 256) == 19.0
    assert VaxCostModel.predicted_per_tick(128, 256) == pytest.approx(11.5)


def test_predicted_per_tick_validation():
    with pytest.raises(ValueError):
        VaxCostModel.predicted_per_tick(10, 0)
    with pytest.raises(ValueError):
        VaxCostModel.predicted_per_tick(-1, 256)
