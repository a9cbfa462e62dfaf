"""Lawn scheme: per-TTL buckets, head-only expiry, no MaxInterval.

The generic conformance/property/fast-path suites already run Lawn via
the parametrised fixtures (it registers as an exact scheme); these tests
pin down what is *specific* to Lawn — the bucket lifecycle, the O(B)
per-tick cost surface, unbounded intervals, and the sorted-bucket
invariant that makes head-only scanning sufficient.
"""

from __future__ import annotations

import pytest

from repro.core.registry import make_scheduler
from repro.core.scheme8_lawn import LawnScheduler
from repro.cost.counters import OpCounter


def test_registered_as_lawn():
    sched = make_scheduler("lawn")
    assert isinstance(sched, LawnScheduler)
    assert sched.scheme_name == "lawn"


def test_no_max_interval():
    sched = LawnScheduler()
    assert sched.max_start_interval() is None
    sched.start_timer(10**9, request_id="huge")  # any wheel would reject this
    assert sched.next_expiry() == 10**9


def test_bucket_lifecycle_tracks_live_ttls():
    sched = LawnScheduler()
    assert sched.ttl_count == 0
    sched.start_timer(5, request_id="a")
    sched.start_timer(5, request_id="b")
    sched.start_timer(9, request_id="c")
    assert sched.ttl_count == 2
    assert sched.bucket_sizes() == {5: 2, 9: 1}
    sched.stop_timer("a")
    assert sched.bucket_sizes() == {5: 1, 9: 1}
    sched.stop_timer("b")  # empties the 5-bucket, which must be deleted
    assert sched.bucket_sizes() == {9: 1}
    sched.advance(9)
    assert sched.ttl_count == 0 and sched.pending_count == 0


def test_buckets_stay_deadline_sorted():
    sched = LawnScheduler()
    deadlines = []
    for step in range(6):
        sched.start_timer(100, callback=lambda t: deadlines.append(t.fired_at))
        sched.advance(3)  # later arrivals -> strictly later deadlines
    sched.run_until_idle()
    assert deadlines == sorted(deadlines)
    assert deadlines == [100 + 3 * i for i in range(6)]


def test_fires_exactly_on_deadline():
    sched = LawnScheduler()
    fired = {}
    for interval in (1, 2, 17, 400, 401):
        sched.start_timer(
            interval,
            request_id=f"t{interval}",
            callback=lambda t: fired.__setitem__(t.request_id, t.fired_at),
        )
    sched.run_until_idle()
    assert fired == {f"t{i}": i for i in (1, 2, 17, 400, 401)}


def test_next_expiry_is_exact_minimum():
    sched = LawnScheduler()
    assert sched.next_expiry() is None
    sched.start_timer(50, request_id="far")
    sched.start_timer(7, request_id="near")
    assert sched.next_expiry() == 7
    sched.stop_timer("near")
    assert sched.next_expiry() == 50


def test_per_tick_cost_scales_with_bucket_count_only():
    """One tick charges O(B) head probes, independent of timers per bucket."""
    def tick_cost(n_ttls: int, per_ttl: int) -> int:
        counter = OpCounter()
        sched = LawnScheduler(counter=counter)
        for ttl in range(1000, 1000 + n_ttls):
            for _ in range(per_ttl):
                sched.start_timer(ttl)
        before = counter.snapshot().total
        sched.tick()  # nothing due: pure bookkeeping
        return counter.snapshot().total - before

    assert tick_cost(4, 1) == tick_cost(4, 50)  # depth is free
    assert tick_cost(8, 1) > tick_cost(4, 1)  # breadth is not


def test_empty_tick_charges_match_per_tick_path():
    """The sparse fast path must charge exactly what real ticks would."""
    def run(use_advance: bool):
        counter = OpCounter()
        sched = LawnScheduler(counter=counter)
        sched.start_timer(500, request_id="a")
        sched.start_timer(900, request_id="b")
        if use_advance:
            sched.advance_to(1000)
        else:
            for _ in range(1000):
                sched.tick()
        return counter.snapshot(), sched.now, sched.total_expired

    assert run(True) == run(False)


def test_introspect_structure():
    sched = LawnScheduler()
    sched.start_timer(5)
    sched.start_timer(5)
    sched.start_timer(9)
    info = sched.introspect()
    assert info["structure"]["kind"] == "lawn"
    assert info["structure"]["ttl_buckets"] == 2
    assert info["store"] == "object"
