"""The sparse-tick fast path: bulk ``advance_to`` vs per-tick stepping.

The contract under test (docs/performance.md): jumping provably-empty
runs of ticks must be *invisible* to everything the reproduction
measures — expiry sequences, OpCounter totals, scheme statistics, and
per-tick observers — across every registered scheme.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_scheduler
from repro.core.observer import TimerObserver
from repro.cost.counters import OpCounter

from tests.conftest import ALL_SCHEMES, SCHEME_KWARGS


def build_counted(name: str, **overrides):
    kwargs = dict(SCHEME_KWARGS.get(name, {}))
    kwargs.update(overrides)
    return make_scheduler(name, counter=OpCounter(), **kwargs)


def drive_workload(scheduler, seed: int, horizon: int, use_fast: bool):
    """A start/stop/re-arm workload, advanced naively or in bulk."""
    rng = random.Random(seed)
    fired = []

    def rearming(timer):
        fired.append((timer.request_id, scheduler.now))
        if rng.random() < 0.4:
            scheduler.start_timer(rng.randint(1, 2000), callback=rearming)

    started = []
    for _ in range(30):
        started.append(
            scheduler.start_timer(rng.randint(1, 2500), callback=rearming)
        )
    for timer in started[::5]:
        scheduler.stop_timer(timer)
    if use_fast:
        scheduler.advance_to(horizon)
    else:
        for _ in range(horizon):
            scheduler.tick()
    return fired


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_advance_to_is_bit_identical_to_per_tick_stepping(scheme):
    """Same seed, both paths: everything observable must match exactly."""
    horizon = 3000
    naive = build_counted(scheme)
    fast = build_counted(scheme)
    fired_naive = drive_workload(naive, seed=11, horizon=horizon, use_fast=False)
    fired_fast = drive_workload(fast, seed=11, horizon=horizon, use_fast=True)
    assert fired_naive == fired_fast
    assert naive.counter.snapshot() == fast.counter.snapshot()
    assert naive.now == fast.now == horizon
    assert naive.pending_count == fast.pending_count
    assert naive.introspect() == fast.introspect()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_advance_matches_advance_to(scheme):
    scheduler = build_counted(scheme)
    other = build_counted(scheme)
    scheduler.start_timer(500)
    other.start_timer(500)
    expired_a = scheduler.advance(600)
    expired_b = other.advance_to(600)
    assert [t.request_id for t in expired_a] == [t.request_id for t in expired_b]
    assert scheduler.counter.snapshot() == other.counter.snapshot()


class TestValidationAndEdges:
    def test_advance_rejects_negative(self, any_scheduler):
        with pytest.raises(ValueError):
            any_scheduler.advance(-1)

    def test_advance_to_rejects_past_deadline(self, any_scheduler):
        any_scheduler.advance(5)
        with pytest.raises(ValueError):
            any_scheduler.advance_to(4)

    def test_advance_zero_is_a_noop(self, any_scheduler):
        before = any_scheduler.counter.snapshot()
        assert any_scheduler.advance(0) == []
        assert any_scheduler.advance_to(any_scheduler.now) == []
        assert any_scheduler.counter.snapshot() == before

    def test_empty_scheduler_jumps_in_one_event_probe(self):
        """With nothing pending, a wheel's advance_to never loops per tick."""
        scheduler = build_counted("scheme4")
        scheduler.advance_to(100_000)
        assert scheduler.now == 100_000
        assert scheduler.pending_count == 0


class TestReentrantStartDuringJump:
    def test_callback_start_lands_on_previously_empty_slot(self):
        """A timer started mid-jump on a tick the jump would have skipped.

        The wheel plans to hop from the firing at t=100 straight to the
        horizon; the callback then arms a timer for t=101 — a slot that
        was provably empty when the hop was planned. The loop must
        re-probe after every executed tick and fire it exactly at 101.
        """
        for scheme in ALL_SCHEMES:
            scheduler = build_counted(scheme)
            fired = []

            def arm_next(timer, scheduler=scheduler, fired=fired):
                fired.append((timer.request_id, scheduler.now))
                scheduler.start_timer(
                    1,
                    request_id="re-entrant",
                    callback=lambda t: fired.append(
                        (t.request_id, scheduler.now)
                    ),
                )

            scheduler.start_timer(100, request_id="outer", callback=arm_next)
            scheduler.advance_to(5000)
            # The lossy variants may fire "outer" at a rounded tick; what
            # matters is that the re-entrant timer armed during the jump
            # fires exactly one tick after it, on a slot that was empty
            # when the hop was planned.
            outer_at = dict(fired).get("outer")
            assert outer_at is not None, scheme
            assert ("re-entrant", outer_at + 1) in fired, scheme

    def test_chain_of_reentrant_starts_walks_tick_by_tick(self):
        scheduler = build_counted("scheme6", table_size=64)
        hops = []

        def chain(timer):
            hops.append(scheduler.now)
            if len(hops) < 10:
                scheduler.start_timer(1, callback=chain)

        scheduler.start_timer(50, callback=chain)
        scheduler.advance_to(1000)
        assert hops == list(range(50, 60))


class TestNextExpiry:
    def test_none_iff_nothing_pending(self, any_scheduler):
        assert any_scheduler.next_expiry() is None
        timer = any_scheduler.start_timer(7)
        assert any_scheduler.next_expiry() is not None
        any_scheduler.stop_timer(timer)
        assert any_scheduler.next_expiry() is None

    def test_probe_does_not_charge_the_counter(self):
        for scheme in ALL_SCHEMES:
            scheduler = build_counted(scheme)
            scheduler.start_timer(123)
            scheduler.start_timer(456)
            before = scheduler.counter.snapshot()
            scheduler.next_expiry()
            assert scheduler.counter.snapshot() == before, scheme


@settings(max_examples=25, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    seed=st.integers(min_value=0, max_value=2**30),
)
def test_next_expiry_bound_property_vs_oracle(scheme, seed):
    """next_expiry() is a sound lower bound on the next actual firing.

    Oracle: a sorted list of pending deadlines maintained outside the
    scheduler. Invariants after every operation:

    * ``next_expiry() is None`` iff nothing is pending;
    * otherwise ``now < next_expiry() <= min(oracle deadlines)`` — for
      the hashed/hierarchical schemes the bound may be strictly below
      the true next firing (an occupied visit that only decrements
      rounds or cascades), but it must never overshoot it, or
      ``advance_to`` would skip a firing.
    """
    rng = random.Random(seed)
    scheduler = build_counted(scheme)
    deadlines = {}  # request_id -> latest tick the timer can fire at
    for step in range(60):
        op = rng.random()
        if op < 0.5:
            interval = rng.randint(1, 3000)
            timer = scheduler.start_timer(interval)
            # The lossy hierarchy rounds the firing tick (possibly up)
            # and records it on the timer at insert; everywhere else the
            # firing happens no later than the requested deadline.
            fire_at = getattr(timer, "_fire_at", None)
            deadlines[timer.request_id] = (
                fire_at if fire_at is not None else timer.deadline
            )
        elif op < 0.65 and deadlines:
            victim = rng.choice(sorted(deadlines, key=str))
            scheduler.stop_timer(victim)
            del deadlines[victim]
        else:
            expired = scheduler.advance(rng.randint(1, 200))
            for timer in expired:
                deadlines.pop(timer.request_id, None)
        bound = scheduler.next_expiry()
        if not deadlines:
            assert bound is None
        else:
            assert bound is not None
            assert scheduler.now < bound <= min(deadlines.values())


class RecordingObserver(TimerObserver):
    """Per-tick fidelity observer: must see every tick, even skipped ones."""

    def __init__(self):
        self.tick_begins = []
        self.tick_ends = 0
        self.bulk_calls = []

    def on_tick_begin(self, scheduler, now):
        self.tick_begins.append(now)

    def on_tick_end(self, scheduler, expired_count):
        self.tick_ends += 1

    def on_bulk_advance(self, scheduler, start_tick, end_tick):
        self.bulk_calls.append((start_tick, end_tick))


class BulkObserver(RecordingObserver):
    per_tick_fidelity = False


class TestObserverFidelity:
    def test_fidelity_observer_sees_every_skipped_tick(self):
        scheduler = make_scheduler("scheme4", max_interval=4096)
        observer = scheduler.attach_observer(RecordingObserver())
        scheduler.start_timer(1000)
        scheduler.advance_to(2000)
        assert observer.tick_begins == list(range(1, 2001))
        assert observer.tick_ends == 2000
        assert observer.bulk_calls == []

    def test_bulk_observer_gets_ranges_instead(self):
        scheduler = make_scheduler("scheme4", max_interval=4096)
        observer = scheduler.attach_observer(BulkObserver())
        scheduler.start_timer(1000)
        scheduler.advance_to(2000)
        # Executed ticks: the firing at 1000. Everything else arrives as
        # bulk ranges that tile (0, 2000] together with the executed tick.
        assert observer.tick_begins == [1000]
        covered = sum(end - start for start, end in observer.bulk_calls)
        assert covered + len(observer.tick_begins) == 2000
        for start, end in observer.bulk_calls:
            assert start < end

    def test_fidelity_and_bulk_paths_charge_identically(self):
        a = make_scheduler("scheme4", max_interval=4096, counter=OpCounter())
        b = make_scheduler("scheme4", max_interval=4096, counter=OpCounter())
        a.attach_observer(RecordingObserver())
        b.attach_observer(BulkObserver())
        a.start_timer(1000)
        b.start_timer(1000)
        a.advance_to(2000)
        b.advance_to(2000)
        assert a.counter.snapshot() == b.counter.snapshot()


class TestRunUntilIdle:
    def test_uses_fast_path_for_long_gaps(self, exact_scheduler):
        fired = []
        exact_scheduler.start_timer(
            997, callback=lambda t: fired.append(exact_scheduler.now)
        )
        expired = exact_scheduler.run_until_idle()
        assert fired == [997]
        assert len(expired) == 1
        assert exact_scheduler.now == 997

    def test_livelock_guard_still_trips(self):
        scheduler = make_scheduler("scheme4", max_interval=64)

        def rearm(timer):
            scheduler.start_timer(1, callback=rearm)

        scheduler.start_timer(1, callback=rearm)
        from repro.core.errors import TimerLivelockError

        with pytest.raises(TimerLivelockError):
            scheduler.run_until_idle(max_ticks=500)


def _occupancy_pairs(sched):
    """``(bit set, chain non-empty)`` for every slot of every wheel."""
    if hasattr(sched, "_levels"):
        wheels = [
            (level.occupancy, sched.slot_sizes(level.index))
            for level in sched._levels
        ]
    elif hasattr(sched, "bucket_sizes"):
        wheels = [(sched._occupancy, sched.bucket_sizes())]
    else:
        wheels = [(sched._occupancy, sched.slot_sizes())]
    return [
        (bits.test(index), size > 0)
        for bits, sizes in wheels
        for index, size in enumerate(sizes)
    ]


@pytest.mark.parametrize("store", ("object", "soa"))
@pytest.mark.parametrize("scheme", ("scheme4", "scheme6", "scheme7"))
def test_occupancy_bits_track_chain_emptiness(scheme, store):
    """The hot paths flip a slot's bit only when its chain goes from empty
    to non-empty or back; after every operation the bit must still read
    exactly "this chain is non-empty" on every wheel."""
    geometry = {
        "scheme4": {"max_interval": 512},
        "scheme6": {"table_size": 64},
        "scheme7": {"slot_counts": (8, 8, 8)},
    }
    sched = make_scheduler(scheme, store=store, **geometry[scheme])
    rng = random.Random(scheme)
    pending = []
    for step in range(600):
        roll = rng.random()
        if pending and roll < 0.4:
            sched.update_timer(rng.choice(pending), rng.randint(1, 300))
        elif pending and roll < 0.55:
            rid = pending.pop(rng.randrange(len(pending)))
            sched.stop_timer(rid)
        elif roll < 0.8:
            rid = f"t{step}"
            sched.start_timer(rng.randint(1, 300), request_id=rid)
            pending.append(rid)
        else:
            fired = {t.request_id for t in sched.advance(rng.randint(1, 40))}
            pending = [rid for rid in pending if rid not in fired]
        pairs = _occupancy_pairs(sched)
        assert all(bit == occupied for bit, occupied in pairs), step
