"""The delegation base: every layer composition exposes one surface and
replays a client stream exactly as the bare scheme it wraps does."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import make_scheduler
from repro.core.interface import TimerScheduler
from repro.core.layer import SchedulerLayer
from repro.core.supervision import SupervisedScheduler as S
from repro.core.threadsafe import ThreadSafeScheduler as T
from repro.durability import DurableScheduler, recover


def C():
    return make_scheduler("scheme7", slot_counts=(16, 16, 16))


def D(inner, directory):
    return DurableScheduler(inner, directory, sync="never", snapshot_every=64)


#: Every composition the docs describe, by its shorthand.
COMPOSITIONS = {
    "C": lambda d: C(),
    "T(C)": lambda d: T(C()),
    "S(C)": lambda d: S(C()),
    "S(T(C))": lambda d: S(T(C())),
    "T(S(C))": lambda d: T(S(C())),
    "D(C)": lambda d: D(C(), d),
    "D(S(C))": lambda d: D(S(C()), d),
    "D(S(T(C)))": lambda d: D(S(T(C())), d),
    "T(D(S(C)))": lambda d: T(D(S(C()), d)),
}

#: Public scheduler names a top layer deliberately lacks: a supervised
#: timer is re-armed by its supervisor, and a journal has no record type
#: for a client restart.
ABSENT = {"S": {"restart_timer"}, "D": {"restart_timer"}}

#: Public names of the scheduler surface: the class's, plus the three the
#: base class sets per instance.
PUBLIC = {n for n in dir(TimerScheduler) if not n.startswith("_")} | {
    "callback_errors",
    "counter",
    "observer",
}


@pytest.mark.parametrize("name", COMPOSITIONS)
def test_every_composition_exposes_the_public_scheduler_surface(name, tmp_path):
    top = COMPOSITIONS[name](tmp_path)
    missing = {n for n in PUBLIC if not hasattr(top, n)}
    assert missing == ABSENT.get(name[0], set())


def _stream(seed: int = 26, ops: int = 1500):
    """A seeded start/stop/update/advance stream over string ids; stops and
    updates name only timers a deadline model says are still pending."""
    rng = random.Random(seed)
    now, pending, stream = 0, {}, []
    for i in range(ops):
        roll = rng.random()
        if roll < 0.35 or not pending:
            interval = rng.randint(1, 900)
            pending[f"t{i}"] = now + interval
            stream.append(("start", f"t{i}", interval))
        elif roll < 0.55:
            rid = rng.choice(sorted(pending))
            del pending[rid]
            stream.append(("stop", rid))
        elif roll < 0.8:
            rid, interval = rng.choice(sorted(pending)), rng.randint(1, 900)
            pending[rid] = now + interval
            stream.append(("update", rid, interval))
        else:
            ticks = rng.randint(1, 60)
            now += ticks
            pending = {k: v for k, v in pending.items() if v > now}
            stream.append(("advance", ticks))
    stream.append(("advance", 1000))
    return stream


def _replay(top, stream):
    fired = []
    for op, *args in stream:
        if op == "start":
            top.start_timer(args[1], request_id=args[0])
        elif op == "stop":
            top.stop_timer(args[0])
        elif op == "update":
            top.update_timer(*args)
        else:
            fired.extend((t.request_id, t.expired_at) for t in top.advance(*args))
    return fired, top.counter.snapshot()


@pytest.mark.parametrize("name", COMPOSITIONS)
def test_every_composition_replays_the_bare_schemes_expiries_and_charges(
    name, tmp_path
):
    stream = _stream()
    expected = _replay(C(), stream)
    assert len(expected[0]) > 100
    assert _replay(COMPOSITIONS[name](tmp_path), stream) == expected


def test_threadsafe_durable_top_flushes_snapshots_and_closes_under_its_lock(
    tmp_path,
):
    top = T(D(S(C()), tmp_path))
    top.start_timer(40, request_id="a")
    for name in ("flush", "snapshot", "close"):
        done = threading.Event()
        worker = threading.Thread(target=lambda: (getattr(top, name)(), done.set()))
        with top._lock:
            worker.start()
            assert not done.wait(0.1), f"{name} ran without the facade's lock"
        worker.join(5)
        assert done.is_set()
    recovered = recover(tmp_path, lambda: S(C()))
    assert recovered.recovery.snapshot_seq == 1
    assert recovered.get_timer("a").deadline == 40


def test_threadsafe_forwards_the_wrapped_layers_own_calls(tmp_path):
    assert {"adopt_timer", "set_ledger", "sync_clock"} <= set(vars(T(S(C()))))
    assert {"close", "flush", "snapshot", "sync_clock"} <= set(
        vars(T(D(S(C()), tmp_path)))
    )
    top = T(S(C()))
    top.start_timer(5, request_id="x")
    assert [t.request_id for t in top.sync_clock(9)] == ["x"]
    assert top.now == 9 and top.pending_timers() == []


@pytest.mark.parametrize("cls", [T, S, DurableScheduler])
def test_layers_keep_the_fast_attribute_path(cls):
    """A class defining ``__getattr__`` slows every attribute read on its
    instances; the layers bind what they forward instead."""
    for klass in cls.__mro__[:-1]:
        assert "__getattr__" not in vars(klass), klass
        assert "__getattribute__" not in vars(klass), klass


def test_layer_instances_accept_instance_attributes(tmp_path):
    """Tracers wrap a layer's methods by assigning instance attributes."""
    for top in (T(C()), S(C()), D(C(), tmp_path)):
        top.next_expiry = lambda: "wrapped"
        assert top.next_expiry() == "wrapped"


def test_a_layer_must_define_its_mutations():
    with pytest.raises(TypeError, match="update_timer"):

        class Partial(SchedulerLayer):
            def start_timer(self, interval, request_id=None, callback=None):
                return self._inner.start_timer(interval, request_id, callback)

            def stop_timer(self, timer_or_id):
                return self._inner.stop_timer(timer_or_id)
