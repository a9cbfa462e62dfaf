"""Multi-threaded clients racing a ticker against both thread-safe surfaces.

N client threads issue start/stop traffic while a dedicated ticker thread
advances the clock.  Whatever interleaving the scheduler OS picks, the
outcome must be exact: every timer that was started and not stopped fires
exactly once (no lost expiries, no double fires), every planned stop lands
(stop targets carry intervals far beyond the ticker's reach, so a stop can
never race its own expiry), and the aggregate bookkeeping is bit-identical
to a single-threaded control run of the same operation plan.
"""

from __future__ import annotations

import random
import threading
from collections import Counter

import pytest

from repro.core import make_scheduler
from repro.core.threadsafe import ThreadSafeScheduler
from repro.sharding import ShardedTimerService
from repro.sharding.backends import backend_availability

N_CLIENTS = 4
OPS_PER_CLIENT = 120
RACE_TICKS = 200
FIRE_MAX_INTERVAL = 50
# Stop targets must be unreachable while clients and the ticker race:
# the clock can move at most RACE_TICKS during the racing window plus
# the drain below, so this interval guarantees stop-before-expiry.
STOP_SAFE_INTERVAL = 100_000
DRAIN = RACE_TICKS + FIRE_MAX_INTERVAL + 10


def _make_plans():
    """One deterministic op script per client.

    Each op is ("start", request_id, interval) or ("stop", request_id).
    Clients only ever stop timers they themselves started earlier with the
    stop-safe interval, so a stop cannot miss whatever the interleaving.
    """
    rng = random.Random(1987)
    plans = []
    for client in range(N_CLIENTS):
        ops = []
        stoppable = []
        for i in range(OPS_PER_CLIENT):
            rid = f"c{client}-{i}"
            if stoppable and rng.random() < 0.25:
                ops.append(("stop", stoppable.pop(0)))
            elif rng.random() < 0.3:
                ops.append(("start", rid, STOP_SAFE_INTERVAL))
                stoppable.append(rid)
            else:
                ops.append(("start", rid, 1 + rng.randrange(FIRE_MAX_INTERVAL)))
        # Drain the stop-safe stragglers so every started timer either
        # fires in the drain window or is explicitly stopped.
        ops.extend(("stop", rid) for rid in stoppable)
        plans.append(ops)
    return plans


def _run_plans_threaded(service, plans, fired):
    barrier = threading.Barrier(len(plans) + 1)
    errors = []

    def client(ops):
        try:
            barrier.wait()
            for op in ops:
                if op[0] == "start":
                    _, rid, interval = op
                    service.start_timer(
                        interval,
                        request_id=rid,
                        callback=lambda t: fired.append(t.request_id),
                    )
                else:
                    service.stop_timer(op[1])
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def ticker():
        try:
            barrier.wait()
            for _ in range(RACE_TICKS):
                service.tick()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(ops,)) for ops in plans]
    threads.append(threading.Thread(target=ticker))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    # Quiesce: fire everything that survived the race except the
    # stop-safe stragglers (clients may finish before the ticker, so
    # some short timers are still pending here).
    service.advance(DRAIN)


def _run_plans_serial(service, plans, fired):
    for ops in plans:
        for op in ops:
            if op[0] == "start":
                _, rid, interval = op
                service.start_timer(
                    interval,
                    request_id=rid,
                    callback=lambda t: fired.append(t.request_id),
                )
            else:
                service.stop_timer(op[1])
    service.advance(RACE_TICKS)
    service.advance(DRAIN)


def _bookkeeping(service):
    info = service.introspect()
    return (
        info["total_started"],
        info["total_stopped"],
        info["total_expired"],
        service.pending_count,
    )


def _expected_outcome(plans):
    started, stopped = set(), set()
    for ops in plans:
        for op in ops:
            if op[0] == "start":
                started.add(op[1])
            else:
                stopped.add(op[1])
    return started, stopped


def _build(surface):
    if surface == "facade":
        return ThreadSafeScheduler(make_scheduler("scheme6", table_size=256))
    return ShardedTimerService("scheme6", 4, table_size=256)


def _remote_backend_params():
    usable, reason = backend_availability()["multiprocessing"]
    marks = [] if usable else [pytest.mark.skip(reason=reason)]
    return [pytest.param("multiprocessing", marks=marks)]


def _run_plans_threaded_remote(service, plans, fired):
    """The racing driver for remote backends.

    Callbacks cannot cross an address-space boundary, so the fired set
    is collected from the expiry lists ``tick``/``advance`` *return* —
    which is the remote contract anyway. One lock guards the shared
    ``fired`` list against the ticker thread.
    """
    barrier = threading.Barrier(len(plans) + 1)
    errors = []
    fired_lock = threading.Lock()

    def record(expired):
        with fired_lock:
            fired.extend(t.request_id for t in expired)

    def client(ops):
        try:
            barrier.wait()
            for op in ops:
                if op[0] == "start":
                    _, rid, interval = op
                    service.start_timer(interval, request_id=rid)
                else:
                    service.stop_timer(op[1])
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def ticker():
        try:
            barrier.wait()
            for _ in range(RACE_TICKS):
                record(service.tick())
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(ops,)) for ops in plans]
    threads.append(threading.Thread(target=ticker))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    record(service.advance(DRAIN))


@pytest.mark.parametrize("backend", _remote_backend_params())
def test_racing_clients_over_remote_backend(backend):
    """The racing invariants hold when every client op crosses a process
    boundary: no lost expiries, no double fires, and
    bookkeeping identical to an in-process control run of the same plan."""
    plans = _make_plans()
    started, stopped = _expected_outcome(plans)

    fired = []
    with ShardedTimerService(
        "scheme6", 4, table_size=256, backend=backend
    ) as service:
        _run_plans_threaded_remote(service, plans, fired)
        remote_books = _bookkeeping(service)

    counts = Counter(fired)
    assert not [rid for rid, n in counts.items() if n > 1], "double fire"
    assert set(counts) == started - stopped, "lost or phantom expiry"

    control = _build("sharded")
    control_fired = []
    _run_plans_serial(control, plans, control_fired)
    assert remote_books == _bookkeeping(control)
    assert sorted(fired) == sorted(control_fired)


@pytest.mark.parametrize("surface", ["facade", "sharded"])
def test_racing_clients_lose_nothing_and_fire_once(surface):
    plans = _make_plans()
    started, stopped = _expected_outcome(plans)

    fired = []
    _run_plans_threaded(_build(surface), plans, fired)

    counts = Counter(fired)
    assert not [rid for rid, n in counts.items() if n > 1], "double fire"
    assert set(counts) == started - stopped, "lost or phantom expiry"


@pytest.mark.parametrize("surface", ["facade", "sharded"])
def test_racing_bookkeeping_matches_single_threaded_control(surface):
    plans = _make_plans()

    threaded_fired = []
    threaded = _build(surface)
    _run_plans_threaded(threaded, plans, threaded_fired)

    control_fired = []
    control = _build(surface)
    _run_plans_serial(control, plans, control_fired)

    assert _bookkeeping(threaded) == _bookkeeping(control)
    # Which timers fired is interleaving-independent even though the
    # order they fired in is not.
    assert sorted(threaded_fired) == sorted(control_fired)


def test_threaded_batches_against_sharded_service():
    """start_many/stop_many from racing clients take each shard lock once
    per batch and must be exactly as safe as the per-op path."""
    plans = _make_plans()
    service = _build("sharded")
    fired = []
    barrier = threading.Barrier(N_CLIENTS + 1)
    errors = []

    def client(ops):
        try:
            barrier.wait()
            pending_specs = []
            for op in ops:
                if op[0] == "start":
                    _, rid, interval = op
                    pending_specs.append(
                        (
                            interval,
                            rid,
                            lambda t: fired.append(t.request_id),
                        )
                    )
                    if len(pending_specs) >= 8:
                        service.start_many(pending_specs)
                        pending_specs = []
                else:
                    # Flush so the stop target definitely exists.
                    if pending_specs:
                        service.start_many(pending_specs)
                        pending_specs = []
                    service.stop_many([op[1]])
            if pending_specs:
                service.start_many(pending_specs)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def ticker():
        try:
            barrier.wait()
            for _ in range(RACE_TICKS):
                service.tick()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(ops,)) for ops in plans]
    threads.append(threading.Thread(target=ticker))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    service.advance(DRAIN)

    started, stopped = _expected_outcome(plans)
    counts = Counter(fired)
    assert not [rid for rid, n in counts.items() if n > 1]
    assert set(counts) == started - stopped
    assert service.pending_count == 0
