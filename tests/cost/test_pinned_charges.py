"""Pinned OpCounter charges and expiry streams for the wheel schemes.

``tests/core/test_soa_store.py`` checks that the two stores agree with
each other, which still passes when both drift the same way. This test
pins absolute values instead: a seeded retransmit stream and a seeded
heartbeat stream replayed through schemes 4, 6 and 7 on both stores must
reproduce, exactly,

* the set of distinct charges each routine made (START, UPDATE, STOP, and
  one ``advance_to`` of a tick; the tick set is pinned by its sha256),
* the final ``(reads, writes, compares, links)`` totals, and
* the sha256 of the ``(request_id, tick)`` expiry sequence.

The literals are fixed values, never regenerated from the code under test:
a hot-path rewrite that moves any charge, or reorders any expiry, fails
here.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import make_scheduler

#: Geometries that hold every interval of both streams.
GEOMETRY = {
    "scheme4": {"max_interval": 1 << 13},
    "scheme6": {"table_size": 256},
    "scheme7": {"slot_counts": (16, 16, 16, 16)},
}

#: ``(primed timers, draws per tick, P(update), lo, hi, ticks)``. Each draw
#: on a random pending timer is an UPDATE, or else a STOP plus a START of a
#: fresh id; timers that fire are restarted under their id the next tick.
STREAMS = {
    "retransmit": (400, 20, 0.9, 16, 4000, 900),
    "heartbeat": (300, 10, 0.5, 16, 512, 900),
}

#: (scheme, stream) -> (START, UPDATE and STOP charge sets, sha256 of the
#: sorted tick charge set, final totals, sha256 of the expiry sequence).
PINNED = {
    ("scheme4", "heartbeat"): (
        [(1, 1, 0, 1)],
        [(0, 0, 0, 2)],
        [(0, 0, 0, 1)],
        "900f2294b738d6f07688afbfd9f9d5a76578d6de60d93688497e3404ecf7fd19",
        (7219, 6571, 1413, 19296),
        "eccce7f03b1e1311a0911ab44853c51bc3a063c4541632f6311248666e05227c",
    ),
    ("scheme4", "retransmit"): (
        [(1, 1, 0, 1)],
        [(0, 0, 0, 2)],
        [(0, 0, 0, 1)],
        "af3108bfbbc5451aeead0802d6ecc8946ebe99eaac391ca4c568f64433a35e8b",
        (7627, 7186, 4901, 36882),
        "cd8b859b67f0d454c5cef68fbf880ae5a86a6e474affc0c19cefb051718a7bff",
    ),
    ("scheme6", "heartbeat"): (
        [(4, 4, 1, 4)],
        [(3, 2, 1, 4)],
        [(2, 1, 0, 4)],
        "9478bbdd70c6a21e347d3a4749e13fe2d996c2082adc47257740936d7c821f6e",
        (51879, 38808, 13038, 59257),
        "eccce7f03b1e1311a0911ab44853c51bc3a063c4541632f6311248666e05227c",
    ),
    ("scheme6", "retransmit"): (
        [(4, 4, 1, 4)],
        [(3, 2, 1, 4)],
        [(2, 1, 0, 4)],
        "1aa6abb086c170a8d06250c4c2eacb11f9700ac9fa929b17b49b8b0ee339256c",
        (86668, 54269, 28532, 86771),
        "cd8b859b67f0d454c5cef68fbf880ae5a86a6e474affc0c19cefb051718a7bff",
    ),
    ("scheme7", "heartbeat"): (
        [(1, 1, 2, 1), (1, 1, 3, 1)],
        [(1, 0, 0, 2)],
        [(0, 0, 0, 1)],
        "c985d65ab5ff5f34aae6d1a1e600a848c81c7bb7329300d25193cc7c23f335c0",
        (14470, 9318, 17878, 21964),
        "fb8a4d3c8ab7862d4925d0ef5f4bd8cf36b935064271509a43bc8f32724ef231",
    ),
    ("scheme7", "retransmit"): (
        [(1, 1, 1, 1), (1, 1, 2, 1), (1, 1, 3, 1)],
        [(1, 0, 0, 2)],
        [(0, 0, 0, 1)],
        "1a5d7b6c1b696d03ad5743bd0a804adee86145da4173abc282670e105b5b1abd",
        (25997, 13031, 12908, 38770),
        "dab9ad284ba46beb953da639c533482a53f57a651b63a560f3cd919bb69d077e",
    ),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _replay(scheme: str, store: str, stream: str):
    sched = make_scheduler(scheme, store=store, **GEOMETRY[scheme])
    counter = sched.counter
    charges = {"start": set(), "update": set(), "stop": set(), "tick": set()}

    def charged(routine, call, *args):
        before = counter.snapshot()
        result = call(*args)
        delta = counter.since(before)
        charges[routine].add(
            (delta.reads, delta.writes, delta.compares, delta.links)
        )
        return result

    n, draws, p_update, lo, hi, ticks = STREAMS[stream]
    rng = random.Random(f"{stream}:1987")
    pending = []
    serial = 0
    for _ in range(n):
        rid = f"t{serial}"
        serial += 1
        charged("start", sched.start_timer, rng.randint(lo, hi), rid)
        pending.append(rid)
    expiries = []
    fired = []
    for now in range(ticks):
        for rid in fired:
            charged("start", sched.start_timer, rng.randint(lo, hi), rid)
            pending.append(rid)
        for _ in range(draws):
            index = rng.randrange(len(pending))
            rid = pending[index]
            interval = rng.randint(lo, hi)
            if rng.random() < p_update:
                charged("update", sched.update_timer, rid, interval)
            else:
                charged("stop", sched.stop_timer, rid)
                pending[index] = pending[-1]
                pending.pop()
                fresh = f"t{serial}"
                serial += 1
                charged("start", sched.start_timer, interval, fresh)
                pending.append(fresh)
        out = charged("tick", sched.advance_to, now + 1)
        fired = [timer.request_id for timer in out]
        expiries.extend((timer.request_id, timer.expired_at) for timer in out)
        if fired:
            gone = set(fired)
            pending = [rid for rid in pending if rid not in gone]
    expiries.extend((t.request_id, t.expired_at) for t in sched.advance(hi + 1))
    assert sched.pending_count == 0
    totals = (counter.reads, counter.writes, counter.compares, counter.links)
    return (
        sorted(charges["start"]),
        sorted(charges["update"]),
        sorted(charges["stop"]),
        _sha(sorted(charges["tick"])),
        totals,
        _sha(expiries),
    )


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("store", ("object", "soa"))
@pytest.mark.parametrize("scheme", sorted(GEOMETRY))
def test_charges_and_expiries_match_pinned_literals(scheme, store, stream):
    assert _replay(scheme, store, stream) == PINNED[(scheme, stream)]
