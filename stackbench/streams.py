"""Seeded client op streams and the shadow oracle that predicts their expiries.

A stream is built whole, as plain tuples, before any timing starts. The
generator *is* the oracle: it keeps its own ``id -> deadline`` map while it
draws ops, so it knows which timers are pending when it picks a target and
exactly which ``(id, tick)`` pairs every correct stack must fire. Timers that
fire are restarted under the same id at the start of the next tick, so the
restarts are part of the stream too.

Tick ``t`` of a stream is replayed as: the ops of ``ticks[t]`` (issued while
the stack's clock reads ``t``), then ``advance_to(t + 1)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

#: Op codes of a stream tuple ``(code, request_id, interval)``.
START, UPDATE, STOP = 0, 1, 2
#: Codes of a batched row ``(code, batch, None)``.
START_MANY, UPDATE_MANY, STOP_MANY = 3, 4, 5

Op = Tuple[int, str, int]
Expiry = Tuple[str, int]


@dataclass(frozen=True)
class Mix:
    """A traffic mix: per tick, ``ops_per_tick`` draws on random pending
    timers; each draw is an UPDATE with probability ``p_update`` and
    otherwise a STOP plus a START of a fresh id. Intervals are uniform in
    ``[lo, hi]`` ticks."""

    name: str
    ops_per_tick: int
    p_update: float
    lo: int
    hi: int


#: The paper's section 1 host example: acks re-arm retransmission timers.
RETRANSMIT = Mix("retransmit", ops_per_tick=100, p_update=0.9, lo=16, hi=4000)
#: The same traffic at a fifth of the ops per tick. Through a journal that
#: snapshots every 256 records, a tick of 100 ops makes about one advance
#: in a hundred carry a snapshot, right where its 99th percentile sits, so
#: that tail jumps between two modes from seed to seed; at 20 ops per tick
#: five times as many advances fit in a run and the tail is settled.
RETRANSMIT_20 = Mix("retransmit-20", ops_per_tick=20, p_update=0.9, lo=16, hi=4000)
#: Failure detection: short intervals, so most timers fire and restart.
HEARTBEAT = Mix("heartbeat", ops_per_tick=20, p_update=0.5, lo=16, hi=512)


@dataclass
class Stream:
    """A generated op stream with the expiries it must produce."""

    prime: List[Tuple[str, int]]
    ticks: List[List[Op]]
    expected: Set[Expiry]

    @property
    def op_count(self) -> int:
        """Client calls in the measured phase (priming excluded)."""
        return sum(len(ops) for ops in self.ticks)


def generate(mix: Mix, n: int, ticks: int, seed: int) -> Stream:
    """Draw a stream of ``ticks`` ticks over ``n`` primed timers.

    The same ``(mix, n, ticks, seed)`` always yields the same stream:
    the generator is a string-seeded ``random.Random`` and never iterates a
    set or dict whose order could depend on hashing.
    """
    rng = random.Random(f"{mix.name}:{seed}")
    randint, rand, randrange = rng.randint, rng.random, rng.randrange
    # Shared int objects keep a large stream's memory down.
    intervals = list(range(mix.hi + 1))
    pending: List[str] = []
    slot: Dict[str, int] = {}
    deadline: Dict[str, int] = {}
    due: Dict[int, List[str]] = {}
    serial = 0

    def arm(rid: str, at: int) -> None:
        deadline[rid] = at
        due.setdefault(at, []).append(rid)

    def add(rid: str, at: int) -> None:
        slot[rid] = len(pending)
        pending.append(rid)
        arm(rid, at)

    def remove(rid: str) -> None:
        index = slot.pop(rid)
        last = pending.pop()
        if last != rid:
            pending[index] = last
            slot[last] = index
        del deadline[rid]

    prime: List[Tuple[str, int]] = []
    for _ in range(n):
        rid = f"t{serial}"
        serial += 1
        interval = intervals[randint(mix.lo, mix.hi)]
        prime.append((rid, interval))
        add(rid, interval)

    stream_ticks: List[List[Op]] = []
    expected: Set[Expiry] = set()
    fired: List[str] = []
    for now in range(ticks):
        ops: List[Op] = []
        for rid in fired:
            interval = intervals[randint(mix.lo, mix.hi)]
            ops.append((START, rid, interval))
            add(rid, now + interval)
        for _ in range(mix.ops_per_tick):
            rid = pending[randrange(len(pending))]
            interval = intervals[randint(mix.lo, mix.hi)]
            if rand() < mix.p_update:
                ops.append((UPDATE, rid, interval))
                arm(rid, now + interval)
            else:
                ops.append((STOP, rid, 0))
                remove(rid)
                fresh = f"t{serial}"
                serial += 1
                ops.append((START, fresh, interval))
                add(fresh, now + interval)
        stream_ticks.append(ops)
        tick = now + 1
        fired = []
        for rid in due.pop(tick, ()):
            # A bucket keeps stale entries for ids that moved away (and
            # may list an id twice if it moved back); only the id's
            # current deadline counts, and only once.
            if deadline.get(rid) == tick:
                remove(rid)
                fired.append(rid)
                expected.add((rid, tick))
    return Stream(prime, stream_ticks, expected)


def batches(ops: List[Op]) -> List[tuple]:
    """One tick's ops as batched rows: start_many, update_many, stop_many.

    Replaying the rows in that order is equivalent to replaying ``ops`` in
    order: the generator never touches an id after stopping it, and every
    START precedes any later UPDATE or STOP of the same id. Empty batches
    are left out.
    """
    starts, updates, stops = [], [], []
    for code, rid, interval in ops:
        if code == UPDATE:
            updates.append((rid, interval))
        elif code == START:
            starts.append((interval, rid))
        else:
            stops.append(rid)
    rows = [
        (START_MANY, starts, None),
        (UPDATE_MANY, updates, None),
        (STOP_MANY, stops, None),
    ]
    return [row for row in rows if row[1]]


def mismatches(observed: List[Expiry], expected: Set[Expiry]) -> int:
    """Expiries the oracle did not predict (or predicted at another tick)
    plus predicted expiries that never came. Each firing is one pair, so a
    late firing counts twice: once unpredicted, once missing."""
    seen = set(observed)
    duplicates = len(observed) - len(seen)
    return duplicates + len(seen - expected) + len(expected - seen)
