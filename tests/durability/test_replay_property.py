"""Property-style replay determinism on seeded random op streams.

Generate a random interleaving of starts, stops, and clock advances;
run a prefix durably, kill the process, recover from snapshot + journal
tail, run the suffix — the surviving timer set, the expiry sequence,
and every future firing must be identical to the uninterrupted run.
Covers plain schemes and the struct-of-arrays store.
"""

from __future__ import annotations

import random

import pytest

from repro.core.registry import make_scheduler
from repro.durability.service import DurableScheduler, recover

#: (label, make_scheduler kwargs) — the stores the property must hold on.
VARIANTS = [
    ("scheme1", "scheme1", {}),
    ("scheme6", "scheme6", {}),
    ("scheme6-soa", "scheme6", {"store": "soa"}),
    ("lawn", "lawn", {}),
]


def _op_stream(seed, n_ops=120, max_interval=200):
    """A reproducible random mix of starts, stops, and advances."""
    rng = random.Random(seed)
    live, next_id, ops = [], 0, []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.5:
            key = f"t{next_id}"
            next_id += 1
            live.append(key)
            ops.append(("start", key, rng.randint(1, max_interval)))
        elif roll < 0.65 and live:
            ops.append(("stop", live.pop(rng.randrange(len(live))), 0))
        else:
            ops.append(("advance", "", rng.randint(1, 9)))
    return ops


def _drive(scheduler, ops, log):
    for op, key, arg in ops:
        if op == "start":
            scheduler.start_timer(
                arg,
                request_id=key,
                callback=lambda t: log.append((str(t.request_id), t.deadline)),
            )
        elif op == "stop":
            if scheduler.is_pending(key):
                scheduler.stop_timer(key)
        else:
            scheduler.advance(arg)


def _pending(scheduler):
    return sorted(
        (str(t.request_id), t.deadline) for t in scheduler.pending_timers()
    )


@pytest.mark.parametrize("seed", [3, 11, 29])
@pytest.mark.parametrize(
    "label,scheme,kwargs", VARIANTS, ids=[v[0] for v in VARIANTS]
)
def test_replay_from_snapshot_and_tail_reproduces_the_run(
    tmp_path, label, scheme, kwargs, seed
):
    ops = _op_stream(seed)
    cut = random.Random(seed ^ 0xBEEF).randrange(20, len(ops) - 20)

    # the uninterrupted reference
    reference_log = []
    reference = make_scheduler(scheme, **kwargs)
    _drive(reference, ops, reference_log)
    reference_fingerprint = (_pending(reference), reference_log, reference.now)

    # the same stream, durably, dying at the cut
    log = []
    durable = DurableScheduler(
        make_scheduler(scheme, **kwargs),
        tmp_path,
        sync="always",
        snapshot_every=16,
    )
    _drive(durable, ops[:cut], log)
    prefix_log = list(log)
    durable._journal._handle.close()  # simulated power loss, no flush

    recovered = recover(
        tmp_path,
        lambda: make_scheduler(scheme, **kwargs),
        rebind=lambda key, user_data: (
            lambda t: log.append((str(t.request_id), t.deadline))
        ),
    )
    # snapshots bounded the replay to the tail since the last one
    assert recovered.recovery.replayed_records < 16 + len(ops)
    if recovered.recovery.snapshot_seq:
        assert (
            recovered.recovery.replayed_records
            == recovered.recovery.last_seq - recovered.recovery.snapshot_seq
        )
    _drive(recovered, ops[cut:], log)

    # expiry fingerprint: everything fired before the cut is journaled,
    # so prefix + suffix reproduces the uninterrupted firing sequence.
    # Ties within one tick are canonicalised by (deadline, id) — the
    # intra-tick order of equal deadlines is scheme bookkeeping, not
    # semantics (recovery re-arms by remaining interval, which may place
    # same-deadline timers in different TTL buckets than the first run).
    canon = lambda entries: sorted(entries, key=lambda e: (e[1], e[0]))
    journaled_prefix = [
        (key, deadline)
        for key, deadline, _attempts in recovered.state.survivors[: len(prefix_log)]
    ]
    assert canon(journaled_prefix) == canon(reference_log[: len(prefix_log)])
    assert canon(log) == canon(reference_log)
    assert _pending(recovered) == reference_fingerprint[0]
    assert recovered.now == reference_fingerprint[2]
    recovered.close()
