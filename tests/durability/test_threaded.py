"""The thread-safe durable shape: the facade's lock outermost.

``Journal.append`` and the live reduction are not locked themselves, so
two client threads keep the journal whole only when the one lock of the
stack sits above the durable layer. A lock below it serialises the
scheme, not the journal.
"""

from __future__ import annotations

import random
import sys
import threading

from repro.core.registry import make_scheduler
from repro.core.supervision import SupervisedScheduler
from repro.core.threadsafe import ThreadSafeScheduler
from repro.durability import DurableScheduler, recover
from repro.durability.journal import read_journal
from repro.durability.service import JOURNAL_NAME

IDS_PER_THREAD, UPDATES_PER_THREAD = 200, 3_000


def _client(top, k: int, errors: list) -> None:
    try:
        rng = random.Random(k)
        ids = [f"c{k}-{i}" for i in range(IDS_PER_THREAD)]
        for rid in ids:
            top.start_timer(rng.randint(1_000, 5_000), request_id=rid)
        for _ in range(UPDATES_PER_THREAD):
            top.update_timer(rng.choice(ids), rng.randint(1_000, 5_000))
    except Exception as exc:  # noqa: BLE001 - surfaced to the test
        errors.append(exc)


def test_two_threads_through_threadsafe_durable_top_recover(tmp_path):
    def stack():
        return SupervisedScheduler(make_scheduler("scheme6"))

    top = ThreadSafeScheduler(
        DurableScheduler(stack(), tmp_path, sync="never", snapshot_every=None)
    )
    errors: list = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=_client, args=(top, k, errors)) for k in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    expected = {(t.request_id, t.deadline) for t in top.pending_timers()}
    assert len(expected) == 2 * IDS_PER_THREAD
    top.close()
    recovered = recover(tmp_path, stack)
    assert recovered.recovery.replayed_records == 2 * (
        IDS_PER_THREAD + UPDATES_PER_THREAD
    )
    assert {(t.request_id, t.deadline) for t in recovered.pending_timers()} == expected


def _journaled_ops(directory, wrap):
    durable = DurableScheduler(
        SupervisedScheduler(make_scheduler("scheme7")), directory, sync="never"
    )
    top = wrap(durable)
    for i in range(100):
        top.start_timer(10 * (i + 1), request_id=f"t{i}")
    fired = top.advance(2_000)
    assert len(fired) == 100
    top.close()
    records = read_journal(directory / JOURNAL_NAME).records
    return [(op, data) for _, op, data in records]


def test_threadsafe_top_journals_one_advance_per_client_call(tmp_path):
    """The facade hands a layer one ``advance_to`` per call, not one per
    event hop, so the journal is the one the durable layer alone writes."""
    bare = _journaled_ops(tmp_path / "durable", lambda durable: durable)
    locked = _journaled_ops(tmp_path / "threadsafe", ThreadSafeScheduler)
    assert [op for op, _ in locked].count("advance") == 1
    assert locked == bare
