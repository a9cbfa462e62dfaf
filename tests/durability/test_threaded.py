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
