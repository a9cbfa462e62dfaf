"""Bench-side fault proxies that prove the oracle check can fail.

Each wraps the top of a built stack and breaks exactly one thing the
oracle predicts; a run through either must report failures and exit
nonzero. They are used by ``stackbench/tests`` only.
"""

from __future__ import annotations

from stackbench.measure import Prepared
from stackbench.streams import UPDATE


class _Proxy:
    def __init__(self, top) -> None:
        self._top = top

    def __getattr__(self, name: str):
        return getattr(self._top, name)


class LateFire(_Proxy):
    """Reports the first expiry one tick late."""

    def __init__(self, top, prepared: Prepared) -> None:
        super().__init__(top)
        self._held = None
        self._done = False

    def advance_to(self, deadline: int):
        fired = list(self._top.advance_to(deadline))
        if self._held is not None:
            rid, tick = self._held
            self._held = None
            fired.append(_Fired(rid, tick + 1))
        elif fired and not self._done:
            self._done = True
            first = fired.pop(0)
            self._held = (first.request_id, first.expired_at)
        return fired


class DropUpdate(_Proxy):
    """Swallows the first UPDATE whose new deadline the oracle expects to
    fire within the stream, so that expiry can never come."""

    def __init__(self, top, prepared: Prepared) -> None:
        super().__init__(top)
        self._target = None
        expected = prepared.stream.expected
        for now, ops in enumerate(prepared.stream.ticks):
            for code, rid, interval in ops:
                if code == UPDATE and (rid, now + interval) in expected:
                    self._target = (rid, interval, now)
                    break
            if self._target is not None:
                break

    def update_timer(self, rid, interval):
        if (rid, interval, self._top.now) == self._target:
            self._target = None
            return None
        return self._top.update_timer(rid, interval)


class _Fired:
    """An expiry record as a replay reads it."""

    def __init__(self, request_id: str, expired_at: int) -> None:
        self.request_id = request_id
        self.expired_at = expired_at


#: Fault proxies by the name ``--fault`` selects them with.
FAULTS = {"late": LateFire, "drop": DropUpdate}
