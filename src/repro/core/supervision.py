"""Supervised EXPIRY_PROCESSING: retry, quarantine, and overload shedding.

The paper's timer-module model treats EXPIRY_PROCESSING as infallible; a
production facility cannot. :class:`SupervisedScheduler` wraps any
:class:`~repro.core.interface.TimerScheduler` with a fault-tolerance tier
built out of the paper's own primitive:

* **Retry with backoff** — when a client Expiry_Action raises, the
  supervisor re-arms the timer as a *fresh START_TIMER on the wheel
  itself*: the backoff interval is just a timer interval, so every retry
  is a first-class wheel entry, visible in ``introspect()``, the trace
  stream (``start`` + ``retry`` events), and ``pending_count``. Backoff
  is exponential with deterministic, seedable jitter
  (:meth:`RetryPolicy.backoff_for`).
* **Quarantine** — a timer that exhausts :attr:`RetryPolicy.max_attempts`
  (or overruns its per-timer retry deadline) is parked in a quarantine
  set exposed through :meth:`SupervisedScheduler.introspect` and the
  ``on_quarantine`` observer hook; one persistently-failing client action
  can never starve the rest of the wheel.
* **Overload shedding** — each tick's expiry batch is metered against a
  configurable ``tick_budget`` (cost units via a pluggable ``cost_hook``;
  default one unit per expiry). Once the budget is exhausted the
  remaining expiries of that tick are shed by policy: ``"defer"``
  (re-arm one tick later), ``"drop"`` (record and discard), or
  ``"degrade"`` (re-arm at the next multiple of ``degrade_quantum`` —
  lossy rounding à la the Nichols no-migration variant). The first
  expiry of a tick always runs, so a single over-budget action overruns
  (counted) instead of deferring forever.
* **Clock-jump discipline** — :meth:`SupervisedScheduler.sync_clock`
  follows an external wall clock. Forward jumps advance the wheel (due
  timers fire late, never skipped); backward jumps *never rewind* the
  scheduler, so no timer can fire early. Both are counted and surfaced
  via the ``on_clock_jump`` hook.

The supervisor intercepts failures through the same thin expiry-action
wrapper seam the fault-injection harness (:mod:`repro.faults`) uses:
every client callback is replaced by one bound dispatcher, so all nine
scheme modules are supervised without any per-scheme code.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro.core.errors import TimerStateError, UnknownTimerError
from repro.core.interface import ExpiryAction, Timer, TimerScheduler
from repro.core.layer import SchedulerLayer
from repro.core.observer import NULL_OBSERVER

#: Recognised overload responses (see module docstring).
OVERLOAD_POLICIES = ("defer", "drop", "degrade")


def _unit(seed: int, *parts: object) -> float:
    """A deterministic uniform in [0, 1) keyed on ``(seed, *parts)``.

    Uses CRC32 over the reprs rather than ``hash()`` so decisions are
    stable across processes (str hashing is salted per interpreter run).
    """
    key = "|".join([str(seed)] + [repr(p) for p in parts])
    return (zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF) / 2.0**32


class RearmId:
    """Inner request id for a supervisor re-arm of ``origin``.

    Distinct from the client's id (which the client may legitimately
    reuse after an expiry) yet traceable back to it: ``origin_of``
    recovers the client id, and ``str()`` renders ``rearm:<seq>:<origin>``
    so the re-arm is recognisable in traces and introspection.
    """

    __slots__ = ("origin", "seq")

    def __init__(self, origin: Hashable, seq: int) -> None:
        self.origin = origin
        self.seq = seq

    def __hash__(self) -> int:
        return hash(("__rearm__", self.origin, self.seq))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RearmId)
            and self.origin == other.origin
            and self.seq == other.seq
        )

    def __repr__(self) -> str:
        return f"rearm:{self.seq}:{self.origin}"

    __str__ = __repr__


def origin_of(request_id: Hashable) -> Hashable:
    """The client-facing request id behind a possibly re-armed inner id."""
    return request_id.origin if isinstance(request_id, RearmId) else request_id


@dataclass(frozen=True)
class RetryPolicy:
    """How failed Expiry_Actions are retried.

    ``max_attempts`` counts every run of the action, the first included;
    ``retry_deadline`` (ticks past the timer's original deadline) bounds
    how late a retry may still be scheduled — ``None`` means unbounded.
    Jitter is deterministic per ``(seed, request_id, attempt)`` so a
    replayed fault plan produces identical schedules on every scheme.
    """

    max_attempts: int = 3
    base_backoff: int = 1
    backoff_multiplier: float = 2.0
    max_backoff: int = 256
    jitter: float = 0.0
    retry_deadline: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff < 1:
            raise ValueError(f"base_backoff must be >= 1, got {self.base_backoff}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_for(self, request_id: Hashable, attempt: int) -> int:
        """Backoff (ticks, >= 1) before retry number ``attempt + 1``.

        Exponential in the number of failures so far, capped at
        ``max_backoff``, with symmetric deterministic jitter of up to
        ``jitter`` of the raw value.
        """
        raw = self.base_backoff * self.backoff_multiplier ** (attempt - 1)
        raw = min(raw, float(self.max_backoff))
        if self.jitter:
            u = _unit(self.seed, origin_of(request_id), attempt)
            raw *= 1.0 - self.jitter + 2.0 * self.jitter * u
        return max(1, int(round(raw)))


@dataclass
class QuarantineRecord:
    """Why and when a timer was parked (JSON-friendly via ``as_dict``)."""

    __slots__ = (
        "request_id", "attempts", "reason", "error",
        "quarantined_at", "deadline",
    )

    request_id: Hashable
    attempts: int
    reason: str  #: "attempts" (budget exhausted) or "deadline"
    error: str  #: repr of the last exception
    quarantined_at: int
    deadline: int

    def as_dict(self) -> Dict[str, object]:
        """The record as a plain dict for ``introspect()``/JSON export."""
        return {
            "request_id": str(self.request_id),
            "attempts": self.attempts,
            "reason": self.reason,
            "error": self.error,
            "quarantined_at": self.quarantined_at,
            "deadline": self.deadline,
        }


class _Entry:
    """Supervisor bookkeeping for one client timer."""

    __slots__ = (
        "origin",
        "callback",
        "user_data",
        "attempts",
        "deadline",
        "inner_id",
        "rearm_seq",
    )

    def __init__(
        self,
        origin: Hashable,
        callback: Optional[ExpiryAction],
        user_data: object,
        deadline: int,
    ) -> None:
        self.origin = origin
        self.callback = callback
        self.user_data = user_data
        self.attempts = 0
        self.deadline = deadline
        self.inner_id: Hashable = origin
        self.rearm_seq = 0


class SupervisedScheduler(SchedulerLayer):
    """Fault-tolerant layer over any :class:`TimerScheduler`.

    Forwards the :class:`~repro.core.layer.SchedulerLayer` surface;
    clients keep using their own request ids (``stop_timer``,
    ``update_timer``, ``get_timer`` and ``is_pending`` resolve through any
    number of internal re-arms). ``restart_timer`` is deliberately absent:
    a supervised timer is re-armed by the supervisor, not the client. See
    the module docstring for the policy tiers. The wrapped scheduler must
    not be driven directly once supervised.
    """

    def __init__(
        self,
        scheduler: TimerScheduler,
        retry_policy: Optional[RetryPolicy] = None,
        tick_budget: Optional[int] = None,
        overload_policy: str = "defer",
        degrade_quantum: int = 8,
        cost_hook: Optional[Callable[[Timer], int]] = None,
    ) -> None:
        if tick_budget is not None and tick_budget < 1:
            raise ValueError(f"tick_budget must be >= 1, got {tick_budget}")
        if overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, "
                f"got {overload_policy!r}"
            )
        if degrade_quantum < 1:
            raise ValueError(f"degrade_quantum must be >= 1, got {degrade_quantum}")
        super().__init__(scheduler)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.tick_budget = tick_budget
        self.overload_policy = overload_policy
        self.degrade_quantum = degrade_quantum
        #: cost (budget units) of running one expiry; default 1 per timer.
        #: The fault harness plugs simulated slow/hanging durations in here.
        self.cost_hook = cost_hook
        self._entries: Dict[Hashable, _Entry] = {}
        #: parked timers, keyed by client request id.
        self.quarantine: Dict[Hashable, QuarantineRecord] = {}
        #: (request_id, client deadline, attempts) per *successful* expiry,
        #: in firing order — the chaos suite's surviving-expiry sequence.
        self.survivors: List[Tuple[Hashable, int, int]] = []
        #: request ids dropped by the "drop" overload policy, in shed order.
        self.shed_timers: List[Tuple[Hashable, int]] = []
        self.retries = 0
        self.quarantined_total = 0
        self.shed_total = 0
        self.deferred = 0
        self.dropped = 0
        self.degraded = 0
        self.clock_jumps = 0
        self.overruns = 0
        self._budget_tick = -1
        self._budget_used = 0
        self._last_sync = scheduler.now
        self._synced = False
        #: optional durability seam: ``ledger(op, data)`` is called after
        #: each supervision outcome (expire/rearm/shed/quarantine) so a
        #: write-ahead journal can persist it. ``None`` costs nothing.
        self._ledger: Optional[Callable[[str, Dict[str, object]], object]] = None

    # ------------------------------------------------------------ client API

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> Timer:
        """START_TIMER under supervision.

        The client's ``callback`` is held by the supervisor; the inner
        timer carries the supervisor's dispatcher instead, which is what
        lets a failure be retried on the wheel. Restarting an id that sits
        in quarantine releases the quarantine record.
        """
        if request_id is not None and request_id in self._entries:
            # The inner scheduler can't catch this itself while the entry
            # is pending under a RearmId, so mirror its contract here.
            raise TimerStateError(
                f"request_id {request_id!r} already names a supervised timer"
            )
        timer = self._inner.start_timer(
            interval,
            request_id=request_id,
            callback=self._dispatch,
            user_data=user_data,
        )
        origin = timer.request_id
        self.quarantine.pop(origin, None)
        self._entries[origin] = _Entry(origin, callback, user_data, timer.deadline)
        return timer

    def _unsupervised(self, origin: Hashable) -> Exception:
        """The error for a client id that names no supervised timer."""
        if origin in self.quarantine:
            return TimerStateError(
                f"timer {origin!r} is quarantined, not pending; "
                "release_quarantined() to inspect or clear it"
            )
        return UnknownTimerError(f"no supervised timer with request_id {origin!r}")

    def stop_timer(self, timer_or_id: Union[Timer, Hashable]) -> Timer:
        """STOP_TIMER by client id, resolving through any pending re-arm."""
        if isinstance(timer_or_id, Timer):
            origin = origin_of(timer_or_id.request_id)
        else:
            origin = origin_of(timer_or_id)
        entry = self._entries.get(origin)
        if entry is None:
            raise self._unsupervised(origin)
        stopped = self._inner.stop_timer(entry.inner_id)
        del self._entries[origin]
        return stopped

    def update_timer(
        self, timer_or_id: Union[Timer, Hashable], new_interval: int
    ) -> Timer:
        """UPDATE_TIMER by client id, resolving through any pending re-arm.

        The native in-place re-arm of the inner scheme: the record (and
        its current inner id, RearmId or not) is kept, only its deadline
        moves. The supervisor's client deadline follows the update, so
        retry-deadline accounting measures lateness from the *new* due
        tick.
        """
        if isinstance(timer_or_id, Timer):
            origin = origin_of(timer_or_id.request_id)
        else:
            origin = origin_of(timer_or_id)
        entry = self._entries.get(origin)
        if entry is None:
            raise self._unsupervised(origin)
        updated = self._inner.update_timer(entry.inner_id, new_interval)
        entry.deadline = updated.deadline
        return updated

    def get_timer(self, request_id: Hashable) -> Timer:
        """The inner record of a client timer, resolving through re-arms.

        Mid-retry this is the re-armed record (its ``request_id`` is the
        current :class:`RearmId`); errors match :meth:`stop_timer`.
        """
        origin = origin_of(request_id)
        entry = self._entries.get(origin)
        if entry is None:
            raise self._unsupervised(origin)
        return self._inner.get_timer(entry.inner_id)

    def shutdown(self) -> List[Timer]:
        """Cancel everything (retry re-arms included) and close the module."""
        cancelled = self._inner.shutdown()
        self._entries.clear()
        return cancelled

    # ----------------------------------------------------------- clock jumps

    def sync_clock(self, wall_tick: int) -> List[Timer]:
        """Follow an external clock reading, tolerating jumps.

        Normal operation is a monotone series of readings; the scheduler
        is advanced to each. A *forward jump* (reading more than one tick
        past the previous one) is counted and advanced through — timers
        in the gap fire late, never skipped. A *backward jump* is counted
        but never rewinds the scheduler, and readings below the
        high-water mark advance nothing — the guarantee that a backward
        clock jump can never fire a timer early.

        The very first reading only establishes the baseline: an external
        clock may legitimately start anywhere, so it advances the wheel
        but is never counted as a jump.
        """
        previous = self._last_sync
        delta = wall_tick - previous
        self._last_sync = wall_tick
        if not self._synced:
            self._synced = True
            if wall_tick <= self._inner.now:
                return []
            return self._inner.advance_to(wall_tick)
        if delta < 0:
            self.clock_jumps += 1
            observer = self._inner.observer
            if observer is not NULL_OBSERVER:
                observer.on_clock_jump(self._inner, previous, wall_tick)
            return []
        if delta > 1:
            self.clock_jumps += 1
            observer = self._inner.observer
            if observer is not NULL_OBSERVER:
                observer.on_clock_jump(self._inner, previous, wall_tick)
        if wall_tick <= self._inner.now:
            return []  # still catching up to the pre-jump high-water mark
        return self._inner.advance_to(wall_tick)

    # ------------------------------------------------------------ dispatcher

    def _dispatch(self, timer: Timer) -> None:
        """The one Expiry_Action every supervised timer carries."""
        origin = origin_of(timer.request_id)
        entry = self._entries.get(origin)
        if entry is None or entry.inner_id != timer.request_id:
            return  # stale re-arm superseded by a stop/restart
        inner = self._inner
        if self.tick_budget is not None and not self._admit(entry, timer):
            return
        entry.attempts += 1
        try:
            if entry.callback is not None:
                entry.callback(timer)
        except Exception as exc:  # noqa: BLE001 - supervision decides
            observer = inner.observer
            if observer is not NULL_OBSERVER:
                observer.on_callback_error(inner, timer, exc)
            self._retry_or_quarantine(entry, timer, exc)
        else:
            del self._entries[origin]
            self.survivors.append((origin, entry.deadline, entry.attempts))
            if self._ledger is not None:
                self._ledger(
                    "expire",
                    {
                        "id": str(origin),
                        "deadline": entry.deadline,
                        "attempts": entry.attempts,
                        "now": inner.now,
                    },
                )

    def _admit(self, entry: _Entry, timer: Timer) -> bool:
        """Charge the tick budget; shed per policy when exhausted.

        The first expiry of a tick always runs (an over-budget single
        action overruns rather than deferring forever); anything after
        the budget line is shed.
        """
        inner = self._inner
        now = inner.now
        if now != self._budget_tick:
            self._budget_tick = now
            self._budget_used = 0
        cost = self.cost_hook(timer) if self.cost_hook is not None else 1
        budget = self.tick_budget
        if self._budget_used > 0 and self._budget_used + cost > budget:
            self._shed(entry, timer)
            return False
        before = self._budget_used
        self._budget_used += cost
        if before <= budget < self._budget_used:
            self.overruns += 1
        return True

    def _shed(self, entry: _Entry, timer: Timer) -> None:
        policy = self.overload_policy
        self.shed_total += 1
        inner = self._inner
        observer = inner.observer
        if policy == "drop":
            self.dropped += 1
            self.shed_timers.append((entry.origin, inner.now))
            del self._entries[entry.origin]
            if observer is not NULL_OBSERVER:
                observer.on_shed(inner, timer, policy)
            if self._ledger is not None:
                self._ledger(
                    "shed",
                    {"id": str(entry.origin), "policy": policy, "now": inner.now},
                )
            return
        if policy == "defer":
            self.deferred += 1
            interval = 1
        else:  # degrade: round up to the next degrade_quantum boundary
            self.degraded += 1
            quantum = self.degrade_quantum
            interval = quantum - inner.now % quantum or quantum
        self._rearm(entry, interval, timer)
        if observer is not NULL_OBSERVER:
            observer.on_shed(inner, timer, policy)
        if self._ledger is not None:
            self._ledger(
                "shed",
                {
                    "id": str(entry.origin),
                    "policy": policy,
                    "due": inner.now + interval,
                    "rearm_seq": entry.rearm_seq,
                    "now": inner.now,
                },
            )

    def _retry_or_quarantine(
        self, entry: _Entry, timer: Timer, exc: BaseException
    ) -> None:
        policy = self.retry_policy
        inner = self._inner
        if entry.attempts >= policy.max_attempts:
            self._quarantine(entry, timer, exc, "attempts")
            return
        backoff = policy.backoff_for(entry.origin, entry.attempts)
        retry_at = inner.now + backoff
        if (
            policy.retry_deadline is not None
            and retry_at > entry.deadline + policy.retry_deadline
        ):
            self._quarantine(entry, timer, exc, "deadline")
            return
        self._rearm(entry, backoff, timer)
        self.retries += 1
        observer = inner.observer
        if observer is not NULL_OBSERVER:
            observer.on_retry(inner, timer, entry.attempts, retry_at)
        if self._ledger is not None:
            self._ledger(
                "rearm",
                {
                    "id": str(entry.origin),
                    "attempt": entry.attempts,
                    "rearm_seq": entry.rearm_seq,
                    "due": retry_at,
                    "now": inner.now,
                },
            )

    def _rearm(self, entry: _Entry, interval: int, timer: Timer) -> None:
        """Re-arm the just-expired record ``interval`` ticks out.

        Formerly this allocated a *fresh* inner timer per retry, leaving a
        dead record behind each attempt; now the expired record itself is
        restarted under the next :class:`RearmId`, so one client timer is
        exactly one record for its whole retry chain.
        """
        inner = self._inner
        bound = inner.max_start_interval()
        if bound is not None and interval >= bound:
            interval = bound - 1
        entry.rearm_seq += 1
        rearm_id = RearmId(entry.origin, entry.rearm_seq)
        entry.inner_id = rearm_id
        inner.restart_timer(timer, interval=interval, request_id=rearm_id)

    def _quarantine(
        self, entry: _Entry, timer: Timer, exc: BaseException, reason: str
    ) -> None:
        inner = self._inner
        del self._entries[entry.origin]
        self.quarantine[entry.origin] = QuarantineRecord(
            request_id=entry.origin,
            attempts=entry.attempts,
            reason=reason,
            error=repr(exc),
            quarantined_at=inner.now,
            deadline=entry.deadline,
        )
        self.quarantined_total += 1
        observer = inner.observer
        if observer is not NULL_OBSERVER:
            observer.on_quarantine(inner, timer, entry.attempts, exc)
        if self._ledger is not None:
            self._ledger(
                "quarantine",
                {
                    "id": str(entry.origin),
                    "attempts": entry.attempts,
                    "reason": reason,
                    "error": repr(exc),
                    "at": inner.now,
                    "deadline": entry.deadline,
                },
            )

    # ------------------------------------------------------------ durability

    def set_ledger(
        self, ledger: Optional[Callable[[str, Dict[str, object]], object]]
    ) -> None:
        """Install (or clear) the durability ledger seam.

        ``ledger(op, data)`` is invoked after every supervision outcome —
        ``expire`` (a survivor), ``rearm``, ``shed``, ``quarantine`` —
        with a JSON-ready payload. The durable service journals these so
        crash recovery can reduce the log back to this supervisor's
        state without re-running any client callback.
        """
        self._ledger = ledger

    def adopt_timer(
        self,
        origin: Hashable,
        *,
        callback: Optional[ExpiryAction],
        user_data: object,
        deadline: int,
        due: int,
        attempts: int = 0,
        rearm_seq: int = 0,
    ) -> None:
        """Re-create one supervised timer from recovered journal state.

        ``deadline`` is the client deadline the survivor record will
        carry; ``due`` is the *inner* deadline (the original deadline or
        the latest retry/shed re-arm target). The timer is armed for
        ``max(1, due - now)`` ticks — a deadline already in the past
        fires one tick from now: late, never skipped. ``rearm_seq``
        restores the retry lineage so the inner id matches what the
        journal will name next.
        """
        if origin in self._entries:
            raise TimerStateError(
                f"request_id {origin!r} already names a supervised timer"
            )
        inner = self._inner
        entry = _Entry(origin, callback, user_data, deadline)
        entry.attempts = attempts
        entry.rearm_seq = rearm_seq
        interval = max(1, due - inner.now)
        bound = inner.max_start_interval()
        if bound is not None and interval >= bound:
            interval = bound - 1
        inner_id: Hashable = origin if rearm_seq == 0 else RearmId(origin, rearm_seq)
        entry.inner_id = inner_id
        inner.start_timer(
            interval,
            request_id=inner_id,
            callback=self._dispatch,
            user_data=user_data,
        )
        self._entries[origin] = entry

    def restore_outcomes(
        self,
        survivors: List[Tuple[Hashable, int, int]],
        quarantine: Dict[Hashable, QuarantineRecord],
    ) -> None:
        """Reload resolved history (survivor log + quarantine set)."""
        self.survivors.extend(survivors)
        self.quarantine.update(quarantine)

    def restore_counters(self, **counts: int) -> None:
        """Reload supervision counters (names as in :meth:`counters`)."""
        mapping = {
            "retries": "retries",
            "quarantined": "quarantined_total",
            "shed": "shed_total",
            "deferred": "deferred",
            "dropped": "dropped",
            "degraded": "degraded",
            "clock_jumps": "clock_jumps",
            "overruns": "overruns",
        }
        for name, value in counts.items():
            if name not in mapping:
                raise ValueError(f"unknown supervision counter {name!r}")
            setattr(self, mapping[name], value)

    def restore_clock(self, wall_tick: Optional[int], synced: bool) -> None:
        """Reload the external-clock baseline (see :meth:`sync_clock`)."""
        if wall_tick is not None:
            self._last_sync = wall_tick
        self._synced = synced

    def release_quarantined(self, request_id: Hashable) -> QuarantineRecord:
        """Remove and return one quarantine record (raises if unknown)."""
        try:
            return self.quarantine.pop(request_id)
        except KeyError:
            raise UnknownTimerError(
                f"no quarantined timer with request_id {request_id!r}"
            ) from None

    # ------------------------------------------------------------ inspection
    #
    # ``pending_count``, ``pending_timers`` and ``next_expiry`` are the
    # inner scheme's, so retry re-arms count as pending work; the counter
    # is the inner scheme's too — supervision charges nothing.

    @property
    def supervised_count(self) -> int:
        """Client timers still under supervision (pending or retrying)."""
        return len(self._entries)

    def is_pending(self, request_id: Hashable) -> bool:
        """True while the client timer is live, across any re-arms."""
        return origin_of(request_id) in self._entries

    def counters(self) -> Dict[str, int]:
        """The supervision counters as one JSON-friendly dict."""
        return {
            "retries": self.retries,
            "quarantined": self.quarantined_total,
            "shed": self.shed_total,
            "deferred": self.deferred,
            "dropped": self.dropped,
            "degraded": self.degraded,
            "clock_jumps": self.clock_jumps,
            "overruns": self.overruns,
        }

    def introspect(self) -> Dict[str, object]:
        """Inner snapshot plus a ``supervision`` section."""
        info = self._inner.introspect()
        info["supervision"] = {
            "supervised_pending": len(self._entries),
            "retrying": sorted(
                str(e.origin) for e in self._entries.values() if e.rearm_seq
            ),
            "quarantine": [
                self.quarantine[k].as_dict()
                for k in sorted(self.quarantine, key=str)
            ],
            "survivors": len(self.survivors),
            **self.counters(),
        }
        return info

    def __repr__(self) -> str:
        return (
            f"SupervisedScheduler({self._inner!r}, "
            f"retries={self.retries}, quarantined={self.quarantined_total}, "
            f"shed={self.shed_total})"
        )
