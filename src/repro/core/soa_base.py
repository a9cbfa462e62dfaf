"""Scheduler base for struct-of-arrays timer storage.

:class:`SoATimerScheduler` is the row-oriented twin of
:class:`~repro.core.interface.TimerScheduler`: same four-routine client
API, same observer stream, same error policies and sparse-tick fast path
(all inherited), but every pending timer is a row in one
:class:`~repro.structures.soa.SoATimerStore` instead of a heap-allocated
:class:`~repro.core.interface.Timer`. Concrete schemes implement
``_insert_row`` / ``_remove_row`` / ``_collect_expired`` over the store's
link columns (see :mod:`repro.core.soa_schemes`) and must charge the
OpCounter **bit-identically** to their object-store twins — the
equivalence suites diff the counters and expiry streams between stores.

Identity model
--------------
``start_timer`` returns a :class:`~repro.structures.soa.SoATimerView`
flyweight, not a record. With an **auto id** (``request_id=None``) the
timer's public id *is* the store's packed generation-tagged int handle:
no id string, no dict entry — the memory tier the MILLIONS bench prices.
An **explicit id** additionally lands in an id → row dict so STOP_TIMER
by client id keeps working. Either way a handle or view held across the
row's free-and-reuse raises
:class:`~repro.core.errors.StaleTimerHandleError` — the store's free
list is the allocator, so use-after-free checking is native, not opt-in.

Finalised timers (stopped, expired, shutdown-cancelled) are materialised
as ordinary :class:`Timer` records at the moment they leave the store,
so everything downstream — supervision, spans, chaos fingerprints,
``callback_errors`` — sees exactly what the object store produces.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Union

from repro.core.errors import (
    TimerStateError,
    UnknownTimerError,
)
from repro.core.interface import (
    ExpiryAction,
    Timer,
    TimerScheduler,
    TimerState,
)
from repro.core.observer import NULL_OBSERVER
from repro.core.validation import check_interval
from repro.cost.counters import OpCounter
from repro.structures.soa import SoATimerStore, SoATimerView


class SoATimerScheduler(TimerScheduler):
    """Abstract scheduler whose pending timers live in an SoA store.

    Subclasses own the wheel geometry (head tables, cursors, bitmaps) and
    implement the three row hooks; clock advance, observer dispatch,
    expiry-action policies, and the ``advance_to`` fast path are inherited
    unchanged from :class:`TimerScheduler`.
    """

    def __init__(
        self,
        counter: Optional[OpCounter] = None,
        recycle: bool = False,
        soa_store: Optional[SoATimerStore] = None,
    ) -> None:
        # ``recycle`` is accepted for constructor parity with the object
        # schemes and ignored: SoA rows are *always* pooled — the free
        # list is the allocator, not an opt-in cache.
        #
        # ``soa_store`` injects a pre-built store — the shard backends use
        # it to hand a scheduler a shared-memory-backed
        # :class:`~repro.structures.soa.SharedSoATimerStore` so the timer
        # state lives in an OS shm block instead of process-private heap.
        super().__init__(counter, recycle=False)
        if soa_store is not None and soa_store.live_count:
            raise ValueError(
                "injected store already holds live rows; schedulers must "
                "start from an empty store"
            )
        self._store = soa_store if soa_store is not None else SoATimerStore()
        #: explicit client id -> row; auto-id rows appear in no dict at all.
        self._id_rows: Dict[Hashable, int] = {}

    # ------------------------------------------------------------ client API

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> SoATimerView:
        """START_TIMER; returns a generation-tagged view, not a record.

        With ``request_id=None`` the packed int handle *is* the public id
        (``view.request_id`` / ``view.handle``) — the zero-overhead path.
        """
        limit = self.max_start_interval()
        if (
            self._shut_down
            or type(interval) is not int
            or interval <= 0
            or (limit is not None and interval >= limit)
        ):
            self._check_open()
            check_interval(interval, limit)
        store = self._store
        if request_id is not None and request_id in self._id_rows:
            raise TimerStateError(
                f"request_id {request_id!r} already names a pending timer"
            )
        row = store.alloc(self._now, interval, request_id, callback, user_data)
        self._insert_row(row)
        if request_id is not None:
            self._id_rows[request_id] = row
        self.total_started += 1
        view = SoATimerView(store, row, store.meta_col[row] >> 1)
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_start(self, view)
        return view

    def update_timer(
        self,
        timer_or_id: Union[SoATimerView, Timer, Hashable],
        new_interval: int,
    ) -> SoATimerView:
        """UPDATE_TIMER on the row store: same row, same generation.

        The row is unlinked, its deadline/started columns rewritten, and
        relinked at the recomputed slot — the handle stays valid (the
        generation does not advance; only finalisation or free recycles a
        row). A stale view or handle raises
        :class:`~repro.core.errors.StaleTimerHandleError`, exactly like
        :meth:`stop_timer`.
        """
        limit = self.max_start_interval()
        if (
            self._shut_down
            or type(new_interval) is not int
            or new_interval <= 0
            or (limit is not None and new_interval >= limit)
        ):
            self._check_open()
            check_interval(new_interval, limit)
        row = self._id_rows.get(timer_or_id)
        if row is None:
            # Views, records, int handles and unknown ids: the checked path.
            row = self._resolve_row(timer_or_id)
        store = self._store
        old_deadline = store.deadline_col[row]
        self._update_row(row, new_interval)
        self.total_updated += 1
        view = SoATimerView(store, row, store.meta_col[row] >> 1)
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_update(self, view, old_deadline)
        return view

    def _update_row(self, row: int, new_interval: int) -> None:
        """Re-place ``row`` at ``now + new_interval``.

        Default: the scheme's own unlink → column rewrite → relink (slots
        are derived from the *old* deadline, so the removal runs first).
        The wheel twins override this with the same fused UPDATE charge as
        their object twins.
        """
        self._remove_row(row)
        store = self._store
        now = self._now
        store.started_col[row] = now
        store.deadline_col[row] = now + new_interval
        store.aux_col[row] = 0
        self._insert_row(row)

    def restart_timer(
        self,
        timer: Timer,
        interval: Optional[int] = None,
        request_id: Optional[Hashable] = None,
    ) -> SoATimerView:
        """Re-arm a finalised (materialised) record as a fresh row.

        The row-store twin of the base class's in-place restart: finalised
        SoA timers are materialised records whose row was already freed,
        so the re-arm allocates a row (from the store's free list) but
        keeps the record's public id by default — the id stability the
        periodic and supervision re-arm paths rely on. Counts as a start.
        """
        self._check_open()
        if isinstance(timer, SoATimerView):
            raise TimerStateError(
                f"timer {timer!r} is a live view; use update_timer to "
                "reschedule a pending timer"
            )
        if timer.state is TimerState.PENDING:
            raise TimerStateError(
                f"timer {timer.request_id!r} is still pending; use "
                "update_timer to reschedule a live timer"
            )
        new_interval = timer.interval if interval is None else interval
        check_interval(new_interval, self.max_start_interval())
        new_id = timer.request_id if request_id is None else request_id
        if self.is_pending(new_id):
            raise TimerStateError(
                f"request_id {new_id!r} already names a pending timer"
            )
        store = self._store
        row = store.alloc(
            self._now, new_interval, new_id, timer.callback, timer.user_data
        )
        self._insert_row(row)
        self._id_rows[new_id] = row
        self.total_started += 1
        view = SoATimerView(store, row, store.meta_col[row] >> 1)
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_start(self, view)
        return view

    def stop_timer(
        self, timer_or_id: Union[SoATimerView, Timer, Hashable]
    ) -> Timer:
        """STOP_TIMER by view, int handle, or explicit client id.

        Returns the finalised (materialised) record, state ``STOPPED``.
        A view or handle that outlived its row's incarnation raises
        :class:`~repro.core.errors.StaleTimerHandleError`.
        """
        row = self._id_rows.get(timer_or_id)
        if row is None:
            row = self._resolve_row(timer_or_id)
        self._remove_row(row)
        store = self._store
        timer = self._materialize(row)
        timer.state = TimerState.STOPPED
        timer.stopped_at = self._now
        request_id = store.request_ids[row]
        if request_id is not None:
            del self._id_rows[request_id]
        store.free(row)
        self.total_stopped += 1
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_stop(self, timer)
        return timer

    def shutdown(self) -> List[Timer]:
        """Cancel every pending row and refuse further work. Idempotent."""
        if self._shut_down:
            return []
        store = self._store
        cancelled: List[Timer] = []
        for row in list(store.live_rows()):
            self._remove_row(row)
            timer = self._materialize(row)
            timer.state = TimerState.STOPPED
            timer.stopped_at = self._now
            store.free(row)
            cancelled.append(timer)
            self.total_stopped += 1
            self.observer.on_stop(self, timer)
        self._id_rows.clear()
        self._shut_down = True
        return cancelled

    def run_until_idle(self, max_ticks: int = 1_000_000) -> List[Timer]:
        """Advance until no rows remain live (see base-class docstring)."""
        from repro.core.errors import TimerLivelockError

        expired: List[Timer] = []
        start_now = self._now
        cap = start_now + max_ticks
        while self._store.live_count:
            if self._now - start_now >= max_ticks:
                if self.observer is not NULL_OBSERVER:
                    self.observer.on_anomaly(
                        self,
                        "livelock",
                        {
                            "pending": self.pending_count,
                            "max_ticks": max_ticks,
                            "now": self._now,
                        },
                    )
                raise TimerLivelockError(
                    f"{self.pending_count} timer(s) still pending after "
                    f"{max_ticks} ticks (now={self._now}); raise max_ticks "
                    "or stop the self-re-arming timers"
                )
            event = self._next_event()
            target = cap if event is None else min(event, cap)
            self.advance_to(target, _sink=expired)
        return expired

    # ------------------------------------------------------------ inspection

    @property
    def pending_count(self) -> int:
        return self._store.live_count

    @property
    def free_record_count(self) -> int:
        """Pooled free rows — always live here; the free list is the allocator."""
        return self._store.free_count

    @property
    def store(self) -> SoATimerStore:
        """The backing column store (inspection and benches)."""
        return self._store

    def pending_timers(self) -> List[SoATimerView]:
        store = self._store
        return [
            SoATimerView(store, row, store.meta_col[row] >> 1)
            for row in store.live_rows()
        ]

    def is_pending(self, request_id: Union[SoATimerView, Hashable]) -> bool:
        """Non-throwing probe: stale views/handles are simply not pending."""
        if isinstance(request_id, SoATimerView):
            return not request_id.stale
        if request_id in self._id_rows:
            return True
        if isinstance(request_id, int):
            try:
                return self._store.resolve_handle(request_id) is not None
            except TimerStateError:
                return False
        return False

    def get_timer(self, request_id: Hashable) -> SoATimerView:
        """Pending-timer lookup by explicit id or int handle; returns a view."""
        store = self._store
        row = self._id_rows.get(request_id)
        if row is None and isinstance(request_id, int):
            row = store.resolve_handle(request_id)  # may raise stale
        if row is None:
            raise UnknownTimerError(
                f"no pending timer with request_id {request_id!r}"
            )
        return SoATimerView(store, row, store.meta_col[row] >> 1)

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        store = self._store
        info["store"] = "soa"
        info["pending"] = store.live_count
        info["free_records"] = store.free_count
        info["store_bytes"] = store.bytes_estimate()
        per_timer = store.bytes_per_timer()
        if per_timer is not None:
            info["bytes_per_timer"] = round(per_timer, 1)
        return info

    # -------------------------------------------------------------- plumbing

    def _resolve_row(
        self, timer_or_id: Union[SoATimerView, Timer, Hashable]
    ) -> int:
        """Map any accepted reference to a live row (or raise)."""
        if isinstance(timer_or_id, SoATimerView):
            return timer_or_id._live_row()
        if isinstance(timer_or_id, Timer):
            # A materialised record is by construction no longer pending.
            raise TimerStateError(
                f"timer {timer_or_id.request_id!r} is "
                f"{timer_or_id.state.value}, not pending"
            )
        row = self._id_rows.get(timer_or_id)
        if row is not None:
            return row
        if isinstance(timer_or_id, int):
            row = self._store.resolve_handle(timer_or_id)  # may raise stale
            if row is not None:
                return row
        raise UnknownTimerError(
            f"no pending timer with request_id {timer_or_id!r}"
        )

    def _materialize(self, row: int) -> Timer:
        """Build the ordinary Timer record for a row leaving the store."""
        store = self._store
        request_id = store.request_ids[row]
        started = store.started_col[row]
        return Timer(
            store.handle_of(row) if request_id is None else request_id,
            store.deadline_col[row] - started,
            started,
            store.callbacks[row],
            store.user_datas[row],
        )

    def _finalize_expired(self, row: int) -> Timer:
        """Materialise an expiring row and free it (links already detached)."""
        timer = self._materialize(row)
        self._store.free(row)
        return timer

    def _mark_expired(self, timer: Timer) -> None:
        """Row-store twin of the base marking: no ``_active`` map to pop."""
        timer.state = TimerState.EXPIRED
        timer.expired_at = self._now
        timer.fired_at = self._now
        # Explicit ids leave the map before any callback runs, so a
        # re-entrant start_timer may reuse the id (auto handles are
        # self-retiring: the row's generation already advanced).
        self._id_rows.pop(timer.request_id, None)
        self.total_expired += 1

    # ------------------------------------------------------------- row hooks

    def _insert_row(self, row: int) -> None:
        """Place ``row`` into the scheme's structure (charges ops)."""
        raise NotImplementedError

    def _remove_row(self, row: int) -> None:
        """Remove pending ``row`` from the structure (charges ops)."""
        raise NotImplementedError

    # The object-record hooks are dead code on an SoA scheme; defined so
    # the ABC is satisfiable, loud if something reaches them.

    def _insert(self, timer: Timer) -> None:  # pragma: no cover - guard
        raise TypeError("SoA schedulers place rows, not Timer records")

    def _remove(self, timer: Timer) -> None:  # pragma: no cover - guard
        raise TypeError("SoA schedulers place rows, not Timer records")
