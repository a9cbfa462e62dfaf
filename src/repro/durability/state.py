"""The journal's state model: replay = reduce, not re-execute.

Recovery never re-runs client callbacks to find out where the service
was — it *reduces* the journal (snapshot state + tail records) to a
:class:`DurableState`: which timers are pending and at what inner
deadline, which already survived or were quarantined, and every counter
the chaos fingerprint compares. The :class:`~repro.durability.service.
DurableScheduler` maintains the same reduction incrementally as it
journals, so a snapshot is nothing more than the current reduction
serialised — snapshot + tail replay and full-journal replay agree *by
construction*.

Record vocabulary (one ``op`` per journal line; schemas in
``docs/durability.md``):

========== ==============================================================
``start``   client START_TIMER: id, interval, client deadline, user_data
``stop``    client STOP_TIMER
``update``  client UPDATE_TIMER: same id, new interval and deadline
``sync``    client clock reading handed to ``sync_clock``
``advance`` explicit clock advance (plain, unsupervised stacks)
``expire``  a *successful* expiry — the supervisor's survivor event
``rearm``   a failed attempt re-armed on the wheel (retry backoff)
``shed``    an overload-shed expiry (policy drop / defer / degrade)
``quarantine`` a timer parked after exhausting its retry budget
========== ==============================================================

Clock jumps are *derived*, not journaled: the supervisor counts a jump
whenever consecutive readings step by anything other than 0 or +1, and
the reduction recomputes exactly that from the ``sync`` record stream —
so a jump can never be lost in an unsynced group-commit buffer while
its sync record survives.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.durability.journal import JournalCorruptionError

#: Counter names carried in snapshots and restored into the supervisor.
COUNTER_NAMES = (
    "retries",
    "quarantined",
    "shed",
    "deferred",
    "dropped",
    "degraded",
)


class DurableState:
    """The reduction of a journal prefix (see module docstring)."""

    __slots__ = (
        "now",
        "wall",
        "synced",
        "syncs",
        "clock_jumps",
        "pending",
        "survivors",
        "quarantine",
        "stopped",
        "shed_dropped",
        "counters",
        "auto_seq",
        "applied",
    )

    def __init__(self) -> None:
        self.now = 0
        self.wall: Optional[int] = None
        self.synced = False
        self.syncs = 0
        self.clock_jumps = 0
        #: id -> {interval, started_at, deadline, due, attempts,
        #: rearm_seq, user_data}; insertion-ordered by start, which makes
        #: recovery re-arm timers in their original arrival order.
        self.pending: Dict[str, Dict[str, object]] = {}
        #: [id, client deadline, attempts] per successful expiry, in order.
        self.survivors: List[List[object]] = []
        #: id -> {attempts, reason, error, at, deadline}.
        self.quarantine: Dict[str, Dict[str, object]] = {}
        self.stopped: List[str] = []
        #: [id, shed_at] for the "drop" overload policy.
        self.shed_dropped: List[List[object]] = []
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self.auto_seq = 0
        self.applied = 0

    # ------------------------------------------------------------- reduction

    def apply(self, seq: int, op: str, data: Dict[str, object]) -> None:
        """Fold one journal record into the state.

        Raises :class:`~repro.durability.journal.JournalCorruptionError`
        when a record contradicts the state it claims to mutate — a
        CRC-valid journal can still be semantically impossible if lines
        were spliced from different runs.
        """
        if op == "start":
            key = data["id"]
            if key in self.pending:
                raise JournalCorruptionError(
                    f"seq {seq}: start of already-pending id {key!r}"
                )
            self.pending[key] = {
                "interval": data["interval"],
                "started_at": data["now"],
                "deadline": data["deadline"],
                "due": data["deadline"],
                "attempts": 0,
                "rearm_seq": 0,
                "user_data": data.get("user_data"),
            }
            if data.get("auto"):
                self.auto_seq += 1
            self._saw(data["now"])
        elif op == "stop":
            self._take(seq, op, data["id"])
            self.stopped.append(data["id"])
            self._saw(data["now"])
        elif op == "update":
            # A deadline move on the same pending entry: the id, arrival
            # order, and attempt history all survive the re-arm.
            entry = self._entry(seq, op, data["id"])
            entry["interval"] = data["interval"]
            entry["started_at"] = data["now"]
            entry["deadline"] = data["deadline"]
            entry["due"] = data["deadline"]
            self._saw(data["now"])
        elif op == "sync":
            wall = data["wall"]
            if self.synced:
                delta = wall - self.wall
                if delta < 0 or delta > 1:
                    self.clock_jumps += 1
            else:
                self.synced = True
            self.wall = wall
            self.syncs += 1
            self._saw(wall)
        elif op == "advance":
            self._saw(data["target"])
        elif op == "expire":
            entry = self._take(seq, op, data["id"])
            self.survivors.append(
                [data["id"], entry["deadline"], data.get("attempts", 1)]
            )
            self._saw(data["now"])
        elif op == "rearm":
            entry = self._entry(seq, op, data["id"])
            entry["attempts"] = data["attempt"]
            entry["rearm_seq"] = data["rearm_seq"]
            entry["due"] = data["due"]
            self.counters["retries"] += 1
            self._saw(data["now"])
        elif op == "shed":
            policy = data["policy"]
            self.counters["shed"] += 1
            if policy == "drop":
                self._take(seq, op, data["id"])
                self.counters["dropped"] += 1
                self.shed_dropped.append([data["id"], data["now"]])
            else:
                entry = self._entry(seq, op, data["id"])
                entry["rearm_seq"] = data["rearm_seq"]
                entry["due"] = data["due"]
                self.counters["deferred" if policy == "defer" else "degraded"] += 1
            self._saw(data["now"])
        elif op == "quarantine":
            entry = self._take(seq, op, data["id"])
            self.quarantine[data["id"]] = {
                "attempts": data["attempts"],
                "reason": data["reason"],
                "error": data["error"],
                "at": data["at"],
                "deadline": entry["deadline"],
            }
            self.counters["quarantined"] += 1
            self._saw(data["at"])
        else:
            raise JournalCorruptionError(f"seq {seq}: unknown op {op!r}")
        self.applied += 1

    def _saw(self, tick: object) -> None:
        if isinstance(tick, int) and tick > self.now:
            self.now = tick

    def _entry(self, seq: int, op: str, key: str) -> Dict[str, object]:
        entry = self.pending.get(key)
        if entry is None:
            raise JournalCorruptionError(
                f"seq {seq}: {op} for id {key!r} which is not pending"
            )
        return entry

    def _take(self, seq: int, op: str, key: str) -> Dict[str, object]:
        entry = self._entry(seq, op, key)
        del self.pending[key]
        return entry

    # ------------------------------------------------------------- inspection

    @property
    def rows(self) -> int:
        """Pending plus history rows, what a snapshot encodes. It never drops,
        bar an id quarantined twice (the second row replaces the first)."""
        history = (self.survivors, self.stopped, self.shed_dropped, self.quarantine)
        return len(self.pending) + sum(map(len, history))

    def seen_ids(self) -> Set[str]:
        """Every id whose START_TIMER durably reached the journal."""
        seen: Set[str] = set(self.pending)
        seen.update(self.stopped)
        seen.update(self.quarantine)
        seen.update(row[0] for row in self.survivors)
        seen.update(row[0] for row in self.shed_dropped)
        return seen

    def attempts_map(self) -> Dict[str, int]:
        """Expiry-action attempts per client id, as the journal knows them.

        Seeds :meth:`repro.faults.injector.FaultInjector.reset_service_state`
        after a crash: re-fired timers continue their attempt series
        exactly where the durable history left it.
        """
        attempts: Dict[str, int] = {}
        for key, entry in self.pending.items():
            attempts[key] = max(attempts.get(key, 0), int(entry["attempts"]))
        for key, _deadline, count in self.survivors:
            attempts[key] = max(attempts.get(key, 0), int(count))
        for key, record in self.quarantine.items():
            attempts[key] = max(attempts.get(key, 0), int(record["attempts"]))
        return {key: count for key, count in attempts.items() if count}

    # ------------------------------------------------------------ round trip

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the snapshot payload).

        A view over the live containers, not a copy: encode it before
        the next :meth:`apply`, and never mutate it.
        """
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DurableState":
        state = cls()
        state.now = data["now"]
        state.wall = data["wall"]
        state.synced = data["synced"]
        state.syncs = data["syncs"]
        state.clock_jumps = data["clock_jumps"]
        state.pending = {k: dict(v) for k, v in data["pending"].items()}
        state.survivors = [list(row) for row in data["survivors"]]
        state.quarantine = {k: dict(v) for k, v in data["quarantine"].items()}
        state.stopped = list(data["stopped"])
        state.shed_dropped = [list(row) for row in data["shed_dropped"]]
        state.counters = {name: 0 for name in COUNTER_NAMES}
        state.counters.update(data["counters"])
        state.auto_seq = data.get("auto_seq", 0)
        state.applied = data.get("applied", 0)
        return state
