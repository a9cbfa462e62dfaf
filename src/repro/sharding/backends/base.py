"""The ``ShardBackend`` protocol: where shard schedulers *execute*.

:class:`~repro.sharding.service.ShardedTimerService` decides *which*
shard owns a request id (:mod:`repro.sharding.partition`) and in what
global order merged expiries come back; a backend decides *where* each
shard's scheduler lives and how operations reach it:

* :class:`~repro.sharding.backends.inprocess.InProcessBackend` — the
  schedulers live in this process behind per-shard locks (Appendix A.2's
  semaphore discipline, one semaphore per queue). The control: full
  surface, zero marshalling, one GIL.
* :class:`~repro.sharding.backends.mp.MultiprocessingBackend` — one
  worker *process* per shard, machine-word timer state in a
  ``multiprocessing.shared_memory`` block per shard
  (:class:`~repro.structures.soa.SharedSoATimerStore`), batched ops
  crossing the pipe once per shard per batch. Appendix B's "one
  processor per shard", GIL actually broken.

The protocol is five methods — ``submit_batch``, ``advance_to``,
``drain_expired``, ``introspect``, ``close`` — plus a ``scatter``
extension (a broadcast batch, overridable for genuinely concurrent
fan-out). The service composes *everything else* (routing, batching,
merge order, auto ids, the clock) out of these.

**The op codec.** A shard operation is a plain tuple, applied by
:func:`apply_ops` on whichever side of the boundary the scheduler
lives::

    ("start", interval, request_id, callback, user_data)
    ("stop", target)              # target: request id (or live Timer
    ("update", target, interval)  #   in-process; wire timers decode)
    ("restart", target, interval, request_id)
    ("call", name, args, kwargs)  # any scheduler method
    ("get", name)                 # any scheduler attribute

Each op yields ``("ok", value)`` or ``("err", exception)``;
``stop_on_error=True`` stops a batch at its first error (START/raise
semantics), ``False`` keeps going (``on_missing="skip"`` semantics).

**Advance/drain split.** ``advance_to(deadline)`` *launches* the drive
on every shard; ``drain_expired()`` collects the per-shard expiry lists.
Remote backends scatter the advance to all workers before gathering, so
shards genuinely drive concurrently. The pair must be called
back-to-back under the service's clock lock.

**Wire timers.** Remote results re-materialise
:class:`~repro.core.interface.Timer` records from a wire tuple —
bit-identical bookkeeping fields, but ``callback`` is ``None`` (a
closure cannot cross an address space; see
:exc:`BackendCapabilityError`).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.errors import TimerError
from repro.core.interface import Timer, TimerState
from repro.structures.soa import SoATimerView

#: One op result: ("ok", value) or ("err", exception).
OpResult = Tuple[str, object]


class BackendUnavailableError(TimerError):
    """The requested backend cannot run on this host/interpreter."""


class BackendCapabilityError(TimerError):
    """The operation needs capabilities this backend does not have.

    Raised when live Python objects would have to cross an address-space
    boundary: attaching observers to remote shards, reading the shared
    ``OpCounter``, handing a non-picklable callback to a worker, or
    touching ``service.shards`` directly.
    """


class ShardFaultError(TimerError):
    """A shard worker died or stopped answering.

    Carries ``shard_index`` so a supervisor can rebuild exactly the
    failed shard (its shared-memory block survives the worker)."""

    def __init__(self, shard_index: int, message: str) -> None:
        super().__init__(f"shard {shard_index}: {message}")
        self.shard_index = shard_index


# ---------------------------------------------------------------- wire codec

#: First element of an encoded Timer tuple.
WIRE_TIMER = "__wire_timer__"


def encode_timer(timer) -> tuple:
    """Flatten a :class:`Timer` record — or a live ``SoATimerView`` — for
    the pipe.

    ``callback`` is intentionally dropped (closures do not cross address
    spaces); every bookkeeping field the fingerprints and supervisors
    read survives exactly. A view is always pending, so its post-mortem
    fields wire as ``None``.
    """
    return (
        WIRE_TIMER,
        timer.request_id,
        timer.interval,
        timer.started_at,
        timer.state.name,
        getattr(timer, "stopped_at", None),
        getattr(timer, "expired_at", None),
        getattr(timer, "fired_at", None),
        timer.user_data,
    )


def decode_timer(wire: Sequence) -> Timer:
    """Rebuild a :class:`Timer` record from :func:`encode_timer` output."""
    timer = Timer(
        wire[1], wire[2], wire[3], callback=None, user_data=wire[8]
    )
    timer.state = TimerState[wire[4]]
    timer.stopped_at = wire[5]
    timer.expired_at = wire[6]
    timer.fired_at = wire[7]
    return timer


def _is_wire_timer(value: object) -> bool:
    return (
        type(value) is tuple
        and len(value) == 9
        and value[0] == WIRE_TIMER
    )


def encode_value(value: object) -> object:
    """Recursively replace Timer records (and SoA views) with wire tuples."""
    if isinstance(value, (Timer, SoATimerView)):
        return encode_timer(value)
    if type(value) is list:
        return [encode_value(item) for item in value]
    if type(value) is tuple:
        return tuple(encode_value(item) for item in value)
    if type(value) is dict:
        return {key: encode_value(item) for key, item in value.items()}
    return value


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if _is_wire_timer(value):
        return decode_timer(value)
    if type(value) is list:
        return [decode_value(item) for item in value]
    if type(value) is tuple:
        return tuple(decode_value(item) for item in value)
    if type(value) is dict:
        return {key: decode_value(item) for key, item in value.items()}
    return value


# ------------------------------------------------------------ op application


def _materialise_target(target: object) -> object:
    """Wire timers arriving as op targets become Timer records again."""
    if _is_wire_timer(target):
        return decode_timer(target)
    return target


def apply_ops(
    shard, ops: Sequence[tuple], stop_on_error: bool = True
) -> List[OpResult]:
    """Run an op batch against one shard scheduler, in order.

    The single interpreter both the in-process backend and every remote
    worker run — backends differ only in how ops and results travel, so
    a fingerprint can never depend on which backend executed them.
    """
    results: List[OpResult] = []
    for op in ops:
        kind = op[0]
        try:
            if kind == "start":
                value = shard.start_timer(
                    op[1], request_id=op[2], callback=op[3], user_data=op[4]
                )
            elif kind == "stop":
                value = shard.stop_timer(_materialise_target(op[1]))
            elif kind == "update":
                value = shard.update_timer(_materialise_target(op[1]), op[2])
            elif kind == "restart":
                value = shard.restart_timer(
                    _materialise_target(op[1]),
                    interval=op[2],
                    request_id=op[3],
                )
            elif kind == "call":
                value = getattr(shard, op[1])(*op[2], **op[3])
            elif kind == "get":
                value = getattr(shard, op[1])
            else:
                raise ValueError(f"unknown shard op {kind!r}")
        except Exception as exc:
            results.append(("err", exc))
            if stop_on_error:
                break
        else:
            results.append(("ok", value))
    return results


# ---------------------------------------------------------------- the protocol


class ShardBackend:
    """Abstract executor for ``shard_count`` shard schedulers.

    Subclasses must implement the five protocol methods; ``scatter`` has
    a serial default. ``close`` must be idempotent and must release
    every OS resource (workers, pipes, shared memory, pools).
    """

    #: Registry name ("inprocess" or "multiprocessing").
    name: str = "?"
    #: Live shard schedulers when they run in this interpreter, else None.
    #: ``None`` is the capability switch: wire-encode targets/results,
    #: refuse observers and shared counters.
    local_shards: Optional[Tuple] = None

    shard_count: int

    @property
    def remote(self) -> bool:
        """True when results cross an address-space boundary."""
        return self.local_shards is None

    def submit_batch(
        self, index: int, ops: Sequence[tuple], stop_on_error: bool = True
    ) -> List[OpResult]:
        """Apply ``ops`` to shard ``index`` atomically w.r.t. that shard."""
        raise NotImplementedError

    def advance_to(self, deadline: int) -> None:
        """Launch PER_TICK_BOOKKEEPING to ``deadline`` on every shard."""
        raise NotImplementedError

    def drain_expired(self) -> List[List[Timer]]:
        """Per-shard expiry lists of the advance just launched.

        Must be called exactly once after each :meth:`advance_to`, under
        the same clock mutex.
        """
        raise NotImplementedError

    def introspect(self) -> Dict[str, object]:
        """Backend-level facts: name, contention, data-plane residency."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear down workers/pools/shared memory. Idempotent."""
        raise NotImplementedError

    # ------------------------------------------------------------- extensions

    def scatter(
        self, ops: Sequence[tuple], stop_on_error: bool = True
    ) -> List[List[OpResult]]:
        """Apply the same op batch to every shard; results by shard index.

        Serial by default; concurrent backends override to fan out.
        """
        return [
            self.submit_batch(index, ops, stop_on_error)
            for index in range(self.shard_count)
        ]

    @property
    def contended_acquisitions(self) -> List[int]:
        """Per-shard count of submissions that had to wait (best effort)."""
        raise NotImplementedError

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------- default shard plane

#: Marker for "meter with NULL_COUNTER in the worker" vs a fresh OpCounter.
COUNTER_NULL = "null"
COUNTER_OP = "op"


def build_plane_shard(
    index: int,
    scheme: str,
    scheme_kwargs: Dict[str, object],
    counter_kind: str,
    shm_name: Optional[str] = None,
):
    """The default remote shard factory (module-level, hence picklable).

    Builds one registry scheme for shard ``index``; when ``shm_name``
    names a shared-memory block, attaches
    :class:`~repro.structures.soa.SharedSoATimerStore` to it and injects
    it as the scheme's SoA store — the shared data plane.
    """
    from repro.core.registry import make_scheduler
    from repro.cost.counters import NULL_COUNTER, OpCounter

    counter = NULL_COUNTER if counter_kind == COUNTER_NULL else OpCounter()
    kwargs = dict(scheme_kwargs)
    if shm_name is not None:
        from repro.structures.soa import SharedSoATimerStore

        kwargs["soa_store"] = SharedSoATimerStore(name=shm_name, create=False)
    return make_scheduler(scheme, counter=counter, **kwargs)


class ShardPlane:
    """What a backend needs to know to *build* its shards.

    ``factory`` is the per-index builder callable (the service's default
    closure, or the user's ``shard_factory``). When the shards came from
    the registry, ``scheme``/``scheme_kwargs``/``counter_kind`` describe
    them structurally so remote backends can rebuild each shard inside a
    worker — attaching a shared-memory SoA store when the scheme was
    asked for ``store="soa"``. A user ``shard_factory`` leaves them
    ``None``: the multiprocessing backend then ships the callable itself
    (fork inherits it).
    """

    def __init__(
        self,
        factory: Callable[[int], object],
        *,
        scheme: Optional[str] = None,
        scheme_kwargs: Optional[Dict[str, object]] = None,
        counter_kind: str = COUNTER_OP,
    ) -> None:
        self.factory = factory
        self.scheme = scheme
        self.scheme_kwargs = dict(scheme_kwargs or {})
        self.counter_kind = counter_kind

    @property
    def wants_shared_store(self) -> bool:
        """True when the registry scheme carries its state in SoA columns."""
        return (
            self.scheme is not None
            and self.scheme_kwargs.get("store") == "soa"
            and "soa_store" not in self.scheme_kwargs
        )

    def builder(self, shm_name: Optional[str] = None):
        """A per-worker ``builder(index) -> scheduler`` callable.

        Picklable whenever the shards came from the registry (the
        builder is a partial of :func:`build_plane_shard`); otherwise
        the user's factory itself.
        """
        if self.scheme is None:
            return self.factory
        import functools

        return functools.partial(
            build_plane_shard,
            scheme=self.scheme,
            scheme_kwargs=self.scheme_kwargs,
            counter_kind=self.counter_kind,
            shm_name=shm_name,
        )
