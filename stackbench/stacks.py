"""The deployed stacks the benchmark drives, built only from public constructors.

Each builder takes a :class:`Tap` and a work directory. The untraced run
passes the do-nothing tap; the traced run passes a
:class:`~stackbench.tracing.Tracer`, which uses the same calls to slip a
timing proxy between each pair of wrappers and to wrap the few instance
methods that sit on a layer boundary without being a wrapper (the journal,
the snapshot, the shard backend, the partitioner, the supervisor's expiry
dispatcher). A builder therefore states each stack's layer boundaries
exactly once, for both runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.observer import CompositeObserver
from repro.core.registry import make_scheduler
from repro.core.supervision import SupervisedScheduler
from repro.core.threadsafe import ThreadSafeScheduler
from repro.durability import DurableScheduler
from repro.obs import FlightRecorder, MetricsCollector, MetricsRegistry, SpanAssembler
from repro.obs.exporters import to_prometheus
from repro.sharding import ShardedTimerService

#: Ticks between Prometheus renders of the observed stack's registry.
RENDER_EVERY = 1000


class Tap:
    """Layer-boundary hooks of a stack; the untraced run's tap does nothing."""

    def layer(self, name: str, obj):
        """Return what the layer above should hold instead of ``obj``."""
        return obj

    def observer(self, observer):
        """Return what the scheduler should attach instead of ``observer``."""
        return observer

    def method(self, obj, attribute: str, span: str) -> None:
        """Mark ``obj.attribute`` (a bound method) as a boundary crossing."""

    def function(self, span: str, fn: Callable) -> Callable:
        """Mark a plain function as a boundary crossing."""
        return fn


@dataclass
class Stack:
    """A built stack: the client-facing object plus what a run inspects."""

    top: object
    close: Callable[[], None]
    counter_total: Callable[[], int]
    #: called with the tick just reached, after every advance.
    after_advance: Optional[Callable[[int], None]] = None
    #: layer objects a traced run reads counters from.
    parts: Dict[str, object] = field(default_factory=dict)


def scheme6(store: str = "object"):
    """The paper's VAX scheme: a hashed wheel with unsorted buckets."""
    return make_scheduler("scheme6", table_size=4096, store=store)


def scheme7():
    """Three-level hierarchical wheels of 64 slots each."""
    return make_scheduler("scheme7", slot_counts=(64, 64, 64))


def supervised(tap: Tap, core, parts: Dict[str, object]):
    """``SupervisedScheduler(ThreadSafeScheduler(core))``, proxies between."""
    threadsafe = ThreadSafeScheduler(tap.layer("core", core))
    supervisor = SupervisedScheduler(tap.layer("threadsafe", threadsafe))
    tap.method(supervisor, "_dispatch", "supervision.dispatch")
    parts.update(core=core, threadsafe=threadsafe, supervised=supervisor)
    return supervisor


def durable_inner(tap: Tap, parts: Dict[str, object], core=None):
    """The stack a durable service journals for (and ``recover`` rebuilds)."""
    return supervised(tap, core if core is not None else scheme7(), parts)


def _observe(tap: Tap, top, parts: Dict[str, object]) -> None:
    """Attach the full observer pipeline to ``top`` over one registry, and
    keep a Prometheus render of that registry in ``parts``."""
    registry = MetricsRegistry()
    pipeline = CompositeObserver(
        [
            MetricsCollector(registry, per_tick_fidelity=False),
            FlightRecorder(dump_dir=None),
            SpanAssembler(registry=registry),
        ]
    )
    top.attach_observer(tap.observer(pipeline))
    parts["render"] = tap.function(
        "obs.render", lambda: to_prometheus(registry.snapshot())
    )


def _stack(top, core, parts: Dict[str, object], close=lambda: None) -> Stack:
    render = parts.get("render")

    def after_advance(tick: int) -> None:
        if tick % RENDER_EVERY == 0:
            render()

    return Stack(
        top=top,
        close=close,
        counter_total=lambda: core.counter.total,
        after_advance=after_advance if render is not None else None,
        parts=parts,
    )


def build_bare(tap: Tap, work: Path, store: str = "object") -> Stack:
    """``make_scheduler("scheme6", table_size=4096)`` and nothing else."""
    core = scheme6(store)
    return _stack(tap.layer("core", core), core, {"core": core})


def build_threadsafe(tap: Tap, work: Path, core) -> Stack:
    """``ThreadSafeScheduler`` over ``core``."""
    threadsafe = ThreadSafeScheduler(tap.layer("core", core))
    parts = {"core": core, "threadsafe": threadsafe}
    return _stack(tap.layer("threadsafe", threadsafe), core, parts)


def build_supervised(tap: Tap, work: Path, core=None, observed: bool = False) -> Stack:
    """Supervised(ThreadSafe(core)), optionally with every observer attached
    and a Prometheus render of their registry every :data:`RENDER_EVERY`
    ticks. The default core is scheme7."""
    core = core if core is not None else scheme7()
    parts: Dict[str, object] = {}
    top = tap.layer("supervision", supervised(tap, core, parts))
    if observed:
        _observe(tap, top, parts)
    return _stack(top, core, parts)


def build_observed(tap: Tap, work: Path) -> Stack:
    """The observed supervised scheme7 stack of ``heartbeat-observed``."""
    return build_supervised(tap, work, observed=True)


def build_durable(
    tap: Tap, work: Path, core=None, sync: str = "batch", observed: bool = False
) -> Stack:
    """DurableScheduler(Supervised(ThreadSafe(core)), work, sync=...) with
    default batch and snapshot settings, journaling to the real disk."""
    parts: Dict[str, object] = {}
    inner = tap.layer("supervision", durable_inner(tap, parts, core))
    if observed:
        _observe(tap, inner, parts)
    durable = DurableScheduler(inner, work, sync=sync)
    tap.method(durable.journal, "append", "durability.append")
    tap.method(durable.journal, "flush", "durability.flush")
    tap.method(durable, "snapshot", "durability.snapshot")
    parts.update(durable=durable, directory=work)
    return _stack(tap.layer("durability", durable), parts["core"], parts, durable.close)


def build_sharded(tap: Tap, work: Path, backend: str = "multiprocessing") -> Stack:
    """Two scheme6 SoA shards on ``backend`` (on multiprocessing, one worker
    process per shard with its timer state in shared memory)."""
    options = {"shm_rows": 1 << 16} if backend == "multiprocessing" else {}
    service = ShardedTimerService(
        "scheme6",
        2,
        store="soa",
        table_size=4096,
        backend=backend,
        backend_options=options,
    )
    tap.method(service, "shard_index_of", "sharding.partition")
    for name in ("submit_batch", "advance_to", "drain_expired"):
        tap.method(service.backend, name, f"backends.{name}")

    def counter_total() -> int:
        # In-process shards share one counter; remote ones each send a copy.
        counters = {
            id(results[0][1]): results[0][1]
            for results in service.backend.scatter([("get", "counter")])
        }
        return sum(counter.total for counter in counters.values())

    return Stack(
        top=tap.layer("sharding", service),
        close=service.close,
        counter_total=counter_total,
        parts={"service": service},
    )


def _soa(build, **options):
    return lambda tap, work: build(tap, work, core=scheme6("soa"), **options)


#: Rows of the STACK ledger, in stack order: ``(row, base row, builder)``.
#: Each row adds one layer to its base, and its marginal cost is taken over
#: that base; the sharded rows branch off the bare SoA scheme.
LEDGER_ROWS: List[tuple] = [
    ("bare-object", None, build_bare),
    ("bare-soa", "bare-object", lambda tap, work: build_bare(tap, work, "soa")),
    ("threadsafe", "bare-soa", _soa(build_threadsafe)),
    ("supervised", "threadsafe", _soa(build_supervised)),
    ("observed", "supervised", _soa(build_supervised, observed=True)),
    ("durable-never", "observed", _soa(build_durable, sync="never", observed=True)),
    ("durable-batch", "durable-never", _soa(build_durable, sync="batch", observed=True)),
    (
        "sharded-inprocess",
        "bare-soa",
        lambda tap, work: build_sharded(tap, work, "inprocess"),
    ),
    ("sharded-mp", "sharded-inprocess", build_sharded),
]
