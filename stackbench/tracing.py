"""The traced run: spans at every layer boundary, turned into per-layer metrics.

Spans are recorded from outside the program. :class:`Tracer` is the
:class:`~stackbench.stacks.Tap` the builders call at each layer boundary:
it slips a :class:`LayerProxy` between each pair of wrappers (the proxy
times the scheduler calls and forwards everything else through
``__getattr__``), wraps the observer pipeline in an :class:`ObserverProxy`,
and replaces the few boundary methods that are not wrappers (journal
append/flush, snapshot, backend submit/advance/drain, the partitioner,
the supervisor's expiry dispatcher) on their instances.

A span is ``(name, start ns, end ns, parent span, client op)``, kept in
flat arrays while the replay runs and written out as JSONL at the end. A
layer is the part of a span name before the first dot; its self time is
its spans' durations minus the time their child spans cover. A span's
clock readings sit at the outer edges of its wrapper, so the cost of
recording a span is part of its own self time and almost none of the
client's call time is left unaccounted. Every span time is scaled to the
reference host speed by the probes around the chunk it started in, exactly
like the untraced run's timings.
"""

from __future__ import annotations

import bisect
import gc
import json
import shutil
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

from repro.core.observer import TimerObserver

from stackbench import stacks
from stackbench.measure import (
    DEFAULT_SECONDS,
    WORKLOADS,
    Prepared,
    Rep,
    Workload,
    chunks,
    fresh_dir,
    prepare,
    prepare_stream,
    prime,
    replay,
)
from stackbench.speed import probe, scale
from stackbench.stacks import LEDGER_ROWS, Stack, Tap
from stackbench.stats import median, quantiles
from stackbench.streams import (
    HEARTBEAT,
    RETRANSMIT,
    START,
    STOP,
    UPDATE,
    generate,
    mismatches,
)

#: Scheduler calls a layer proxy times; everything else is forwarded as is.
TRACED_CALLS = (
    "start_timer",
    "stop_timer",
    "update_timer",
    "restart_timer",
    "advance_to",
    "start_many",
    "update_many",
    "stop_many",
)
#: The traced reps replay this share of the untraced run's ticks.
TRACE_FRACTION = 0.25
#: Chunks per traced rep (each scaled by the probes around it).
TRACE_CHUNKS = 25
#: The ledger's stream: n timers, and ticks at the default run length.
LEDGER_N, LEDGER_TICKS = 2_000, 200
#: Recoveries timed on fresh copies of the durable journal.
RECOVERIES = 5
#: Renders of the metrics registry timed after the observed replay.
RENDERS = 5
#: Live runtime row: timers, ops offered per 1 ms tick, measured seconds.
RUNTIME_N, RUNTIME_OPS_PER_TICK, RUNTIME_SECONDS = 2_000, 5, 2.0


class Tracer(Tap):
    """Records spans at the boundaries a stack builder marks."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        # Spans in the order they closed; nesting is recovered afterwards
        # from the intervals (one thread, so spans nest or are disjoint).
        self.code = array("q")
        self.start = array("q")
        self.end = array("q")

    # ------------------------------------------------------------ the tap

    def layer(self, name: str, obj):
        return LayerProxy(obj, name, self)

    def observer(self, observer):
        return ObserverProxy(observer, self)

    def method(self, obj, attribute: str, span: str) -> None:
        setattr(obj, attribute, self.wrap(span, getattr(obj, attribute)))

    def function(self, span: str, fn):
        return self.wrap(span, fn)

    # ------------------------------------------------------------- spans

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call while the tracer is enabled."""
        code = self._code(name)
        tracer = self
        add_code, add_start, add_end = (
            self.code.append, self.start.append, self.end.append
        )
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add_start(began)
                add_code(code)
                add_end(clock())

        return traced

    def record(self, name: str, began: int, ended: int) -> None:
        """Add a span timed by hand (for calls ``wrap`` cannot time)."""
        self.end.append(ended)
        self.start.append(began)
        self.code.append(self._code(name))

    def __len__(self) -> int:
        return len(self.start)

    def tree(self):
        """Spans in start order as ``(order, parents, ops)``: ``order[i]`` is
        the recorded index of the i-th span to start, ``parents[i]`` the
        position of its parent in ``order`` (-1 for a root), and ``ops[i]``
        the client op it belongs to (one per root span)."""
        starts, ends = self.start, self.end
        order = sorted(range(len(starts)), key=lambda i: (starts[i], -ends[i]))
        parents = [-1] * len(order)
        ops = [0] * len(order)
        open_spans: List[int] = []
        op = 0
        for position, index in enumerate(order):
            while open_spans and ends[order[open_spans[-1]]] <= starts[index]:
                open_spans.pop()
            if open_spans:
                parents[position] = open_spans[-1]
            else:
                op += 1
            ops[position] = op
            open_spans.append(position)
        return order, parents, ops

    def write_jsonl(self, path: Path) -> None:
        """Write every span, in start order, as one JSON object per line."""
        order, parents, ops = self.tree()
        with open(path, "w") as handle:
            for position, index in enumerate(order):
                handle.write(
                    json.dumps(
                        {
                            "id": position,
                            "name": self.names[self.code[index]],
                            "start_ns": self.start[index],
                            "end_ns": self.end[index],
                            "parent": parents[position],
                            "op": ops[position],
                        }
                    )
                    + "\n"
                )


class LayerProxy:
    """Sits between two wrappers: times the scheduler calls, forwards the rest."""

    def __init__(self, target, layer: str, tracer: Tracer) -> None:
        self._target = target
        for name in TRACED_CALLS:
            call = getattr(target, name, None)
            if callable(call):
                setattr(self, name, tracer.wrap(f"{layer}.{name}", call))

    def __getattr__(self, name: str):
        return getattr(self._target, name)


class ObserverProxy(TimerObserver):
    """Times every hook of the observer it forwards to."""

    def __init__(self, observer, tracer: Tracer) -> None:
        self.per_tick_fidelity = observer.per_tick_fidelity
        for name in dir(TimerObserver):
            if name.startswith("on_"):
                setattr(self, name, tracer.wrap(f"obs.{name}", getattr(observer, name)))


# ----------------------------------------------------------------- analysis


class Spans:
    """Self times and scaled durations of one traced replay, by span name."""

    def __init__(self, tracer: Tracer, rep: Rep) -> None:
        bounds: List[int] = []
        factors: List[float] = []
        looped = 0.0
        for factor, began, _, call_span, advance_span in chunks(rep):
            bounds.append(began)
            factors.append(factor)
            looped += factor * (
                sum(rep.calls[call_span.start:call_span.stop])
                + sum(rep.advances[advance_span.start:advance_span.stop])
            )
        #: client calls, advances included.
        self.client_calls = len(rep.calls) + len(rep.advances)
        order, parents, ops = tracer.tree()
        starts, ends, codes = tracer.start, tracer.end, tracer.code
        duration = []
        for index in order:
            at = bisect.bisect_right(bounds, starts[index]) - 1
            duration.append((ends[index] - starts[index]) * factors[max(at, 0)])
        covered = [0.0] * len(order)
        for position, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += duration[position]
        self.count: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        #: layer -> client op -> that layer's self time within the op.
        self.by_op: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        #: root spans: (name, client op) in order.
        self.roots: List[tuple] = []
        names = tracer.names
        for position, index in enumerate(order):
            name = names[codes[index]]
            own = duration[position] - covered[position]
            self.count[name] += 1
            self.total[name] += duration[position]
            self.self_time[name] += own
            layer = name.split(".", 1)[0]
            self.layer_self[layer] += own
            self.by_op[layer][ops[position]] += own
            if parents[position] < 0:
                self.roots.append((name, ops[position]))
        #: scaled time of every client call, as the top layer's spans
        #: timed it (registry renders happen between calls, not in one).
        self.client_time = sum(
            duration[position]
            for position, parent in enumerate(parents)
            if parent < 0 and not names[codes[order[position]]].startswith("obs.render")
        )
        #: what one client call costs outside the top layer's span: the
        #: proxy's own call overhead as the replay loop's clock sees it.
        self.gap_ns = (looped - self.client_time) / self.client_calls

    def mean(self, name: str) -> float:
        """Mean scaled duration of ``name`` spans, in ns."""
        return self.total[name] / self.count[name] if self.count[name] else 0.0

    def mean_self(self, name: str) -> float:
        """Mean scaled self time of ``name`` spans, in ns."""
        return self.self_time[name] / self.count[name] if self.count[name] else 0.0

    def summed(self, prefix: str) -> float:
        """Summed duration of every span named ``prefix*``."""
        return sum(value for name, value in self.total.items() if name.startswith(prefix))

    def calls(self, prefix: str) -> int:
        """How many spans are named ``prefix*``."""
        return sum(n for name, n in self.count.items() if name.startswith(prefix))

    def per_call(self, layer: str) -> float:
        """The layer's self time per client call, in ns."""
        return self.layer_self[layer] / self.client_calls

    def advance_ops(self) -> List[int]:
        """Client op ids of the replay's ``advance_to`` calls, in order."""
        return [op for name, op in self.roots if name.endswith(".advance_to")]

    @property
    def coverage(self) -> float:
        """Share of the client call time that the layers' self times
        account for: one unless spans overlap or fall outside the calls."""
        inside = sum(self.layer_self.values()) - self.self_time["obs.render"]
        return inside / self.client_time


# ------------------------------------------------------------- the workloads


def _replay_once(build, prepared: Prepared, directory: Path, chunk: int,
                 tracer: Optional[Tracer] = None):
    """Build, prime and replay once, traced when ``tracer`` is given.

    Returns ``(stack, rep, ops per second at reference speed)``; the stack
    is left open for the caller to read its counters, then close.
    """
    stack = build(tracer if tracer is not None else Tap(), directory)
    try:
        prime(stack, prepared)
        if "durable" in stack.parts:
            stack.parts["primed"] = _journal_counts(stack.parts["durable"].journal)
        if tracer is not None:
            tracer.enabled = True
        rep = replay(stack, prepared, chunk)
    except BaseException:
        stack.close()
        raise
    finally:
        if tracer is not None:
            tracer.enabled = False
    elapsed = sum((ended - began) * factor for factor, began, ended, *_ in chunks(rep))
    return stack, rep, prepared.stream.op_count / elapsed * 1e9


def trace_workload(workload: Workload, seed: int, seconds: float, work: Path,
                   spans_dir: Optional[Path]) -> dict:
    """One untraced and one traced replay of a shortened stream, and the
    per-layer metrics of the layers this workload's stack holds."""
    ticks = max(1, round(workload.ticks_for(seconds) * TRACE_FRACTION))
    prepared = prepare(workload, seed, ticks)
    chunk = max(1, ticks // TRACE_CHUNKS)
    expected = prepared.stream.expected
    gc.collect()
    stack, plain, plain_rate = _replay_once(
        workload.build, prepared, fresh_dir(work, "plain"), chunk
    )
    stack.close()
    failed = plain.raised + mismatches(plain.observed, expected)
    gc.collect()
    tracer = Tracer()
    stack, rep, traced_rate = _replay_once(
        workload.build, prepared, fresh_dir(work, "traced"), chunk, tracer
    )
    try:
        failed += rep.raised + mismatches(rep.observed, expected)
        reads = _layer_reads(stack, tracer, work)
    finally:
        stack.close()
    spans = Spans(tracer, rep)
    if spans_dir is not None:
        tracer.write_jsonl(spans_dir / f"spans-{workload.name}.jsonl")
    name = workload.name
    metrics = {f"trace.overhead.{name}": (traced_rate / plain_rate, "ratio")}
    metrics.update(LAYER_METRICS[name](spans, prepared, reads))
    if name == "storm-bare":
        metrics.update(_charges(workload, prepared, work))
    if name == "sharded-mp":
        metrics.update(_transport(prepared, work, chunk, spans))
    return {
        "failed": failed,
        "attempted": 2 * prepared.stream.op_count,
        "metrics": metrics,
        "ticks": ticks,
        "spans": len(tracer),
        "coverage": spans.coverage,
        "proxy_gap_ns_per_call": spans.gap_ns,
        "client_ns": spans.client_time,
        "layer_self_ns": dict(spans.layer_self),
    }


def _layer_reads(stack: Stack, tracer: Tracer, work: Path) -> dict:
    """What the layers count themselves, read after the traced replay."""
    parts = stack.parts
    reads: dict = {}
    if "threadsafe" in parts:
        reads["contended"] = parts["threadsafe"].contended_acquisitions
    if "supervised" in parts:
        reads["supervision"] = parts["supervised"].counters()
    if "render" in parts:
        tracer.enabled = True
        try:
            for _ in range(RENDERS):
                parts["render"]()
        finally:
            tracer.enabled = False
    if "durable" in parts:
        primed = parts["primed"]
        reads["journal"] = {
            key: value - primed[key]
            for key, value in _journal_counts(parts["durable"].journal).items()
        }
        parts["durable"].flush()
        reads["recovery"] = _recoveries(parts["directory"], work)
    if "service" in parts:
        reads["imbalance"] = parts["service"].introspect()["imbalance"]
    return reads


def _journal_counts(journal) -> dict:
    return {
        "appended": journal.appended,
        "bytes": journal.bytes_written,
        "fsyncs": journal.fsyncs,
    }


def _recoveries(directory: Path, work: Path) -> dict:
    """``recover()`` the journal on fresh copies; median time and replay size."""
    from repro.durability import recover

    seconds: List[float] = []
    replayed = 0
    for index in range(RECOVERIES):
        copy = work / f"recover-{index}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(directory, copy)
        before = probe()
        began = perf_counter()
        durable = recover(copy, lambda: stacks.durable_inner(Tap(), {}))
        took = perf_counter() - began
        seconds.append(took * scale(before, probe()))
        replayed = durable.recovery.replayed_records
        durable.close()
        shutil.rmtree(copy, ignore_errors=True)
    return {"seconds": median(seconds), "replayed": replayed}


def _charges(workload: Workload, prepared: Prepared, work: Path) -> dict:
    """Exact OpCounter charge per START, UPDATE, STOP and tick (untimed)."""
    stack = workload.build(Tap(), fresh_dir(work, "charges"))
    try:
        prime(stack, prepared)
        top, total = stack.top, stack.counter_total
        spent: Counter = Counter()
        calls: Counter = Counter()
        for now, ops in enumerate(prepared.rows):
            for code, rid, interval in ops:
                before = total()
                if code == UPDATE:
                    top.update_timer(rid, interval)
                elif code == START:
                    top.start_timer(interval, rid)
                else:
                    top.stop_timer(rid)
                spent[code] += total() - before
                calls[code] += 1
            before = total()
            top.advance_to(now + 1)
            spent["tick"] += total() - before
            calls["tick"] += 1
    finally:
        stack.close()
    return {
        f"core.charge_{routine}": (spent[code] / calls[code], "count")
        for code, routine in (
            (START, "start"), (UPDATE, "update"), (STOP, "stop"), ("tick", "tick")
        )
    }


def _core_metrics(spans: Spans, prepared: Prepared, reads: dict) -> dict:
    return {
        "core.start_ns": (spans.mean_self("core.start_timer"), "ns"),
        "core.update_ns": (spans.mean_self("core.update_timer"), "ns"),
        "core.stop_ns": (spans.mean_self("core.stop_timer"), "ns"),
    }


def _observed_metrics(spans: Spans, prepared: Prepared, reads: dict) -> dict:
    ticks = len(prepared.rows)
    core_per_tick = [spans.by_op["core"].get(op, 0.0) for op in spans.advance_ops()]
    tick_self = spans.self_time["supervision.advance_to"] + spans.self_time["supervision.dispatch"]
    supervision = reads["supervision"]
    hooks = spans.calls("obs.on_")
    render_self = spans.self_time["obs.render"]
    return {
        "core.advance_us": (sum(core_per_tick) / ticks / 1e3, "us"),
        "core.advance_p99_us": (
            quantiles(Counter(int(ns) for ns in core_per_tick), (0.99,))[0] / 1e3,
            "us",
        ),
        "core.share": (spans.layer_self["core"] / spans.client_time, "ratio"),
        "threadsafe.self_ns": (spans.per_call("threadsafe"), "ns"),
        "threadsafe.contended": (reads["contended"], "count"),
        "supervision.self_ns": (
            (spans.layer_self["supervision"] - tick_self) / prepared.stream.op_count,
            "ns",
        ),
        "supervision.tick_self_us": (tick_self / ticks / 1e3, "us"),
        "supervision.retries": (supervision["retries"], "count"),
        "supervision.quarantined": (supervision["quarantined"], "count"),
        "supervision.shed": (supervision["shed"], "count"),
        "obs.hook_ns": (spans.summed("obs.on_") / hooks, "ns"),
        "obs.events_per_op": (hooks / spans.client_calls, "ratio"),
        "obs.render_ms": (spans.mean("obs.render") / 1e6, "ms"),
        "obs.share": ((spans.layer_self["obs"] - render_self) / spans.client_time, "ratio"),
    }


def _durable_metrics(spans: Spans, prepared: Prepared, reads: dict) -> dict:
    ops = prepared.stream.op_count
    journal = reads["journal"]
    client = spans.client_time
    return {
        "durability.self_ns": (spans.per_call("durability"), "ns"),
        "durability.append_us": (spans.mean("durability.append") / 1e3, "us"),
        "durability.append_share": (spans.total["durability.append"] / client, "ratio"),
        "durability.records_per_op": (spans.count["durability.append"] / ops, "ratio"),
        "durability.bytes_per_record": (journal["bytes"] / journal["appended"], "B"),
        "durability.fsyncs_per_kop": (journal["fsyncs"] * 1e3 / ops, "count"),
        "durability.snapshot_ms": (spans.mean("durability.snapshot") / 1e6, "ms"),
        "durability.snapshots_per_kop": (
            spans.count["durability.snapshot"] * 1e3 / ops, "count"
        ),
        "durability.snapshot_share": (spans.total["durability.snapshot"] / client, "ratio"),
        "durability.replayed_records": (reads["recovery"]["replayed"], "count"),
        "durability.recover_s": (reads["recovery"]["seconds"], "s"),
    }


def _sharded_metrics(spans: Spans, prepared: Prepared, reads: dict) -> dict:
    ticks = len(prepared.rows)
    batch_calls = spans.client_calls - ticks
    submissions = spans.count["backends.submit_batch"]
    return {
        "sharding.self_us": (spans.per_call("sharding") / 1e3, "us"),
        "sharding.partition_ns": (spans.mean("sharding.partition"), "ns"),
        "sharding.imbalance": (reads["imbalance"], "ratio"),
        "backends.submit_us": (spans.mean("backends.submit_batch") / 1e3, "us"),
        "backends.submissions_per_call": (submissions / batch_calls, "ratio"),
        "backends.ops_per_submission": (prepared.stream.op_count / submissions, "ratio"),
        "backends.advance_us": (
            (spans.total["backends.advance_to"] + spans.total["backends.drain_expired"])
            / ticks / 1e3,
            "us",
        ),
        "backends.share": (spans.layer_self["backends"] / spans.client_time, "ratio"),
    }


#: Per-layer metrics, by the workload whose stack holds the layer.
LAYER_METRICS = {
    "storm-bare": _core_metrics,
    "heartbeat-observed": _observed_metrics,
    "storm-durable": _durable_metrics,
    "sharded-mp": _sharded_metrics,
}


def _transport(prepared: Prepared, work: Path, chunk: int, remote: Spans) -> dict:
    """Multiprocessing minus in-process ``submit_batch`` time on the same
    batches: what crossing the process boundary costs per submission."""
    tracer = Tracer()
    stack, rep, _ = _replay_once(
        lambda tap, directory: stacks.build_sharded(tap, directory, "inprocess"),
        prepared,
        fresh_dir(work, "inprocess"),
        chunk,
        tracer,
    )
    stack.close()
    local = Spans(tracer, rep)
    return {
        "backends.transport_us": (
            (remote.mean("backends.submit_batch") - local.mean("backends.submit_batch"))
            / 1e3,
            "us",
        )
    }


# ---------------------------------------------------------------- the ledger


def ledger(seed: int, seconds: float, work: Path) -> dict:
    """Replay one small re-arm storm through stacks of increasing depth.

    Per row: ns per START, UPDATE and STOP and us per tick at reference
    speed, the OpCounter charge per client op, and the marginal ns per
    call over the row's base. Every row must fire exactly the oracle's
    expiries, so all rows share one fingerprint.
    """
    ticks = max(1, round(LEDGER_TICKS * seconds / DEFAULT_SECONDS))
    prepared = prepare_stream(generate(RETRANSMIT, LEDGER_N, ticks, seed), False)
    codes = [code for ops in prepared.rows for code, _, _ in ops]
    chunk = max(1, ticks // TRACE_CHUNKS)
    ops = prepared.stream.op_count
    metrics: dict = {}
    per_call: Dict[str, float] = {}
    failed = 0
    for row, base, build in LEDGER_ROWS:
        gc.collect()
        stack = build(Tap(), fresh_dir(work, f"ledger-{row}"))
        try:
            prime(stack, prepared)
            charged = stack.counter_total()
            rep = replay(stack, prepared, chunk)
            charge = stack.counter_total() - charged
        finally:
            stack.close()
        failed += rep.raised + mismatches(rep.observed, prepared.stream.expected)
        spent: Counter = Counter()
        calls: Counter = Counter()
        tick_ns = 0.0
        for factor, _, _, call_span, advance_span in chunks(rep):
            for index in call_span:
                spent[codes[index]] += rep.calls[index] * factor
                calls[codes[index]] += 1
            tick_ns += sum(rep.advances[advance_span.start:advance_span.stop]) * factor
        per_call[row] = sum(spent.values()) / sum(calls.values())
        for code, routine in ((START, "start"), (UPDATE, "update"), (STOP, "stop")):
            metrics[f"ledger.{row}.{routine}_ns"] = (spent[code] / calls[code], "ns")
        metrics[f"ledger.{row}.tick_us"] = (tick_ns / ticks / 1e3, "us")
        metrics[f"ledger.{row}.charge"] = (charge / ops, "count")
        if base is not None:
            metrics[f"ledger.{row}.marginal_ns"] = (per_call[row] - per_call[base], "ns")
    return {
        "failed": failed,
        "attempted": ops * len(LEDGER_ROWS),
        "metrics": metrics,
        "ticks": ticks,
        "ns_per_call": per_call,
    }


# ------------------------------------------------------------- the runtime


def runtime_row(seed: int, seconds: float) -> dict:
    """AsyncTimerService on a live clock: 1 ms ticks, 5k ops/s offered.

    Ungated: its timings follow the host's scheduling of the event loop
    more than the code (see ``stackbench/README.md``).
    """
    import asyncio

    duration = max(0.5, RUNTIME_SECONDS * seconds / DEFAULT_SECONDS)
    return asyncio.run(_runtime(seed, duration))


async def _runtime(seed: int, duration: float) -> dict:
    import asyncio
    import random

    from repro.core.errors import TimerError
    from repro.core.registry import make_scheduler
    from repro.runtime import AsyncTimerService, MonotonicClock

    tracer = Tracer()
    clock = MonotonicClock()
    core = make_scheduler("scheme6", table_size=4096)
    service = AsyncTimerService(
        tracer.layer("core", core), tick_duration=0.001, clock=clock
    )
    late: List[float] = []

    def fired(timer) -> None:
        late.append(clock.now() - service.wall_deadline(timer))

    rng = random.Random(f"runtime:{seed}")
    mix = HEARTBEAT
    ids = [f"r{i}" for i in range(RUNTIME_N)]
    await service.start()
    try:
        for rid in ids:
            await service.start_timer(rng.randint(mix.lo, mix.hi), rid, fired)
        before = probe()
        tracer.enabled = True
        began = clock.now()
        sent = raced = 0
        # Spans are timed by hand: a wrapper around a coroutine function
        # would time only the creation of the coroutine.
        while clock.now() - began < duration:
            due = int((clock.now() - began) * 1e3 * RUNTIME_OPS_PER_TICK)
            while sent < due:
                rid = ids[rng.randrange(RUNTIME_N)]
                interval = rng.randint(mix.lo, mix.hi)
                called = perf_counter_ns()
                try:
                    if not service.is_pending(rid):
                        await service.start_timer(interval, rid, fired)
                    elif rng.random() < mix.p_update:
                        await service.update_timer(rid, interval)
                    else:
                        await service.stop_timer(rid)
                        await service.start_timer(interval, rid, fired)
                except TimerError:
                    # The timer fired while the wheel caught up with the
                    # wall clock, between the check and the call.
                    raced += 1
                tracer.record("runtime.call", called, perf_counter_ns())
                sent += 1
            await asyncio.sleep(0.001)
        elapsed = clock.now() - began
        tracer.enabled = False
        factor = scale(before, probe())
    finally:
        await service.aclose()
    order, parents, _ = tracer.tree()
    covered: Counter = Counter()
    for position, parent in enumerate(parents):
        if parent >= 0:
            index = order[position]
            covered[parent] += tracer.end[index] - tracer.start[index]
    code = tracer.names.index("runtime.call")
    own = [
        tracer.end[index] - tracer.start[index] - covered[position]
        for position, index in enumerate(order)
        if tracer.code[index] == code
    ]
    lateness = Counter(int(seconds * 1e6) for seconds in late)
    return {
        "metrics": {
            "runtime.self_us": (sum(own) * factor / len(own) / 1e3, "us"),
            "runtime.wakeups_per_s": (service.wakeups / elapsed, "1/s"),
            "runtime.replans_per_s": (service.replans / elapsed, "1/s"),
            "runtime.oversleep_ticks_per_s": (service.oversleep_ticks / elapsed, "1/s"),
            "runtime.fire_late_p99_ms": (
                quantiles(lateness, (0.99,))[0] / 1e3 if late else 0.0,
                "ms",
            ),
        },
        "ops": sent,
        "raced": raced,
        "seconds": elapsed,
        "expiries": len(late),
    }


# ---------------------------------------------------------------- the run


def trace_all(seed: int, seconds: float, work: Path,
              spans_dir: Optional[str] = None) -> dict:
    """The whole traced run: every workload traced, the ledger, and the
    live runtime row. Returns the per-layer metrics and what was checked."""
    out = Path(spans_dir) if spans_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    metrics: dict = {}
    detail: dict = {}
    attempted = failed = 0
    parts = [
        (workload.name, lambda w=workload: trace_workload(w, seed, seconds, work, out))
        for workload in WORKLOADS.values()
    ]
    parts.append(("ledger", lambda: ledger(seed, seconds, work)))
    parts.append(("runtime", lambda: runtime_row(seed, seconds)))
    for name, run in parts:
        part = run()
        metrics.update(part.pop("metrics"))
        attempted += part.pop("attempted", 0)
        failed += part.pop("failed", 0)
        detail[name] = part
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "detail": detail,
    }
