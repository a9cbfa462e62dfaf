"""Workloads, closed-loop replay, and the end-to-end metrics of one run.

One client thread drives each stack closed-loop: it sends the next call
only when the previous one returned. A run generates its workload's stream
once, replays it through :data:`REPS` freshly built stacks, checks every
replay against the oracle, and reports medians over the reps and
percentiles over the pooled samples of all reps, every timing scaled to
the reference host speed (:mod:`stackbench.speed`).
"""

from __future__ import annotations

import gc
import os
import shutil
import tracemalloc
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List

from stackbench import stacks
from stackbench.stacks import Stack, Tap
from stackbench.speed import probe, scale
from stackbench.stats import median, quantiles
from stackbench.streams import (
    HEARTBEAT,
    RETRANSMIT,
    RETRANSMIT_20,
    START,
    START_MANY,
    STOP,
    UPDATE,
    UPDATE_MANY,
    Mix,
    Stream,
    batches,
    generate,
    mismatches,
)

#: Fresh stacks one run replays its stream through.
REPS = 5
#: The run length the workload sizes below are tuned for.
DEFAULT_SECONDS = 20
#: Timers per ``start_many`` while priming a batched stack.
PRIME_BATCH = 1024
#: Chunks of ticks per rep; each chunk's timings are scaled by the host
#: speed probes taken before and after it.
CHUNKS = 100


@dataclass(frozen=True)
class Workload:
    """One traffic mix through one deployed stack (``BENCHMARK.json`` and
    ``stackbench/README.md`` say why each exists)."""

    name: str
    mix: Mix
    #: timers primed before the measured phase (the paper's n).
    n: int
    #: ticks per rep at :data:`DEFAULT_SECONDS`; scaled with the run length.
    ticks: int
    #: send each tick as one start_many/update_many/stop_many.
    batched: bool
    build: Callable[[Tap, Path], Stack]

    def ticks_for(self, seconds: float) -> int:
        """Ticks per rep for a run of ``seconds`` measured seconds."""
        return max(1, round(self.ticks * seconds / DEFAULT_SECONDS))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "storm-bare",
            RETRANSMIT,
            n=20_000,
            ticks=8_000,
            batched=False,
            build=stacks.build_bare,
        ),
        Workload(
            "heartbeat-observed",
            HEARTBEAT,
            n=20_000,
            ticks=1_500,
            batched=False,
            build=stacks.build_observed,
        ),
        Workload(
            "storm-durable",
            RETRANSMIT_20,
            n=2_000,
            ticks=2_000,
            batched=False,
            build=stacks.build_durable,
        ),
        Workload(
            "sharded-mp",
            RETRANSMIT,
            n=20_000,
            ticks=2_000,
            batched=True,
            build=stacks.build_sharded,
        ),
    )
}


@dataclass
class Prepared:
    """A stream in the form its workload replays it, built before timing."""

    stream: Stream
    batched: bool
    #: what priming sends: ``(id, interval)`` pairs, or start_many batches.
    prime_rows: list
    #: per tick, the rows one replay sends (ops, or batched rows).
    rows: List[list]


def prepare(workload: Workload, seed: int, ticks: int) -> Prepared:
    """Generate the workload's stream in the form it replays it."""
    stream = generate(workload.mix, workload.n, ticks, seed)
    return prepare_stream(stream, workload.batched)


def prepare_stream(stream: Stream, batched: bool) -> Prepared:
    """Group a stream by tick into batched rows when ``batched``."""
    prime_rows: list = stream.prime
    rows = stream.ticks
    if batched:
        specs = [(interval, rid) for rid, interval in stream.prime]
        prime_rows = [
            specs[i:i + PRIME_BATCH] for i in range(0, len(specs), PRIME_BATCH)
        ]
        rows = [batches(ops) for ops in stream.ticks]
    return Prepared(stream, batched, prime_rows, rows)


def prime(stack: Stack, prepared: Prepared) -> None:
    """Start the stream's ``n`` initial timers on a fresh stack."""
    top = stack.top
    if prepared.batched:
        for specs in prepared.prime_rows:
            top.start_many(specs)
        return
    start = top.start_timer
    for rid, interval in prepared.prime_rows:
        start(interval, rid)


@dataclass
class Rep:
    """What one replay of a stream produced."""

    calls: array
    advances: array
    raised: int
    observed: list
    #: per chunk of ticks: (start ns, end ns, calls so far, advances so far)
    marks: list
    #: host speed probes: one before the first chunk and one after each.
    probes: list


def replay(stack: Stack, prepared: Prepared, chunk: int) -> Rep:
    """Replay the measured phase closed-loop, timing every call.

    After every ``chunk`` ticks the chunk is marked and the host speed
    probed, outside the timed calls.
    """
    top = stack.top
    start, update, stop = top.start_timer, top.update_timer, top.stop_timer
    start_many = getattr(top, "start_many", None)
    update_many = getattr(top, "update_many", None)
    stop_many = getattr(top, "stop_many", None)
    advance_to = top.advance_to
    after_advance = stack.after_advance
    clock = perf_counter_ns
    calls = array("q")
    advances = array("q")
    record, record_advance = calls.append, advances.append
    last = len(prepared.rows)
    marks: list = []
    probes = [probe()]
    observed: list = []
    raised = 0
    began = clock()
    for now, rows in enumerate(prepared.rows):
        for code, a, b in rows:
            if code == UPDATE:
                t0 = clock()
                try:
                    update(a, b)
                except Exception:
                    raised += 1
                t1 = clock()
            elif code == START:
                t0 = clock()
                try:
                    start(b, a)
                except Exception:
                    raised += 1
                t1 = clock()
            elif code == STOP:
                t0 = clock()
                try:
                    stop(a)
                except Exception:
                    raised += 1
                t1 = clock()
            elif code == UPDATE_MANY:
                t0 = clock()
                try:
                    update_many(a)
                except Exception:
                    raised += 1
                t1 = clock()
            elif code == START_MANY:
                t0 = clock()
                try:
                    start_many(a)
                except Exception:
                    raised += 1
                t1 = clock()
            else:
                t0 = clock()
                try:
                    stop_many(a)
                except Exception:
                    raised += 1
                t1 = clock()
            record(t1 - t0)
        t0 = clock()
        try:
            fired = advance_to(now + 1)
        except Exception:
            raised += 1
            fired = ()
        t1 = clock()
        record_advance(t1 - t0)
        observed.extend([(timer.request_id, timer.expired_at) for timer in fired])
        if after_advance is not None:
            after_advance(now + 1)
        if (now + 1) % chunk == 0 or now + 1 == last:
            marks.append((began, clock(), len(calls), len(advances)))
            probes.append(probe())
            began = clock()
    return Rep(calls, advances, raised, observed, marks, probes)


def fresh_dir(work: Path, name: str) -> Path:
    """An empty directory ``work/name`` for one stack's files."""
    path = work / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def build_primed(workload: Workload, prepared: Prepared, work: Path) -> tuple:
    """Build and prime a stack; returns ``(stack, seconds taken)``."""
    began = perf_counter()
    stack = workload.build(Tap(), work)
    try:
        prime(stack, prepared)
    except BaseException:
        stack.close()
        raise
    return stack, perf_counter() - began


def run_reps(
    workload: Workload, prepared: Prepared, work: Path, reps: int, fault=None
):
    """Replay the stream through ``reps`` fresh stacks.

    Returns ``(reps, setup seconds at reference speed, failures)``; a
    failure is a call that raised or an expiry the oracle disagrees with.
    ``fault`` (see :mod:`stackbench.faults`) wraps each stack's top.
    """
    chunk = max(1, len(prepared.rows) // CHUNKS)
    done: List[Rep] = []
    setups: List[float] = []
    failed = 0
    for index in range(reps):
        gc.collect()
        directory = fresh_dir(work, f"rep{index}")
        before = probe()
        stack, setup = build_primed(workload, prepared, directory)
        try:
            setups.append(setup * scale(before, probe()))
            if fault is not None:
                stack.top = fault(stack.top, prepared)
            rep = replay(stack, prepared, chunk)
        finally:
            stack.close()
            shutil.rmtree(directory, ignore_errors=True)
        failed += rep.raised + mismatches(rep.observed, prepared.stream.expected)
        rep.observed = []
        done.append(rep)
    return done, setups, failed


def run_workload(
    workload: Workload, seed: int, seconds: float, work: Path, fault=None
) -> dict:
    """One untraced run: the end-to-end metrics, checked against the oracle."""
    prepared = prepare(workload, seed, workload.ticks_for(seconds))
    gc.collect()
    gc.freeze()
    try:
        reps, setups, failed = run_reps(workload, prepared, work, REPS, fault)
        memory = bytes_per_timer(workload, prepared, work)
    finally:
        gc.unfreeze()
    timed = summarise(prepared, reps)
    rates = timed.pop("rates")
    metrics = {
        "ops_per_s": (median(rates), "ops/s"),
        **{name: (value, "us") for name, value in timed.pop("scaled").items()},
        "bytes_per_timer": (memory, "B"),
        "setup_s": (median(setups), "s"),
    }
    return {
        "correct": failed == 0,
        "attempted": prepared.stream.op_count * REPS,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "detail": {
            "reps": REPS,
            "n": workload.n,
            "ticks_per_rep": len(prepared.rows),
            "ops_per_rep": prepared.stream.op_count,
            "per_rep": {"ops_per_s": rates, "setup_s": setups},
            **timed,
        },
    }


def chunks(rep: Rep):
    """Each chunk of a rep as ``(factor, began, ended, calls, advances)``:
    its speed factor, its wall-clock bounds in ns, and the ``range`` of
    call and advance samples it holds."""
    call_from = advance_from = 0
    for index, (began, ended, call_to, advance_to) in enumerate(rep.marks):
        yield (
            scale(rep.probes[index], rep.probes[index + 1]),
            began,
            ended,
            range(call_from, call_to),
            range(advance_from, advance_to),
        )
        call_from, advance_from = call_to, advance_to


def summarise(prepared: Prepared, reps: List[Rep]) -> dict:
    """Throughput and latency percentiles over all reps, each chunk's
    timings scaled to the reference host speed by the probes around it.
    The unscaled readings are kept beside them."""
    calls: Counter = Counter()
    advances: Counter = Counter()
    raw_calls: Counter = Counter()
    raw_advances: Counter = Counter()
    rates: List[float] = []
    raw_rates: List[float] = []
    factors: List[float] = []
    for rep in reps:
        elapsed = raw_elapsed = 0.0
        for factor, began, ended, call_span, advance_span in chunks(rep):
            factors.append(factor)
            for samples, span, scaled, raw in (
                (rep.calls, call_span, calls, raw_calls),
                (rep.advances, advance_span, advances, raw_advances),
            ):
                counts = Counter(samples[span.start:span.stop])
                raw.update(counts)
                for ns, count in counts.items():
                    scaled[int(ns * factor)] += count
            elapsed += (ended - began) * factor
            raw_elapsed += ended - began
        ops = prepared.stream.op_count
        rates.append(ops / elapsed * 1e9)
        raw_rates.append(ops / raw_elapsed * 1e9)
    call_p50, call_p99 = quantiles(calls, (0.50, 0.99))
    advance_p50, advance_p99 = quantiles(advances, (0.50, 0.99))
    raw_call = quantiles(raw_calls, (0.50, 0.99))
    raw_advance = quantiles(raw_advances, (0.50, 0.99))
    return {
        "rates": rates,
        "scaled": {
            "call_p50_us": call_p50 / 1e3,
            "call_p99_us": call_p99 / 1e3,
            "advance_p50_us": advance_p50 / 1e3,
            "advance_p99_us": advance_p99 / 1e3,
        },
        "call_samples": sum(calls.values()),
        "advance_samples": sum(advances.values()),
        "speed_factor_median": median(factors),
        "speed_factor_range": [min(factors), max(factors)],
        "unscaled": {
            "ops_per_s": median(raw_rates),
            "call_p50_us": raw_call[0] / 1e3,
            "call_p99_us": raw_call[1] / 1e3,
            "advance_p50_us": raw_advance[0] / 1e3,
            "advance_p99_us": raw_advance[1] / 1e3,
        },
    }


def bytes_per_timer(workload: Workload, prepared: Prepared, work: Path) -> float:
    """Memory the primed timers hold, per timer (an untimed pass).

    Heap growth while priming a freshly built stack, by ``tracemalloc``.
    Worker processes are forked before tracing starts so that they do not
    trace themselves; their share is the shared-memory blocks the service
    reports plus each worker's growth in private resident pages.
    """
    stack = workload.build(Tap(), fresh_dir(work, "bytes"))
    try:
        service = stack.parts.get("service")
        workers = _worker_pids(service)
        gc.collect()
        rss_before = [_private_rss(pid) for pid in workers]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prime(stack, prepared)
            gc.collect()
            heap = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        remote = sum(_private_rss(pid) for pid in workers) - sum(rss_before)
        if service is not None and workers:
            remote += sum(
                block["bytes"]
                for block in service.introspect().get("shared_memory", ())
                if block
            )
    finally:
        stack.close()
    return (heap + remote) / workload.n


def _worker_pids(service) -> List[int]:
    if service is None:
        return []
    return [worker["pid"] for worker in service.introspect().get("workers", ())]


def _private_rss(pid: int) -> int:
    """Resident bytes of ``pid`` not backed by a file or shared memory."""
    with open(f"/proc/{pid}/statm") as handle:
        fields = handle.read().split()
    return (int(fields[1]) - int(fields[2])) * os.sysconf("SC_PAGE_SIZE")
