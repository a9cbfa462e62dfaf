"""The oracle, the generator, and the oracle check on every stack."""

from __future__ import annotations

import pytest

from stackbench.faults import FAULTS
from stackbench.measure import WORKLOADS, prepare_stream, prime, replay
from stackbench.stacks import Tap
from stackbench.streams import HEARTBEAT, RETRANSMIT, START, STOP, UPDATE, generate, mismatches

SEEDS = (1987, 7)


def _small(workload, seed: int):
    """A small stream of the workload's mix: 2,000 timers over 300 ticks."""
    return prepare_stream(generate(workload.mix, 2_000, 300, seed), workload.batched)


def _replay(workload, prepared, tmp_path, fault=None):
    stack = workload.build(Tap(), tmp_path)
    try:
        prime(stack, prepared)
        if fault is not None:
            stack.top = fault(stack.top, prepared)
        return replay(stack, prepared, chunk=50)
    finally:
        stack.close()


def test_generator_is_deterministic_per_seed():
    first = generate(RETRANSMIT, 100, 50, 3)
    again = generate(RETRANSMIT, 100, 50, 3)
    other = generate(RETRANSMIT, 100, 50, 4)
    assert (first.prime, first.ticks, first.expected) == (
        again.prime,
        again.ticks,
        again.expected,
    )
    assert first.ticks != other.ticks


@pytest.mark.parametrize("mix", [RETRANSMIT, HEARTBEAT])
def test_generator_follows_its_mix(mix):
    stream = generate(mix, 500, 200, 11)
    draws = [op for ops in stream.ticks for op in ops]
    updates = sum(code == UPDATE for code, _, _ in draws)
    stops = sum(code == STOP for code, _, _ in draws)
    assert updates + stops == mix.ops_per_tick * 200
    assert updates / (updates + stops) == pytest.approx(mix.p_update, abs=0.05)
    assert all(mix.lo <= interval <= mix.hi for code, _, interval in draws if code != STOP)
    # Every timer that fires is restarted under its own id on the tick it
    # fired at, before any other op of that tick.
    for rid, tick in stream.expected:
        if tick < len(stream.ticks):
            assert any(code == START and r == rid for code, r, _ in stream.ticks[tick])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_predicts_every_stack_exactly(name, seed, tmp_path):
    workload = WORKLOADS[name]
    prepared = _small(workload, seed)
    rep = _replay(workload, prepared, tmp_path)
    assert prepared.stream.expected, "the stream must fire timers"
    assert rep.raised == 0
    assert sorted(rep.observed) == sorted(prepared.stream.expected)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_proxies_are_caught(fault, tmp_path):
    workload = WORKLOADS["storm-bare"]
    prepared = _small(workload, 1987)
    rep = _replay(workload, prepared, tmp_path, FAULTS[fault])
    assert rep.raised + mismatches(rep.observed, prepared.stream.expected) > 0


def test_mismatches_counts_a_late_firing_twice():
    expected = {("a", 5), ("b", 6)}
    assert mismatches([("a", 5), ("b", 6)], expected) == 0
    assert mismatches([("a", 6), ("b", 6)], expected) == 2
    assert mismatches([("a", 5)], expected) == 1
    assert mismatches([("a", 5), ("a", 5), ("b", 6)], expected) == 1
