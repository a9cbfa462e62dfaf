"""Host speed probes, for reading timings at one reference host speed.

The shared hosts this benchmark runs on change speed under it: the same
replay chunk takes from 1.0x to 1.8x its quickest time, in episodes that
last from a tenth of a second to minutes (``stackbench/README.md`` has the
measurements). Medians and minima over a run cannot remove an episode that
covers the whole run. So the replay runs :func:`probe` between every chunk
of ticks and scales the chunk's timings by :data:`REFERENCE_PROBE_NS` over
the probes around it: a timing then reads what it would on the same host
at the reference speed, and a code change still moves it in full.

The probe does what the timer stacks do most (allocate small slotted
records, insert, look up and delete string keys in a dict) on data of the
benchmark's own, so no change to the program under test can move it. A
plain arithmetic loop tracks the slow episodes only in part: across them,
chunk time over such a loop drifted by a quarter, and over this probe by a
few percent.
"""

from __future__ import annotations

from time import perf_counter_ns

#: Quickest-of-three probe time, in ns, that defines the reference speed:
#: the probe's typical time on a quiet 2-vCPU Xeon guest (Python 3.11).
REFERENCE_PROBE_NS = 130_000

_KEYS = [f"probe-{i}" for i in range(400)]


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = None


def probe() -> int:
    """Quickest of three timings of a fixed allocate/dict workload, in ns."""
    best = 0
    for _ in range(3):
        began = perf_counter_ns()
        table = {}
        for key in _KEYS:
            table[key] = _Record(key)
        for key in _KEYS:
            record = table[key]
            record.value = record.key
        for key in _KEYS:
            del table[key]
        took = perf_counter_ns() - began
        if not best or took < best:
            best = took
    return best


def scale(before: int, after: int) -> float:
    """Factor turning a timing taken between two probes into one at the
    reference speed."""
    return 2 * REFERENCE_PROBE_NS / (before + after)
