"""Abstract operation counters charged by every timer scheme.

Four operation classes are tracked, chosen to match the quantities the paper
reasons about:

``reads``
    memory reads: following a pointer, loading a stored expiry value.
``writes``
    memory writes: storing a field, decrementing a counter.
``compares``
    comparisons: the unit of Section 3.2's search-cost analysis.
``links``
    pointer updates when (un)linking a list/tree node; separated from plain
    writes because Section 7 prices queue insertion/deletion as a block.

Counters are cheap plain-integer bumps so schemes can charge them
unconditionally; a scheduler built with the shared :data:`NULL_COUNTER`
skips the cost (it swallows charges) for pure wall-clock benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpSnapshot:
    """An immutable point-in-time copy of an :class:`OpCounter`.

    Snapshots support subtraction, which is how per-operation costs are
    extracted: snapshot before, snapshot after, subtract.
    """

    reads: int = 0
    writes: int = 0
    compares: int = 0
    links: int = 0

    @property
    def total(self) -> int:
        """Sum of all operation classes (the 'one unit each' pricing)."""
        return self.reads + self.writes + self.compares + self.links

    @property
    def memory_ops(self) -> int:
        """Reads plus writes — Section 3.2's insertion-cost unit."""
        return self.reads + self.writes

    def __sub__(self, other: "OpSnapshot") -> "OpSnapshot":
        return OpSnapshot(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            compares=self.compares - other.compares,
            links=self.links - other.links,
        )

    def __add__(self, other: "OpSnapshot") -> "OpSnapshot":
        return OpSnapshot(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            compares=self.compares + other.compares,
            links=self.links + other.links,
        )


class OpCounter:
    """Mutable accumulator of abstract operations.

    Schemes call the single-op bump methods on hot paths and
    :meth:`charge` for grouped costs. Use :meth:`snapshot` /
    :meth:`since` to meter an individual operation.
    """

    __slots__ = ("reads", "writes", "compares", "links")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.compares = 0
        self.links = 0

    def read(self, n: int = 1) -> None:
        """Charge ``n`` memory reads."""
        self.reads += n

    def write(self, n: int = 1) -> None:
        """Charge ``n`` memory writes."""
        self.writes += n

    def compare(self, n: int = 1) -> None:
        """Charge ``n`` comparisons."""
        self.compares += n

    def link(self, n: int = 1) -> None:
        """Charge ``n`` pointer (un)link updates."""
        self.links += n

    def charge(
        self,
        reads: int = 0,
        writes: int = 0,
        compares: int = 0,
        links: int = 0,
    ) -> None:
        """Charge a mixed batch of operations at once."""
        self.reads += reads
        self.writes += writes
        self.compares += compares
        self.links += links

    def reset(self) -> None:
        """Zero every class."""
        self.reads = 0
        self.writes = 0
        self.compares = 0
        self.links = 0

    def reset_to(self, snapshot: OpSnapshot) -> None:
        """Restore every class to ``snapshot``'s totals.

        The sparse-tick fast path uses this to probe a structure through
        its normal (charging) accessors without perturbing the totals:
        snapshot, probe, restore.
        """
        self.reads = snapshot.reads
        self.writes = snapshot.writes
        self.compares = snapshot.compares
        self.links = snapshot.links

    def snapshot(self) -> OpSnapshot:
        """Return an immutable copy of the current totals."""
        return OpSnapshot(self.reads, self.writes, self.compares, self.links)

    def since(self, before: OpSnapshot) -> OpSnapshot:
        """Operations charged since ``before`` was taken."""
        return self.snapshot() - before

    @property
    def total(self) -> int:
        """Sum of all operation classes."""
        return self.reads + self.writes + self.compares + self.links

    def __repr__(self) -> str:
        return (
            f"OpCounter(reads={self.reads}, writes={self.writes}, "
            f"compares={self.compares}, links={self.links})"
        )


#: The zero ``(reads, writes, compares, links)`` charge.
NO_CHARGE = (0, 0, 0, 0)


def charge_folded(
    counter: OpCounter,
    base: tuple,
    n: int,
    per_n: tuple,
    m: int = 0,
    per_m: tuple = NO_CHARGE,
) -> None:
    """Charge ``base + n * per_n + m * per_m`` in a single call.

    Charges are ``(reads, writes, compares, links)`` tuples. The wheel
    schemes count a tick's bucket walk as it goes and charge it once at the
    end: the totals are exactly those of charging every entry as it is
    visited, for one call per tick instead of one or two per entry.
    """
    br, bw, bc, bl = base
    nr, nw, nc, nl = per_n
    mr, mw, mc, ml = per_m
    counter.charge(
        br + n * nr + m * mr,
        bw + n * nw + m * mw,
        bc + n * nc + m * mc,
        bl + n * nl + m * ml,
    )


class _NullCounter(OpCounter):
    """A counter that swallows all charges; used for wall-clock benchmarks."""

    __slots__ = ()

    def read(self, n: int = 1) -> None:  # noqa: D102 - intentionally empty
        pass

    def write(self, n: int = 1) -> None:  # noqa: D102
        pass

    def compare(self, n: int = 1) -> None:  # noqa: D102
        pass

    def link(self, n: int = 1) -> None:  # noqa: D102
        pass

    def charge(
        self,
        reads: int = 0,
        writes: int = 0,
        compares: int = 0,
        links: int = 0,
    ) -> None:  # noqa: D102
        pass

    def reset_to(self, snapshot: OpSnapshot) -> None:  # noqa: D102
        pass


#: Shared do-nothing counter for benchmarks that only care about wall clock.
NULL_COUNTER = _NullCounter()
