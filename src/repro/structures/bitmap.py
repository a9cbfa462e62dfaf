"""Hierarchical slot-occupancy bitmap for the sparse-tick fast path.

The wheel schemes (4, 5, 6, 7 and their variants) keep one bit per slot
set exactly while the slot's list is non-empty. ``next_set_circular``
then answers "which occupied slot does the cursor reach next?" in
O(words) instead of O(slots) — the query ``advance_to`` uses to jump
over provably-empty ticks.

Layout follows the Linux kernel's ``find_next_bit`` idiom, adapted to
Python integers: the bit space is chunked into 64-bit words, plus one
*summary* integer with bit ``w`` set iff word ``w`` is non-zero. A scan
masks off the low bits of the starting word, then consults the summary
to hop directly to the next non-empty word — two lowest-set-bit
extractions total. Python's arbitrary-precision ints make the summary a
single value regardless of wheel size.

Maintaining the bitmap is Python-level bookkeeping for the fast path; it
is deliberately **not** charged to any :class:`~repro.cost.counters.OpCounter`
(the paper's cost model prices the timer structures themselves, and the
bit-identity tests pin down that the fast path leaves counter totals
unchanged).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

#: Bits per word; 64 matches the machine-word granularity the kernel scans.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1


def _lowest_set_bit(word: int) -> int:
    """Index of the lowest set bit of a non-zero int (ctz)."""
    return (word & -word).bit_length() - 1


class SlotBitmap:
    """Fixed-size bitmap with a one-level summary for O(words) scans."""

    __slots__ = ("size", "_words", "_summary", "_set_count")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self._words: List[int] = [0] * ((size + WORD_BITS - 1) // WORD_BITS)
        self._summary = 0  # bit w set iff _words[w] != 0
        self._set_count = 0

    # ------------------------------------------------------------- mutation

    def set(self, index: int) -> None:
        """Set bit ``index`` (idempotent)."""
        self._check(index)
        word_index, bit = divmod(index, WORD_BITS)
        mask = 1 << bit
        word = self._words[word_index]
        if not word & mask:
            self._words[word_index] = word | mask
            self._summary |= 1 << word_index
            self._set_count += 1

    def clear(self, index: int) -> None:
        """Clear bit ``index`` (idempotent)."""
        self._check(index)
        word_index, bit = divmod(index, WORD_BITS)
        mask = 1 << bit
        word = self._words[word_index]
        if word & mask:
            word &= ~mask
            self._words[word_index] = word
            if not word:
                self._summary &= ~(1 << word_index)
            self._set_count -= 1

    # -------------------------------------------------------------- queries

    def test(self, index: int) -> bool:
        """True when bit ``index`` is set."""
        self._check(index)
        word_index, bit = divmod(index, WORD_BITS)
        return bool(self._words[word_index] >> bit & 1)

    def any(self) -> bool:
        """True when at least one bit is set (one summary check)."""
        return self._summary != 0

    @property
    def words(self) -> List[int]:
        """The live words: bit ``b`` of word ``w`` is index ``w * WORD_BITS + b``.

        Read only; callers that diff occupancy keep their own copy.
        """
        return self._words

    @property
    def count(self) -> int:
        """Number of set bits."""
        return self._set_count

    def __len__(self) -> int:
        return self._set_count

    def __bool__(self) -> bool:
        return self._summary != 0

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.size and self.test(index)

    def next_set(self, start: int) -> Optional[int]:
        """Lowest set index ``>= start``, or ``None``.

        The ``find_next_bit`` scan: mask the starting word below ``start``,
        then jump via the summary to the next non-empty word.
        """
        if start < 0:
            start = 0
        if start >= self.size or not self._summary:
            return None
        word_index, bit = divmod(start, WORD_BITS)
        word = self._words[word_index] >> bit << bit  # drop bits below start
        if word:
            return word_index * WORD_BITS + _lowest_set_bit(word)
        higher = self._summary >> (word_index + 1) << (word_index + 1)
        if not higher:
            return None
        next_word = _lowest_set_bit(higher)
        return next_word * WORD_BITS + _lowest_set_bit(self._words[next_word])

    def next_set_circular(self, start: int) -> Optional[int]:
        """First set index scanning ``start, start+1, ..., wrap, start-1``.

        Returns ``None`` only when the bitmap is empty. This is the wheel
        query: with ``start`` one past the cursor, the circular distance to
        the result is the number of ticks until the next occupied slot.
        """
        found = self.next_set(start)
        if found is not None:
            return found
        if start <= 0:
            return None
        return self.next_set(0)  # wraps: smallest set index < start (if any)

    def iter_set(self) -> Iterator[int]:
        """All set indices, ascending (test/debug helper)."""
        index = self.next_set(0)
        while index is not None:
            yield index
            index = self.next_set(index + 1)

    # ------------------------------------------------------------- plumbing

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"bit {index} out of range [0, {self.size})")

    def __repr__(self) -> str:
        return f"SlotBitmap(size={self.size}, set={self._set_count})"
