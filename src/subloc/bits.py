"""Bitmask subsets: a subset of ``0..n-1`` is an int with bit ``i`` set."""

from __future__ import annotations

from typing import Iterable, Iterator


def bit(i: int) -> int:
    return 1 << i


def bits(mask: int) -> Iterator[int]:
    """Set-bit positions of ``mask`` in increasing order.  A mask longer
    than 1,024 bits is read off its digits, since each peel of its lowest
    bit copies the whole int.  Shorter masks, nearly all calls, peel faster
    (``bits_switch`` in ``BENCH_26.json`` times both ways)."""
    if mask >> 1024:
        digits = bin(mask)[:1:-1]
        i = digits.find("1")
        while i >= 0:
            yield i
            i = digits.find("1", i + 1)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_above(mask: int, i: int) -> Iterator[int]:
    """Set-bit positions of ``mask`` greater than ``i``, in increasing order."""
    return bits(mask >> (i + 1) << (i + 1))


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m

