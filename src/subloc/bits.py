"""Bitmask subsets: a subset of ``0..n-1`` is an int with bit ``i`` set."""

from __future__ import annotations

from typing import Iterable, Iterator


def bit(i: int) -> int:
    return 1 << i


def bits(mask: int) -> Iterator[int]:
    """Set-bit positions of ``mask`` in increasing order."""
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

