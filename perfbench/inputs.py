"""Seeded workload inputs, written as lattice text.

Every frame the benchmark feeds the program is the down-set frame of a
finite poset.  The generator draws random posets and keeps the first
whose frame has an element count inside a window, so a seed fixes the
inputs while the windows fix how much work they carry.  The number of
primes of a down-set frame is the number of points of the poset, so the
point window is the prime window.
"""

from __future__ import annotations

import random
from typing import Sequence


def downsets(points: int, below: Sequence[int]) -> list[int]:
    """Down-closed subsets of a poset, sorted by (size, mask).

    ``below[i]`` is the mask of points strictly below point ``i``.
    """
    out = [m for m in range(1 << points)
           if all(below[i] & ~m == 0 for i in range(points) if m >> i & 1)]
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


def downset_text(points: int, below: Sequence[int]) -> str:
    """The down-set frame of a poset in the program's lattice file format."""
    ds = downsets(points, below)
    pos = {m: i for i, m in enumerate(ds)}
    lines = [f"lattice {len(ds)}", "bottom 0", f"top {len(ds) - 1}"]
    covers = sorted((pos[m], pos[m | 1 << i]) for m in ds for i in range(points)
                    if not m >> i & 1 and (m | 1 << i) in pos)
    lines.extend(f"{a} < {b}" for a, b in covers)
    return "\n".join(lines) + "\n"


def chain_below(points: int) -> list[int]:
    """A chain of points; its down-set frame is the chain with points + 1 elements."""
    return [(1 << i) - 1 for i in range(points)]


def product_below(*lengths: int) -> list[int]:
    """Disjoint chains; the down-set frame is the product of chains of length + 1."""
    below, base = [], 0
    for n in lengths:
        below.extend(((1 << i) - 1) << base for i in range(n))
        base += n
    return below


def random_poset(rng: random.Random, points: int, density: float) -> list[int]:
    """A random poset on ``points`` points as strictly-below masks.

    Each pair ``i < j`` is related with the given probability; relating
    ``i`` below ``j`` also puts everything below ``i`` below ``j``, so the
    relation is transitive and index order is a linear extension.
    """
    below = [0] * points
    for j in range(points):
        for i in range(j):
            if rng.random() < density:
                below[j] |= 1 << i | below[i]
    return below


def draw_frame(rng: random.Random, points: tuple[int, int],
               elements: tuple[int, int]) -> tuple[int, int, str]:
    """A seeded down-set frame as (points, elements, text).

    Point count and element count both fall inside their inclusive
    windows.  The density of the poset is drawn per attempt, so that the
    windows are reachable for any point count.
    """
    while True:
        p = rng.randint(*points)
        below = random_poset(rng, p, rng.random())
        n = len(downsets(p, below))
        if elements[0] <= n <= elements[1]:
            return p, n, downset_text(p, below)
