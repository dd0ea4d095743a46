"""Plain-text lattice format.

A file lists the element count and the covering relation::

    lattice 4
    bottom 0
    top 3
    0 < 1
    0 < 2
    1 < 3
    2 < 3

Elements are the integers ``0..n-1``.  ``#`` starts a comment; blank lines
are ignored.  ``bottom``/``top`` lines are optional unless ``strict`` is
set, in which case they are required and verified against the order, and
every ``a < b`` pair must be a cover.  Serialization emits the canonical
form: header, bottom, top, then the covering pairs in sorted order, so
``parse(serialize(L)) == L`` and serialization is idempotent on canonical text.
"""

from __future__ import annotations

from .lattice import Lattice, covers


Pairs = dict[tuple[int, int], int]   # each order pair with its first line


def parse_lattice(text: str, strict: bool = False) -> Lattice:
    return build_lattice(*read_pairs(text), strict=strict)


def read_pairs(text: str) -> tuple[int, Pairs, int | None, int | None]:
    """The element count, the order pairs and the declared bottom and top
    (``None`` where absent) of a lattice text; nothing is built."""
    n = None
    declared_bottom = None
    declared_top = None
    pairs: Pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "lattice":
                raise ValueError(f"line {lineno}: expected 'lattice <n>' header")
            n = _int(parts[1], lineno)
            if n <= 0:
                raise ValueError(f"line {lineno}: element count must be positive")
            continue
        if parts[0] == "bottom" and len(parts) == 2:
            declared_bottom = _int(parts[1], lineno)
        elif parts[0] == "top" and len(parts) == 2:
            declared_top = _int(parts[1], lineno)
        elif len(parts) == 3 and parts[1] == "<":
            i, j = _int(parts[0], lineno), _int(parts[2], lineno)
            if i == j:
                raise ValueError(f"line {lineno}: strict order pair {i} < {j}")
            pairs.setdefault((i, j), lineno)
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ValueError("missing 'lattice <n>' header")
    return n, pairs, declared_bottom, declared_top


def build_lattice(n: int, pairs: Pairs, declared_bottom: int | None,
                  declared_top: int | None, strict: bool = False) -> Lattice:
    """The lattice of :func:`read_pairs`' output, checked as the module
    docstring describes."""
    if strict and (declared_bottom is None or declared_top is None):
        raise ValueError("strict mode requires explicit bottom and top lines")
    try:
        lat = Lattice.from_relation(n, pairs)
    except ValueError as exc:
        raise ValueError(f"order is not a lattice: {exc}") from exc
    if declared_bottom is not None and declared_bottom != lat.bottom:
        raise ValueError(f"declared bottom {declared_bottom}, computed {lat.bottom}")
    if declared_top is not None and declared_top != lat.top:
        raise ValueError(f"declared top {declared_top}, computed {lat.top}")
    if strict:
        cover = set(covers(lat))
        for (i, j), lineno in pairs.items():
            if (i, j) not in cover:
                raise ValueError(f"line {lineno}: {i} < {j} is not a covering pair")
    return lat


def longest_chain(n: int, pairs: Pairs) -> int | None:
    """The number of pairs on the longest chain ``x0 < x1 < ...`` of
    ``pairs``, or ``None`` when a pair leaves ``0..n-1`` or the pairs
    close a cycle, which :func:`build_lattice` reports.  ``O(n + pairs)``:
    each element is taken once all the pairs below it are (Kahn's
    topological order), so its depth is final by then."""
    above: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            return None
        above[i].append(j)
        waiting[j] += 1
    depth = [0] * n
    taken = [i for i in range(n) if not waiting[i]]
    for i in taken:   # grows as the loop runs
        for j in above[i]:
            depth[j] = max(depth[j], depth[i] + 1)
            waiting[j] -= 1
            if not waiting[j]:
                taken.append(j)
    return max(depth) if len(taken) == n else None


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {tok!r}") from None


def serialize_lattice(lat: Lattice) -> str:
    lines = [f"lattice {lat.n}", f"bottom {lat.bottom}", f"top {lat.top}"]
    lines.extend(f"{i} < {j}" for i, j in sorted(covers(lat)))
    return "\n".join(lines) + "\n"
