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


def parse_lattice(text: str, strict: bool = False) -> Lattice:
    n = None
    declared_bottom = None
    declared_top = None
    pairs: dict[tuple[int, int], int] = {}   # each pair with its first line
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


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {tok!r}") from None


def serialize_lattice(lat: Lattice) -> str:
    lines = [f"lattice {lat.n}", f"bottom {lat.bottom}", f"top {lat.top}"]
    lines.extend(f"{i} < {j}" for i, j in sorted(covers(lat)))
    return "\n".join(lines) + "\n"
