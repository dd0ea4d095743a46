"""Finite bounded lattices: order tables, frame and coframe structure.

Elements are dense integer indices ``0..n-1``; subsets are int bitmasks
(bit ``i`` set iff element ``i`` belongs).  A :class:`Lattice` stores one
up-set and one down-set bitmask per element plus cached binary meet/join
tables, so every downstream computation is table lookup.  The tables are
themselves looked up: the meet of ``i`` and ``j`` is the element whose
down-set is ``dn[i] & dn[j]``, and the join the one whose up-set is
``up[i] & up[j]`` (:meth:`Lattice.from_up`).  Every lattice of the
package, a frame's, a quotient's or a subcolocale's, is built that way
from its order, and :meth:`Lattice.dual` only swaps the tables.
:class:`FrameWitness` and :class:`CoframeWitness` wrap a lattice and
cache the Heyting arrow and the primes, respectively the co-Heyting
difference (the dual's arrow, both by :func:`heyting_table`); their
``of`` constructors refuse a lattice that is not distributive.  On a
finite lattice binary distributivity already implies the complete frame
and coframe laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import getitem, ne
from typing import Any, Callable, Iterable, Iterator, Sequence

from .bits import bit, bits, mask_of
from .errors import NotACoframe, NotAFrame


@dataclass(frozen=True)
class Lattice:
    """A finite bounded lattice given by its order relation."""

    n: int
    up: tuple[int, ...]
    dn: tuple[int, ...]
    bottom: int
    top: int
    meet_table: tuple[tuple[int, ...], ...] = field(repr=False)
    join_table: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def from_up(cls, up: Sequence[int]) -> "Lattice":
        """Validate an up-set table as a lattice order and cache its tables.

        Each meet and join is one dict lookup.  ``dn[i] & dn[j]`` is a lower
        set, and a lower set with a greatest element ``m`` is ``dn[m]``:
        everything in it is below ``m``, and everything below ``m`` is in it.
        Conversely a lower set equal to ``dn[k]`` has ``k`` as its greatest
        element.  So the meet of ``i`` and ``j`` is the ``k`` with ``dn[k] =
        dn[i] & dn[j]``, and there is none when no row is that set.  By
        antisymmetry the rows are distinct (``dn[a] = dn[b]`` puts each of
        ``a`` and ``b`` below the other), so ``{dn[k]: k}`` finds ``k``.
        Joins are the same on ``up``.  The pairs are visited in order, the
        meet before the join, so a bounded order that is not a lattice is
        refused at its first pair lacking one.
        """
        up = tuple(up)
        n = len(up)
        if n == 0:
            raise ValueError("empty lattice")
        full = (1 << n) - 1
        dn = [0] * n
        for i in range(n):
            row = up[i]
            if row & ~full:
                raise ValueError(f"order row {i} mentions elements outside 0..{n - 1}")
            if not (row >> i) & 1:
                raise ValueError(f"order not reflexive at {i}")
            for j in bits(row):
                if i != j and (up[j] >> i) & 1:
                    raise ValueError(f"order not antisymmetric on {{{i},{j}}}")
                if up[j] & ~row:
                    raise ValueError(f"order not transitive through {i} <= {j}")
                dn[j] |= bit(i)
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if dn[i] == full]
        if len(bottoms) != 1:
            raise ValueError("order has no bottom element")
        if len(tops) != 1:
            raise ValueError("order has no top element")
        greatest = {row: k for k, row in enumerate(dn)}
        least = {row: k for k, row in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m = greatest.get(dn[i] & dn[j])
                if m is None:
                    raise ValueError(f"elements {i},{j} have no meet")
                w = least.get(up[i] & up[j])
                if w is None:
                    raise ValueError(f"elements {i},{j} have no join")
                meet[i][j] = meet[j][i] = m
                join[i][j] = join[j][i] = w
        return cls(n, up, tuple(dn), bottoms[0], tops[0],
                   tuple(map(tuple, meet)), tuple(map(tuple, join)))

    @classmethod
    def from_relation(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Lattice":
        """Build from generating order pairs, taking the reflexive-transitive closure."""
        up = [bit(i) for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) outside 0..{n - 1}")
            up[i] |= bit(j)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                for j in bits(acc):
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        return cls.from_up(up)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def big_meet(self, mask: int) -> int:
        """Meet of a subset; the empty meet is the top."""
        acc = self.top
        row = self.meet_table
        for i in bits(mask):
            acc = row[acc][i]
        return acc

    def big_join(self, mask: int) -> int:
        """Join of a subset; the empty join is the bottom."""
        acc = self.bottom
        row = self.join_table
        for i in bits(mask):
            acc = row[acc][i]
        return acc

    def dual(self) -> "Lattice":
        """The order-reversed lattice, sharing this one's tables swapped."""
        return Lattice(self.n, self.dn, self.up, self.top, self.bottom,
                       self.join_table, self.meet_table)

    def is_distributive(self) -> bool:
        return next(distributivity_violations(self), None) is None

    @cached_property
    def irreducibles(self) -> tuple[int, int]:
        """Masks of the join-irreducibles and of the meet-irreducibles.

        Filled in on first read and kept in the instance, outside the
        fields, so equality and hashing ignore it.
        """
        return mask_of(join_irreducibles(self)), mask_of(join_irreducibles(self.dual()))


def join_violations(table: Sequence[Sequence[int]], irr: int, t: Sequence,
                    op: Callable[[Any], Callable[[Any], Any]]) -> Iterator[tuple[int, int]]:
    """Every ``(x, j)``, ``j`` in the mask ``irr``, with ``t[table[x][j]] !=
    t[x] . t[j]``, in order of ``j`` and then ``x``.

    ``table`` is a finite lattice's join table and ``irr`` its
    join-irreducibles; ``t`` maps each element to a value, and ``op(a)`` is
    ``b -> a . b`` for a semilattice operation ``.`` (associative,
    commutative, idempotent) on the values: a lattice's join or meet
    (:func:`table_op`), ``|`` or ``&`` of masks (:func:`union`,
    :func:`intersection`), or one of these elementwise on lists
    (:func:`table_rows_op`).  The table and ``.`` are commutative, so each
    ``j`` costs one call of ``op``, and its ``n`` pairs are compared by
    ``map`` over ``table[j]`` and ``t``, with no row built.

    If nothing is yielded, ``t`` keeps every binary join: ``t(x v y) = t(x)
    . t(y)`` for all ``x`` and ``y``.  Proof.  An element ``y`` other than
    the bottom is the join ``j1 v ... v jk``, ``k >= 1``, of the
    join-irreducibles below it.  By induction on ``k``, ``t(x v j1 v ... v
    jk) = t(x v j1 v ... v j(k-1)) . t(jk) = t(x) . t(j1) . ... . t(jk)``,
    and the case ``x = j1`` gives ``t(y) = t(j1) . ... . t(jk)``, so ``t(x v
    y) = t(x) . t(y)`` by associativity.  The bottom needs ``t(x) .
    t(bottom) = t(x)``.  That holds when ``t(bottom)`` is the identity of
    ``.``, and otherwise too: at ``x = bottom`` by idempotence, and for any
    other ``x``, written as above, because the pairs ``(bottom, j)`` give
    ``t(bottom) . t(j) = t(j)`` and ``.`` is commutative.  No distributivity
    is used, so this holds on any finite lattice (G. Birkhoff, "Rings of
    sets", 1937, for the join-irreducibles).  Meets are the same call on
    the meet table and the meet-irreducibles (:attr:`Lattice.irreducibles`),
    by duality.  That is ``n |J|`` comparisons where the pairs cost ``n^2 /
    2``; ``tests/oracles.py`` keeps the all-pairs scans.
    """
    at = t.__getitem__
    for j in bits(irr):
        col, tj = table[j], op(t[j])
        if any(map(ne, map(at, col), map(tj, t))):
            yield from ((x, j) for x, y in enumerate(col) if t[y] != tj(t[x]))


def table_op(table: Sequence[Sequence[int]]) -> Callable[[int], Callable[[int], int]]:
    """The binary table ``table`` curried for :func:`join_violations`."""
    return lambda a: table[a].__getitem__


def table_rows_op(table: Sequence[Sequence[int]]) -> Callable[[list], Callable[[list], list]]:
    """The binary table ``table`` elementwise on lists of elements, curried
    for :func:`join_violations`: ``a`` and ``b`` give the list of
    ``table[a[k]][b[k]]``."""
    def op(a: list) -> Callable[[list], list]:
        rows = [table[x] for x in a]
        return lambda b: list(map(getitem, rows, b))
    return op


def union(a: int) -> Callable[[int], int]:
    """``|`` of masks, curried for :func:`join_violations`."""
    return a.__or__


def intersection(a: int) -> Callable[[int], int]:
    """``&`` of masks, curried for :func:`join_violations`."""
    return a.__and__


def distributivity_violations(lat: Lattice) -> Iterator[tuple[int, int]]:
    """Every ``(x, j)``, ``j`` join-irreducible, with ``J(x v j) != J(x) |
    J(j)`` (:func:`join_violations`).

    ``J(x)`` is the set of join-irreducibles below ``x``.  A finite lattice
    is distributive iff ``J`` sends binary joins to unions (Birkhoff,
    "Rings of sets", 1937).  In a distributive lattice a join-irreducible
    ``j`` below ``x v y`` is ``(j ^ x) v (j ^ y)``, hence one of the two,
    hence below ``x`` or ``y``.  Conversely ``J`` always sends meets to
    intersections and is injective, since every element is the join of
    the join-irreducibles below it; if it also sends joins to unions it
    embeds the lattice in a powerset, which is distributive.  Unions are a
    semilattice operation, so the pairs ``(x, j)`` decide, ``n |J|`` mask
    comparisons; ``tests/oracles.py::scan_distributivity`` is the cubic
    test of ``x ^ (y v z) = (x ^ y) v (x ^ z)``.
    """
    irr = lat.irreducibles[0]
    return join_violations(lat.join_table, irr, [d & irr for d in lat.dn], union)


def adjunction_violations(lat: Lattice, lower: Sequence[Sequence[int]],
                          upper: Sequence[Sequence[int]]) -> Iterator[tuple]:
    """Where ``f = lower[t]`` fails to be left adjoint to ``g = upper[t]``.

    ``f`` and ``g`` are tables of maps of ``lat`` to itself, one pair for
    each parameter ``t``, and ``f -| g`` means ``f(s) <= u`` iff
    ``s <= g(u)`` for all ``s`` and ``u``.  That holds iff both maps are
    monotone, ``s <= g(f(s))`` (the unit) and ``f(g(u)) <= u`` (the
    counit): from those, ``f(s) <= u`` gives ``s <= g(f(s)) <= g(u)`` and
    ``s <= g(u)`` gives ``f(s) <= f(g(u)) <= u``; conversely the unit and
    counit are the adjunction at ``u = f(s)`` and ``s = g(u)``, and
    ``s <= s'`` gives ``s <= g(f(s'))``, so ``f(s) <= f(s')`` (dually for
    ``g``).  A finite order is generated by its covers, so monotonicity is
    tested on :func:`covers`.  Yields ``("unit", s, t)``,
    ``("counit", u, t)``, ``("lower-monotone", i, j, t)`` and
    ``("upper-monotone", i, j, t)``; the cost is ``n + |covers|`` per
    parameter where the definition costs ``n^2``.
    """
    up = lat.up
    cov = covers(lat)
    for t, (f, g) in enumerate(zip(lower, upper)):
        for s in range(lat.n):
            if not (up[s] >> g[f[s]]) & 1:
                yield "unit", s, t
            if not (up[f[g[s]]] >> s) & 1:
                yield "counit", s, t
        for i, j in cov:
            if not (up[f[i]] >> f[j]) & 1:
                yield "lower-monotone", i, j, t
            if not (up[g[i]] >> g[j]) & 1:
                yield "upper-monotone", i, j, t


def covers(lat: Lattice) -> tuple[tuple[int, int], ...]:
    """Covering pairs ``(i, j)`` of the order (its transitive reduction)."""
    out = []
    for i in range(lat.n):
        for j in bits(lat.up[i] & ~bit(i)):
            between = lat.up[i] & lat.dn[j]
            if between == bit(i) | bit(j):
                out.append((i, j))
    return tuple(out)


def join_irreducibles(lat: Lattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover; they join-generate the lattice.

    Those are the elements that are not the join of the elements strictly
    below them: one lower cover is that join, two lower covers already join
    to the element, and the bottom is the empty join.  ``j`` has one lower
    cover ``k`` iff its strict down-set ``dn[j] ^ bit(j)`` is the row
    ``dn[k]``: a finite strict down-set is the union of the down-sets of
    the lower covers, so it has a greatest element iff there is one lower
    cover, and it is then that element's row (:meth:`Lattice.from_up`).
    The bottom's is empty, and no row is, each holding its own element.
    """
    rows = set(lat.dn)
    return tuple(j for j in range(lat.n) if lat.dn[j] ^ bit(j) in rows)


def heyting_table(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    """The Heyting arrow of a distributive lattice: ``x -> y`` at ``[x][y]``.

    ``x -> y`` is the join of the join-irreducibles ``j`` with
    ``j ^ x <= y``.  Proof: a finite distributive lattice is a frame, so
    ``z <= x -> y`` iff ``z ^ x <= y``; every element is the join of the
    join-irreducibles below it (Birkhoff), and ``j <= x -> y`` iff
    ``j ^ x <= y``.  Costs ``n^2 p`` for ``p`` join-irreducibles, where the
    join over every ``z`` costs ``n^3``.  On the dual lattice this gives
    the co-Heyting difference, transposed.
    """
    irr = tuple(bits(lat.irreducibles[0]))
    meet, join, dn = lat.meet_table, lat.join_table, lat.dn
    rows = []
    for x in range(lat.n):
        j_and_x = [(j, meet[x][j]) for j in irr]
        row = []
        for y in range(lat.n):
            acc, dn_y = lat.bottom, dn[y]
            for j, m in j_and_x:
                if (dn_y >> m) & 1:
                    acc = join[acc][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class FrameWitness:
    """A distributive lattice with its Heyting arrow table and its primes.

    :func:`subloc.sublocales.enumerate_sublocales` keeps the witness's
    ``S(L)`` in the instance, outside the fields, as ``exact_pairs`` is kept.
    """

    lattice: Lattice
    heyting_table: tuple[tuple[int, ...], ...] = field(repr=False)
    # bitmask of the prime elements, see :func:`prime_mask`
    primes: int

    @classmethod
    def of(cls, lat: Lattice) -> "FrameWitness":
        if not lat.is_distributive():
            raise NotAFrame("lattice is not distributive")
        return cls(lat, heyting_table(lat), prime_mask(lat))

    @cached_property
    def exact_pairs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Row ``a`` of the first table masks the ``b`` with ``{a, b}``
        exact, row ``a`` of the second those with ``{a, b}`` strongly exact.

        The meet ``a ^ b`` is exact when ``(a ^ b) v y = (a v y) ^ (b v y)``
        for every ``y``, and strongly exact when every common Heyting
        fixpoint of ``a`` and ``b`` (``a -> y = y = b -> y``) is one of ``a
        ^ b``; ``tests/oracles.py`` keeps both tests for any family.  Kept
        in the instance on first read, like :attr:`Lattice.irreducibles`.

        Every family quantifier of the package visits only the empty family
        and the pairs ``{a, b}``, a singleton being ``{a, a}``, which on a
        frame gives the verdict of all finite families.  Each law checked
        over families says that a map sends the meet (or join) of a family
        to the meet (or join) of its images, and meets and joins of finite
        families fold binary ones: a family ``{a} | rest`` follows from the
        pair ``{a, m}``, for the meet (or join) ``m`` of ``rest``, and from
        ``rest`` by induction.  Joins of opens are opens, so this holds for
        the conuclei of joins of opens too.  Two quantifiers range over the
        exact families only, ``is_exact_map`` and ``is_exact_sublocale``;
        on a frame that restriction removes nothing, since every finite
        meet is exact, ``(x ^ y) v t = (x v t) ^ (y v t)`` being
        distributivity, and strongly exact, ``(x ^ y) -> t = x -> (y ->
        t)`` keeping every common Heyting fixpoint ``t`` (Picado & Pultr,
        *Frames and Locales*, 2012).  The image of a family in a frame is
        exact for the same reason.  Off frames (the raw non-distributive
        witnesses of the tests) pairs may pass where a larger family fails.
        """
        lat = self.lattice
        n = lat.n
        meet, join, hey = lat.meet_table, lat.join_table, self.heyting_table
        fixed = [mask_of(y for y in range(n) if hey[x][y] == y) for x in range(n)]
        exact, strong = [0] * n, [0] * n
        for a in range(n):
            ja = join[a]
            for b in range(a, n):
                m = meet[a][b]
                if tuple([meet[x][y] for x, y in zip(ja, join[b])]) == join[m]:
                    exact[a] |= bit(b)
                    exact[b] |= bit(a)
                if fixed[a] & fixed[b] & ~fixed[m] == 0:
                    strong[a] |= bit(b)
                    strong[b] |= bit(a)
        return tuple(exact), tuple(strong)


def primes(fw: FrameWitness) -> int:
    """Bitmask of prime elements; the top is never prime."""
    return fw.primes


def prime_mask(lat: Lattice) -> int:
    """Bitmask of the primes: ``p`` not the top with ``x ^ y <= p`` only
    when ``x <= p`` or ``y <= p``.

    That is: the meet of ``{x : x not <= p}`` is not below ``p`` (the top
    fails, its set being empty).  Finite meets of such ``x`` stay off a
    prime ``p`` by induction, the empty one included; conversely two such
    ``x`` and ``y`` meet above that meet, hence off ``p``.  Quadratic in
    the elements; ``tests/oracles.py::naive_primes`` is the cubic scan.
    """
    full = lat.full_mask
    return mask_of(p for p in range(lat.n)
                   if not (lat.dn[p] >> lat.big_meet(full & ~lat.dn[p])) & 1)


def covered_primes(fw: FrameWitness) -> int:
    """Primes whose strict up-set meets strictly above them.

    Any family meeting to such a prime must contain it.  On a finite frame
    this recovers exactly the primes.
    """
    lat = fw.lattice
    out = 0
    for p in bits(primes(fw)):
        strictly_above = lat.up[p] & ~bit(p)
        if lat.big_meet(strictly_above) != p:
            out |= bit(p)
    return out


@dataclass(frozen=True)
class CoframeWitness:
    """A distributive lattice with its co-Heyting difference table."""

    lattice: Lattice
    difference_table: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def of(cls, lat: Lattice) -> "CoframeWitness":
        if not lat.is_distributive():
            raise NotACoframe("lattice is not distributive")
        # x - y is the least z with x <= y v z, which is y -> x in the dual
        return cls(lat, tuple(zip(*heyting_table(lat.dual()))))
