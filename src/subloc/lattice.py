"""Finite bounded lattices: order tables, frame and coframe structure.

Elements are dense integer indices ``0..n-1``; subsets are int bitmasks
(bit ``i`` set iff element ``i`` belongs).  A :class:`Lattice` stores one
up-set bitmask per element plus cached binary meet/join tables, so every
downstream computation is table lookup.  :class:`FrameWitness` and
:class:`CoframeWitness` wrap a lattice and cache the Heyting arrow and the
primes, respectively the co-Heyting difference (the dual's arrow, both by
:func:`heyting_table`); their ``of`` constructors refuse a lattice that is
not distributive.  On a finite lattice binary distributivity already
implies the complete frame and coframe laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

from .bits import bit, bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import NotACoframe, NotAFrame


def _extreme(bound_rows: Sequence[int], common: int) -> int | None:
    """The member of ``common`` that bounds all of ``common``, if any.

    With ``bound_rows = dn`` this is the greatest element of ``common``;
    with ``bound_rows = up`` the least.  Used for meets/joins, so a
    ``None`` means the candidate poset is not a lattice.
    """
    for k in bits(common):
        if common & ~bound_rows[k] == 0:
            return k
    return None


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
        """Validate an up-set table as a lattice order and cache its tables."""
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
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m = _extreme(dn, dn[i] & dn[j])
                if m is None:
                    raise ValueError(f"elements {i},{j} have no meet")
                w = _extreme(up, up[i] & up[j])
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

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

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

    def retract(self, r: Sequence[int]) -> "Lattice":
        """The image of the nucleus or conucleus with table ``r``, as a lattice.

        A nucleus image is closed under meets and a conucleus image under
        joins; in both, meets and joins are ``r`` of this lattice's.  Local
        indices follow this lattice's, and the identity gives this lattice.
        """
        idxs = [x for x in range(self.n) if r[x] == x]
        if len(idxs) == self.n:
            return self
        pos = {e: p for p, e in enumerate(idxs)}
        rp, members = [pos[r[x]] for x in range(self.n)], mask_of(idxs)
        up, dn = (tuple(mask_of(rp[j] for j in bits(rows[i] & members)) for i in idxs)
                  for rows in (self.up, self.dn))
        meet, join = (tuple(tuple(rp[op[i][j]] for j in idxs) for i in idxs)
                      for op in (self.meet_table, self.join_table))
        return Lattice(len(idxs), up, dn, rp[self.bottom], rp[self.top], meet, join)

    def is_distributive(self) -> bool:
        return next(distributivity_violations(self), None) is None

    @cached_property
    def irreducibles(self) -> tuple[int, int]:
        """Masks of the join-irreducibles and of the meet-irreducibles.

        Filled in on first read and kept in the instance, outside the
        fields, so equality and hashing ignore it.
        """
        return mask_of(join_irreducibles(self)), mask_of(join_irreducibles(self.dual()))


def distributivity_violations(lat: Lattice) -> Iterator[tuple[int, int]]:
    """Every ``(x, y)``, ``x < y`` as indices, with ``J(x v y) != J(x) | J(y)``.

    ``J(x)`` is the set of join-irreducibles below ``x``.  A finite lattice
    is distributive iff ``J`` sends binary joins to unions (Birkhoff,
    "Rings of sets", 1937).  In a distributive lattice a join-irreducible
    ``j`` below ``x v y`` is ``(j ^ x) v (j ^ y)``, hence one of the two,
    hence below ``x`` or ``y``.  Conversely ``J`` always sends meets to
    intersections and is injective, since every element is the join of
    the join-irreducibles below it; if it also sends joins to unions it
    embeds the lattice in a powerset, which is distributive.  Quadratic
    in the elements; ``tests/oracles.py::scan_distributivity`` is the
    cubic test of ``x ^ (y v z) = (x ^ y) v (x ^ z)``.
    """
    irr = mask_of(join_irreducibles(lat))
    below = [d & irr for d in lat.dn]
    join = lat.join_table
    for x in range(lat.n):
        jx, row = below[x], join[x]
        for y in range(x + 1, lat.n):
            if below[row[y]] != jx | below[y]:
                yield x, y


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
    to the element, and the bottom is the empty join.
    """
    return tuple(j for j in range(lat.n) if lat.big_join(lat.dn[j] & ~bit(j)) != j)


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
    irr = join_irreducibles(lat)
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


def is_exact_meet(lat: Lattice, fam: int) -> bool:
    """Whether joining any ``y`` distributes over the meet of the family.

    The empty family has meet top, and ``top v y = top`` always, so the
    empty family is exact.
    """
    bm = lat.big_meet(fam)
    join, meet = lat.join_table, lat.meet_table
    for y in range(lat.n):
        acc = lat.top
        for x in bits(fam):
            acc = meet[acc][join[x][y]]
        if acc != join[bm][y]:
            return False
    return True


def is_strongly_exact_meet(fw: "FrameWitness", fam: int) -> bool:
    """Whether the family's meet inherits every Heyting fixpoint of its members."""
    lat = fw.lattice
    bm = lat.big_meet(fam)
    hey = fw.heyting_table
    for y in range(lat.n):
        if all(hey[x][y] == y for x in bits(fam)) and hey[bm][y] != y:
            return False
    return True


def families(n: int, limits: Limits = DEFAULT_LIMITS) -> Sequence[int]:
    """The families of ``0..n-1`` that a family quantifier visits, in order.

    The empty family and then ``{a, b}`` for every ``a`` and ``b`` in
    row-major order (so singletons appear once and pairs twice); every
    subset, in increasing mask order, only when ``n`` is at most
    ``limits.exhaustive_family_elements`` (0 by default).  This is the
    only copy of that rule.

    On a frame the two rules give the same verdicts.  Each law checked
    over families says that a map sends the meet (or join) of a family to
    the meet (or join) of its images, and meets and joins of finite
    families fold binary ones: a non-empty family is a singleton, which
    is the binary ``{a, a}``, or ``{a} | rest``, which follows from the
    binary case at ``a`` and the meet (or join) of ``rest``.  Joins of
    opens are opens, so this holds for the conuclei of joins of opens too.
    Two quantifiers range over the exact families only, ``is_exact_map``
    and ``is_exact_sublocale``; on a frame that restriction removes
    nothing, since every finite meet is exact, ``(x ^ y) v t = (x v t) ^
    (y v t)`` being distributivity, and strongly exact, ``(x ^ y) -> t =
    x -> (y -> t)`` keeping every common Heyting fixpoint ``t``.  The
    image of a family in a frame is exact for the same reason.  Off frames
    (the raw non-distributive witnesses of the tests) the rules may differ.
    """
    if n <= limits.exhaustive_family_elements:
        return range(1 << n)
    return (0,) + tuple(bit(a) | bit(b) for a in range(n) for b in range(n))


def family_tree(fams: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """The children of every family of ``fams`` in its fold tree.

    The parent of a non-empty family ``fam`` is its rest ``fam & (fam - 1)``,
    the family without its lowest element, which must itself be in
    ``fams``; this holds for :func:`families`.
    """
    children: dict[int, list[int]] = {}
    for fam in set(fams):
        if fam:
            children.setdefault(fam & (fam - 1), []).append(fam)
    return {fam: tuple(kids) for fam, kids in children.items()}


def fold_families(tree: dict[int, tuple[int, ...]], empty,
                  extend: Callable) -> Iterator[tuple[int, Any]]:
    """Yield ``(fam, value)`` once for every family of a :func:`family_tree`.

    The empty family gets ``empty``; a non-empty family ``fam`` gets
    ``extend(value of fam & (fam - 1), x)`` where ``x`` is its lowest
    element, so each family costs one ``extend``.  The walk is depth-first
    from the empty family, so only a few values are held at a time.
    """
    stack = [(0, empty)]
    while stack:
        fam, value = stack.pop()
        yield fam, value
        for child in tree.get(fam, ()):
            stack.append((child, extend(value, (child ^ fam).bit_length() - 1)))


@dataclass(frozen=True)
class FrameWitness:
    """A distributive lattice with its Heyting arrow table and its primes."""

    lattice: Lattice
    heyting_table: tuple[tuple[int, ...], ...] = field(repr=False)
    # bitmask of the prime elements, see :func:`prime_mask`
    primes: int
    # family tables by family rule (exhaustive or not); they live and die
    # with the witness
    _family_tables: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)

    @classmethod
    def of(cls, lat: Lattice) -> "FrameWitness":
        if not lat.is_distributive():
            raise NotAFrame("lattice is not distributive")
        return cls(lat, heyting_table(lat), prime_mask(lat))

    @property
    def n(self) -> int:
        return self.lattice.n

    def family_table(self, limits: Limits = DEFAULT_LIMITS) -> "FamilyTable":
        """The :class:`FamilyTable` of ``families(n, limits)``, built once."""
        n = self.lattice.n
        exhaustive = n <= limits.exhaustive_family_elements
        tab = self._family_tables.get(exhaustive)
        if tab is None:
            tab = self._family_tables[exhaustive] = FamilyTable(self, families(n, limits))
        return tab


class FamilyTable:
    """Big meet and exactness flags of every family in ``fams``.

    Built by :func:`fold_families` over the table's own :func:`family_tree`,
    so each family costs one extension of its rest instead of a fold from
    scratch; :meth:`fold` walks the same tree for consumers that fold their
    own values, so the tree is built once per table and not once per call.
    ``exact[fam]`` is :func:`is_exact_meet` and ``strongly_exact[fam]`` is
    :func:`is_strongly_exact_meet`; the tests hold them to those.
    """

    def __init__(self, fw: FrameWitness, fams: Sequence[int]):
        lat = fw.lattice
        n = lat.n
        meet, join = lat.meet_table, lat.join_table
        hey = fw.heyting_table
        fixed = [mask_of(y for y in range(n) if hey[x][y] == y) for x in range(n)]

        # value of a family: (its meet, the meets of x v y over its members x
        # for each y, the Heyting fixpoints shared by all its members)
        def extend(v, x):
            m, row, fix = v
            return (meet[m][x], tuple([meet[a][b] for a, b in zip(row, join[x])]),
                    fix & fixed[x])

        self.lattice = lat
        self.fams = fams
        self.tree = family_tree(fams)
        self.meet: dict[int, int] = {}
        self.exact: dict[int, bool] = {}
        self.strongly_exact: dict[int, bool] = {}
        for fam, (m, row, fix) in self.fold((lat.top, join[lat.top], lat.full_mask), extend):
            self.meet[fam] = m
            self.exact[fam] = row == join[m]
            self.strongly_exact[fam] = fix & ~fixed[m] == 0

    def fold(self, empty, extend: Callable) -> Iterator[tuple[int, Any]]:
        """:func:`fold_families` over this table's families."""
        return fold_families(self.tree, empty, extend)

    def is_exact(self, fam: int) -> bool:
        """Exactness of any family: read from the table when it is there."""
        got = self.exact.get(fam)
        return is_exact_meet(self.lattice, fam) if got is None else got


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

    @property
    def n(self) -> int:
        return self.lattice.n

