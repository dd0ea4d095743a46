"""Sublocales of a finite frame and the coframe they form.

A sublocale of a frame ``L`` is a subset closed under all meets (hence
containing the top) and under Heyting arrows from arbitrary elements.
Sublocales are represented as bitmasks over the ambient elements.  The
collection of all of them, ordered by inclusion, is a coframe: meets are
intersections and joins are closures of unions.  A finite frame is
spatial, so a sublocale is fixed by the primes it contains, and every set
of primes is the prime part of exactly one sublocale (Birkhoff's
representation).  :class:`SublocaleCoframe` builds the coframe from the
sets of primes, with dense indices sorted by (size, mask), so index 0 is
the bottom ``{top}`` and the last index is the whole frame.

The fitted sublocales (intersections of opens) are the down-closed sets
of primes; :func:`fitted_subcoframe` builds their coframe from an
existing :class:`SublocaleCoframe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .bits import bit, bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import InternalInconsistency, SizeLimit
from .lattice import CoframeWitness, FrameWitness, Lattice


def open_mask(fw: FrameWitness, a: int) -> int:
    """The open sublocale of ``a``: all Heyting arrows out of ``a``."""
    return mask_of(fw.heyting_table[a])


def closed_mask(fw: FrameWitness, a: int) -> int:
    """The closed sublocale of ``a``: its up-set."""
    return fw.lattice.up[a]


def b_mask(fw: FrameWitness, a: int) -> int:
    """The smallest sublocale containing ``a``: all arrows into ``a``."""
    return mask_of(row[a] for row in fw.heyting_table)


def is_sublocale(fw: FrameWitness, members: int) -> bool:
    lat = fw.lattice
    if not (members >> lat.top) & 1:
        return False
    elems = list(bits(members))
    meet = lat.meet_table
    for pos, s in enumerate(elems):
        ms = meet[s]
        for t in elems[pos:]:
            if not (members >> ms[t]) & 1:
                return False
    hey = fw.heyting_table
    for a in range(lat.n):
        ha = hey[a]
        for s in elems:
            if not (members >> ha[s]) & 1:
                return False
    return True


def sublocale_closure(fw: FrameWitness, members: int) -> int:
    """Smallest sublocale containing the given elements."""
    lat = fw.lattice
    m = members | bit(lat.top)
    meet = lat.meet_table
    hey = fw.heyting_table
    while True:
        new = m
        elems = list(bits(m))
        for pos, s in enumerate(elems):
            ms = meet[s]
            for t in elems[pos:]:
                new |= bit(ms[t])
        for a in range(lat.n):
            ha = hey[a]
            for s in elems:
                new |= bit(ha[s])
        if new == m:
            return m
        m = new


def nucleus_element(fw: FrameWitness, members: int, a: int) -> int:
    """Least member of a sublocale above ``a``."""
    return fw.lattice.big_meet(members & fw.lattice.up[a])


def fit_mask(fw: FrameWitness, members: int) -> int:
    """Intersection of all opens containing the given sublocale."""
    acc = fw.lattice.full_mask
    for a in range(fw.lattice.n):
        o = open_mask(fw, a)
        if members & ~o == 0:
            acc &= o
    return acc


class SublocaleCoframe:
    """The coframe of (all, or all fitted) sublocales of a finite frame.

    ``points[i]`` is the set of primes of sublocale ``i`` (bit ``j`` for the
    ``j``-th prime in element order) and ``elems[i]`` its member bitmask
    over the ambient frame; indices are sorted by (member count, mask), so
    0 is the bottom.  Inclusion of sublocales is inclusion of prime sets,
    so ``as_lattice`` takes its meet table from ``&`` and its join table
    from ``|``, and ``coframe`` its difference table from ``& ~``; on the
    fitted host the difference is down-closed.  A fitted host also carries
    ``fit_of`` and ``full_index``, which translate indices from and to its
    parent, the full host.  ``tests/oracles.py`` builds the same tables
    from the member masks by the generic constructions, and the laws suite
    compares them with intersections and (fitted) joins of member masks.
    Instances are immutable after construction, apart from tables such as
    ``opens_above`` that are filled in on first read and die with the host.
    """

    def __init__(self, ambient: FrameWitness, points: Iterable[int],
                 fitted: bool, parent: "SublocaleCoframe | None" = None):
        self.ambient = ambient
        self.fitted = fitted
        self.parent = parent
        self._members, self._down = (_prime_sets(ambient.lattice, ambient.primes)
                                     if parent is None else (parent._members, parent._down))
        members, down = self._members, self._down
        pts = self.points = tuple(sorted(points, key=lambda q: (bin(members[q]).count("1"),
                                                               members[q])))
        self.elems = tuple(members[q] for q in pts)
        self.index = {m: i for i, m in enumerate(self.elems)}
        pos = {q: i for i, q in enumerate(pts)}
        k = len(pts)
        up = tuple(mask_of(j for j, r in enumerate(pts) if q & ~r == 0) for q in pts)
        dn = tuple(mask_of(j for j, r in enumerate(pts) if r & ~q == 0) for q in pts)
        self.as_lattice = Lattice(k, up, dn, 0, k - 1,
                                  tuple(tuple(pos[q & r] for r in pts) for q in pts),
                                  tuple(tuple(pos[q | r] for r in pts) for q in pts))
        # the difference q & ~r, down-closed on the fitted host
        close = down if fitted else range(len(members))
        self.coframe = CoframeWitness(self.as_lattice, tuple(
            tuple(pos[close[q & ~r]] for r in pts) for q in pts))
        n = ambient.lattice.n
        self.open_index = tuple(self.index[open_mask(ambient, a)] for a in range(n))
        self.closed_index = tuple(self.index.get(ambient.lattice.up[a]) for a in range(n))
        self.fit_index = tuple(pos[down[q]] for q in pts)
        # the translation table of a fitted host: fit_of[i] is the index here
        # of the fit of parent index i, full_index[j] the parent index of j
        self.fit_of = self.full_index = None
        if parent is not None:
            self.fit_of = tuple(pos[down[q]] for q in parent.points)
            self.full_index = tuple(parent.index[m] for m in self.elems)
        self._fitted_sub: SublocaleCoframe | None = None

    @property
    def size(self) -> int:
        return len(self.elems)

    def leq(self, i: int, j: int) -> bool:
        return self.as_lattice.leq(i, j)

    def meet(self, i: int, j: int) -> int:
        return self.as_lattice.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.as_lattice.join_table[i][j]

    def diff(self, i: int, j: int) -> int:
        return self.coframe.difference_table[i][j]

    def open_of(self, a: int) -> int:
        return self.open_index[a]

    def closed_of(self, a: int) -> int:
        c = self.closed_index[a]
        if c is None:
            raise KeyError(f"closed sublocale of {a} is not a member here")
        return c

    def fit(self, i: int) -> int:
        return self.fit_index[i]

    @cached_property
    def opens_above(self) -> tuple[int, ...]:
        """For each index, the mask of the frame elements whose open is above it."""
        opens = self.open_index
        return tuple(mask_of(y for y, o in enumerate(opens) if (u >> o) & 1)
                     for u in self.as_lattice.up)

    def fitted_subcoframe(self) -> "SublocaleCoframe":
        if self.fitted:
            return self
        if self._fitted_sub is None:
            self._fitted_sub = fitted_subcoframe(self)
        return self._fitted_sub


def _prime_sets(lat: Lattice, primes: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The member mask and the down-closure of every set of primes.

    A set ``Q`` of the primes in ``primes`` gives the sublocale of the
    ``x`` that are the meet of the primes of ``Q`` above them.  Both
    tuples are indexed by ``Q`` and filled by the subset recurrence: ``Q``
    extends ``Q & (Q - 1)`` by its lowest prime.  On a frame's primes this
    builds ``S(L)``; on the dual of a coframe, with its join-irreducibles
    as the primes, it builds the subcolocales.
    """
    meet = lat.meet_table
    pts = tuple(bits(primes))
    above = [mask_of(j for j, q in enumerate(pts) if lat.leq(x, q)) for x in range(lat.n)]
    below = [mask_of(j for j, r in enumerate(pts) if lat.leq(r, q)) for q in pts]
    meet_of, down = [lat.top], [0]
    for q in range(1, 1 << len(pts)):
        low = q & -q
        j = low.bit_length() - 1
        meet_of.append(meet[meet_of[q ^ low]][pts[j]])
        down.append(down[q ^ low] | below[j])
    members = tuple(mask_of(x for x in range(lat.n) if meet_of[q & above[x]] == x)
                    for q in range(len(meet_of)))
    return members, tuple(down)


def enumerate_sublocales(fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> SublocaleCoframe:
    """Build the coframe of all sublocales, one for each set of primes.

    Raises :class:`SizeLimit` before building anything when the ``2^p``
    sublocales of a frame with ``p`` primes exceed ``limits.max_sublocales``.
    """
    count = 1 << bin(fw.primes).count("1")
    if count > limits.max_sublocales:
        raise SizeLimit(f"{count} sublocales exceed max_sublocales={limits.max_sublocales}; "
                        f"override with --limit max_sublocales=N")
    return SublocaleCoframe(fw, range(count), fitted=False)


def fitted_subcoframe(sl: SublocaleCoframe) -> SublocaleCoframe:
    """The coframe of fitted sublocales: those with down-closed sets of primes."""
    return SublocaleCoframe(sl.ambient, (q for i, q in enumerate(sl.points) if sl.fit(i) == i),
                            fitted=True, parent=sl)


def sublocale_join(sl: SublocaleCoframe, idxs: Iterable[int]) -> int:
    """Join of sublocales by closure of union, checked against the table."""
    fw = sl.ambient
    acc_mask = 0
    acc_idx = 0
    for i in idxs:
        acc_mask |= sl.elems[i]
        acc_idx = sl.join(acc_idx, i)
    u = sublocale_closure(fw, acc_mask) if acc_mask else sl.elems[0]
    if sl.fitted:
        u = fit_mask(fw, u)
    got = sl.index[u]
    if got != acc_idx:
        raise InternalInconsistency("join table disagrees with closure of union")
    return got


# ---------------------------------------------------------------------------
# filters


@dataclass(frozen=True)
class FilterSet:
    """A deterministic collection of filters, each a bitmask over the frame."""

    frame: FrameWitness
    filters: tuple[int, ...]


def all_filters(fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """Every filter of the frame, sorted by (size, mask).

    A filter of a finite lattice holds the meet of its members, so it is
    the up-set of that meet: the filters are the principal up-sets, and no
    subset scan (hence no size budget from ``limits``) is needed.
    """
    return tuple(sorted(fw.lattice.up, key=lambda m: (bin(m).count("1"), m)))


def strongly_exact_filters(fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> FilterSet:
    """Filters closed under strongly exact meets of their members.

    Every filter of a finite lattice is principal, so it holds the meet of
    every subset of its members, exact or not: these are all the filters.
    """
    return FilterSet(fw, all_filters(fw, limits))


def exact_filters(fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> FilterSet:
    """Filters closed under exact meets of their members: all the filters,
    for the reason given in :func:`strongly_exact_filters`."""
    return FilterSet(fw, all_filters(fw, limits))


def ker(sl: SublocaleCoframe, i: int) -> int:
    """The filter of elements whose open contains sublocale ``i``.

    On the fitted host this is the map ``phi`` onto the strongly exact
    filters; on the full host, the kernel of the sublocale.  The open of
    ``x`` is the host member at ``open_index[x]``.
    """
    m, elems = sl.elems[i], sl.elems
    return mask_of(x for x, o in enumerate(sl.open_index) if m & ~elems[o] == 0)


phi = ker


# ---------------------------------------------------------------------------
# precongruences


@dataclass(frozen=True)
class Precongruence:
    """A relation on frame elements compatible with joins, meets and order.

    ``rel[x]`` is the bitmask of right-related elements.  The five
    conditions: reflexivity, transitivity, stability under shrinking the
    left and growing the right side, stability of left sides under all
    joins (including the empty one, so the bottom relates to everything),
    and stability of right sides under binary meets.
    """

    frame: FrameWitness
    rel: tuple[int, ...]

    @classmethod
    def of(cls, frame: FrameWitness, rel: Sequence[int]) -> "Precongruence":
        rel = tuple(rel)
        if not is_precongruence(frame, rel):
            raise ValueError("relation is not a precongruence")
        return cls(frame, rel)


def is_precongruence(fw: FrameWitness, rel: Sequence[int]) -> bool:
    """Whether ``rel`` satisfies the five conditions of :class:`Precongruence`.

    Stability is tested by each row's and column's own extreme, at ``n^2``
    per call where the pairwise test costs ``n^3``.  A row ``{y : x R y}``
    that has passed the up-closure test is a finite non-empty up-set (it
    holds ``x``), and such a set is closed under binary meets iff it holds
    the meet of all its members: closure gives that meet by induction, and
    conversely every meet of two members lies above it, hence in the set.
    Dually a column ``{a : a R b}`` that has passed the down-closure test
    (the left side may shrink) is a non-empty down-set (it holds ``b``),
    closed under binary joins iff it holds its own join; the empty join is
    the separate test on the bottom's row.  The pairwise form is kept as
    ``tests/oracles.py::scan_precongruence``.
    """
    lat = fw.lattice
    n = lat.n
    if len(rel) != n or any(r & ~lat.full_mask for r in rel):
        return False
    cols = [0] * n
    for x in range(n):
        row, bx = rel[x], bit(x)
        if not (row >> x) & 1:
            return False
        for y in bits(row):
            if rel[y] & ~row:            # transitivity
                return False
            if lat.up[y] & ~row:         # right side may grow
                return False
            cols[y] |= bx
        for x2 in bits(lat.dn[x]):       # left side may shrink
            if row & ~rel[x2]:
                return False
        if not (row >> lat.big_meet(row)) & 1:  # right sides meet-stable
            return False
    if rel[lat.bottom] != lat.full_mask:  # empty join on the left
        return False
    for col in cols:                     # left sides join-stable
        if not (col >> lat.big_join(col)) & 1:
            return False
    return True


def sublocale_to_precongruence(fw: FrameWitness, members: int) -> Precongruence:
    """The relation ``x R y`` iff the nucleus maps ``x`` below ``y``'s image."""
    lat = fw.lattice
    nu = [nucleus_element(fw, members, a) for a in range(lat.n)]
    rel = tuple(mask_of(b for b in range(lat.n) if lat.leq(nu[a], nu[b]))
                for a in range(lat.n))
    return Precongruence.of(fw, rel)


def precongruence_to_sublocale(fw: FrameWitness, r: Precongruence) -> int:
    """Intersection of the closed-join-open sublocales of the related pairs."""
    lat = fw.lattice
    acc = lat.full_mask
    for x in range(lat.n):
        cx = lat.up[x]
        for y in bits(r.rel[x]):
            acc &= sublocale_closure(fw, cx | open_mask(fw, y))
    return acc


# ---------------------------------------------------------------------------
# exactness of sublocales


def is_exact_sublocale(fw: FrameWitness, members: int,
                       limits: Limits = DEFAULT_LIMITS) -> bool:
    """Whether the quotient surjection onto the sublocale preserves exact meets.

    For every exact meet of an ambient family, the nucleus image family
    must meet to the nucleus of the meet.  The families are those of the
    frame's family table.

    The image family is then exact inside the sublocale too, so that needs
    no test.  On a sublocale ``nu`` is a nucleus: it preserves finite
    meets and has ``nu(nu(x) v t) = nu(x v t)``, so meeting ``nu(nu(x) v t)`` over an
    exact family with meet ``M`` gives ``nu(M v t)``, which is
    ``nu(m v t)`` once ``nu(M) = m`` for the meet ``m`` of the image.
    """
    lat = fw.lattice
    meet = lat.meet_table
    tab = fw.family_table(limits)
    nu = [nucleus_element(fw, members, a) for a in range(lat.n)]
    for fam, m in tab.fold(lat.top, lambda m, x: meet[m][nu[x]]):
        if tab.exact[fam] and nu[tab.meet[fam]] != m:
            return False
    return True
