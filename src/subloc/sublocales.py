"""Sublocales of a finite frame and the coframe they form.

A sublocale of a frame ``L`` is a subset closed under all meets (hence
containing the top) and under Heyting arrows from arbitrary elements.
Sublocales are represented as bitmasks over the ambient elements.  The
collection of all of them, ordered by inclusion, is a coframe: meets are
intersections and joins are closures of unions.  A finite frame is
spatial, so a sublocale is fixed by the primes it contains, and every set
of primes is the prime part of exactly one sublocale (Birkhoff's
representation): ``S(L)`` is the powerset ``2^P`` of the primes ``P``.
:class:`SublocaleCoframe` is built from the sets of primes and computes
every operation on them, with dense indices sorted by (size, mask), so
index 0 is the bottom ``{top}`` and the last index is the whole frame.

The fitted sublocales (intersections of opens) are the down-closed sets
of primes, the prime sets of the ``n`` opens; :func:`fitted_subcoframe`
builds their coframe from those, by the same formulas.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Iterable, Sequence

from .bits import bits, bits_above, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import InternalInconsistency, SizeLimit
from .lattice import FrameWitness, Lattice, join_violations, table_rows_op, union


def open_mask(fw: FrameWitness, a: int) -> int:
    """The open sublocale of ``a``: all Heyting arrows out of ``a``."""
    return mask_of(fw.heyting_table[a])


def closed_mask(fw: FrameWitness, a: int) -> int:
    """The closed sublocale of ``a``: its up-set."""
    return fw.lattice.up[a]


def b_mask(fw: FrameWitness, a: int) -> int:
    """The smallest sublocale containing ``a``: all arrows into ``a``."""
    return mask_of(row[a] for row in fw.heyting_table)


def nucleus_element(fw: FrameWitness, members: int, a: int) -> int:
    """Least member of a sublocale above ``a``."""
    return fw.lattice.big_meet(members & fw.lattice.up[a])


class SublocaleCoframe:
    """The coframe of (all, or all fitted) sublocales of a finite frame.

    ``points[i]`` is the set of primes of sublocale ``i`` (bit ``j`` for the
    ``j``-th prime in element order) and ``elems[i]`` its member bitmask
    over the ambient frame; indices are sorted by (member count, mask), so
    0 is the bottom.  ``point_index[Q]`` is the index of the prime set
    ``Q``, and ``None`` on the fitted host when ``Q`` is not down-closed.
    Inclusion of sublocales is inclusion of prime sets, so every host
    operation is prime-set arithmetic read back through ``point_index``,
    with the same formulas on both hosts: meet is ``&``, join is ``|``, the
    difference is ``& ~`` (down-closed on the fitted host, whose members
    are the down-closed sets), and ``i <= j`` is ``points[i] & ~points[j]
    == 0``.  No table is built.  A fitted host also carries ``fit_of``, the
    index of the fit of each index of its parent, the full host.

    :meth:`nucleus` reads a sublocale's nucleus off the same prime-set
    tables.  :attr:`tops`, one mask per prime, fixes every subcolocale of
    the host (:func:`subloc.subcolocales.enumerate_subcolocales`) and the
    down-set of every index (:meth:`below`).  ``as_lattice``, the host as a
    generic :class:`Lattice`, is read by no suite, only by
    :func:`subloc.correspondence.subcolocale_lattice` (a retract).  It is
    built on first read, like ``tops`` and :attr:`element_of`; each is kept
    in the instance and dies with it.  So does ``memo``, where the
    subcolocale calculus keeps what it derives from the host
    (:func:`subloc.subcolocales._memoised`).  ``tests/oracles.py`` builds
    the same lattice from the member masks by the generic constructions,
    and the laws suite checks both hosts through the map from prime sets
    to member masks, on their covers
    (:func:`subloc.report.host_law_violations`).
    """

    def __init__(self, ambient: FrameWitness, points: Iterable[int],
                 fitted: bool, parent: "SublocaleCoframe | None" = None):
        self.ambient = ambient
        self.fitted = fitted
        self.parent = parent
        self._prime_tables = (_prime_sets(ambient.lattice, ambient.primes)
                              if parent is None else parent._prime_tables)
        members, down, _, _ = self._prime_tables
        pts = self.points = tuple(sorted(points, key=lambda q: (bin(members[q]).count("1"),
                                                               members[q])))
        self.elems = tuple(members[q] for q in pts)
        self.index = {m: i for i, m in enumerate(self.elems)}
        pos: list[int | None] = [None] * len(members)
        for i, q in enumerate(pts):
            pos[q] = i
        self.point_index = tuple(pos)
        # the set of every prime, and the closure of a difference: the
        # down-closure on the fitted host, the identity on the full one
        self.all_primes = len(members) - 1
        self._close = down if fitted else range(len(members))
        n = ambient.lattice.n
        self.open_index = tuple(self.index[open_mask(ambient, a)] for a in range(n))
        self.closed_index = tuple(self.index.get(ambient.lattice.up[a]) for a in range(n))
        self.fit_index = tuple(pos[down[q]] for q in pts)
        self.fit_of = None if parent is None else tuple(pos[down[q]] for q in parent.points)
        self._fitted_sub: SublocaleCoframe | None = None
        self.memo: dict[tuple, object] = {}

    @property
    def size(self) -> int:
        return len(self.elems)

    def leq(self, i: int, j: int) -> bool:
        return not self.points[i] & ~self.points[j]

    def meet(self, i: int, j: int) -> int:
        return self.point_index[self.points[i] & self.points[j]]

    def join(self, i: int, j: int) -> int:
        return self.point_index[self.points[i] | self.points[j]]

    def diff(self, i: int, j: int) -> int:
        return self.point_index[self._close[self.points[i] & ~self.points[j]]]

    def open_of(self, a: int) -> int:
        return self.open_index[a]

    def nucleus(self, i: int) -> tuple[int, ...]:
        """The nucleus of sublocale ``i``: for each frame element ``a``, the
        least member above it, ``meet_of[points[i] & above[a]]``.

        ``meet_of[Q]`` is the meet of the primes of ``Q`` and ``above[a]``
        the set of primes above ``a`` (:func:`_prime_sets`), and a member
        ``x`` of the sublocale with prime set ``Q`` is the meet of the
        primes of ``Q`` above it.  So ``m = meet_of[Q & above[a]]``, the
        meet of the primes of ``Q`` above ``a``, is a member above ``a``:
        ``m >= a``, so a prime above ``m`` is above ``a``, and every prime
        of ``Q`` above ``a`` is above their meet ``m``, so ``Q & above[m]
        = Q & above[a]``, whose meet is ``m``.  And a member ``x >= a`` is
        the meet of ``Q & above[x]``, a subset of ``Q & above[a]``, hence
        above ``m``.  That is ``n`` lookups where
        :func:`nucleus_element` meets the members above each ``a``.
        """
        _, _, meet_of, above = self._prime_tables
        q = self.points[i]
        return tuple([meet_of[q & row] for row in above])

    def meets_split_primes(self) -> bool:
        """Whether ``above[a ^ b] == above[a] | above[b]`` for every pair of
        frame elements, ``above[x]`` being the set of primes above ``x``
        (:func:`_prime_sets`).

        It holds on every frame, since a prime is above ``a ^ b`` iff it is
        above ``a`` or above ``b``.  And it makes every nucleus that
        :meth:`nucleus` reads preserve binary meets: for the prime set
        ``Q`` of a sublocale, ``nu(a ^ b) = meet_of[Q & above[a ^ b]] =
        meet_of[(Q & above[a]) | (Q & above[b])] = nu(a) ^ nu(b)``, the meet
        of a union of prime sets being the meet of the two meets.  That
        equation on the exact pairs is all :func:`is_exact_sublocale` asks,
        so once this holds every sublocale is exact.  ``above`` sends meets
        to ``|``, a semilattice operation, so the pairs ``(a, m)`` with
        ``m`` meet-irreducible decide (:func:`~subloc.lattice.join_violations`):
        ``n |M|`` mask comparisons for every sublocale at once, with no
        exact-pair table.
        """
        lat = self.ambient.lattice
        return not any(join_violations(lat.meet_table, lat.irreducibles[1],
                                       self._prime_tables[3], union))

    def closed_of(self, a: int) -> int:
        c = self.closed_index[a]
        if c is None:
            raise KeyError(f"closed sublocale of {a} is not a member here")
        return c

    def fit(self, i: int) -> int:
        return self.fit_index[i]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """The covering pairs ``(i, c)``, with ``points[c]`` one prime more
        than ``points[i]``, in order of ``i`` and then of that prime.

        On the full host these are the covers of the powerset.  On the
        fitted host too: a down-set ``D`` strictly inside a down-set ``E``
        lies inside ``E`` minus a prime ``j`` maximal in ``E - D``, and
        that set is down-closed, since a prime of ``E`` above ``j`` is not
        in ``D`` either, so ``j`` is maximal in ``E``.
        """
        pos = self.point_index
        return tuple((i, c) for i, q in enumerate(self.points)
                     for j in bits(self.all_primes & ~q)
                     if (c := pos[q | 1 << j]) is not None)

    @cached_property
    def tops(self) -> tuple[int, ...]:
        """For each prime ``j``, the mask of the indices whose prime set has
        ``j`` among its maximal primes: the ``c`` with ``points[c] - {j}``
        a prime set of the host.  For a down-set ``D`` holding ``j``, ``D -
        {j}`` is down-closed iff ``j`` is maximal in ``D``: the primes below
        a prime of ``D - {j}`` lie in ``D``, and only ``j`` can miss ``D -
        {j}``.  On the full host every prime of a set counts as maximal.
        """
        pos, k = self.point_index, self.size
        out = []
        for j in range(self.all_primes.bit_length()):
            # the mask's binary digits, index 0 first
            row, b = bytearray(b"0") * k, 1 << j
            for q in self.points:
                if not q & b and (c := pos[q | b]) is not None:
                    row[c] = 49  # ord("1")
            out.append(int(row[::-1], 2))
        return tuple(out)

    def tops_in(self, r: int) -> int:
        """The mask of the indices whose maximal primes (:attr:`tops`) all
        lie in the set of primes ``r``."""
        tops, out = self.tops, 0
        for j in bits(self.all_primes & ~r):
            out |= tops[j]
        return ((1 << self.size) - 1) ^ out

    def below(self, i: int) -> int:
        """The mask of the indices below ``i``: a set of the host lies inside
        the down-set ``points[i]`` iff its maximal primes do."""
        return self.tops_in(self.points[i])

    @cached_property
    def as_lattice(self) -> Lattice:
        """The host as a :class:`Lattice`, from the host's own formulas: row
        ``up[i]`` holds every index whose prime set holds every prime of
        ``points[i]``, ``dn[i]`` is :meth:`below`, and the meet and join
        tables are ``&`` and ``|``."""
        pts, pos = self.points, self.point_index
        k = len(pts)
        holding = [mask_of(c for c, q in enumerate(pts) if q >> j & 1)
                   for j in range(self.all_primes.bit_length())]
        up = tuple(reduce(int.__and__, (holding[j] for j in bits(q)), (1 << k) - 1) for q in pts)
        return Lattice(k, up, tuple(self.below(i) for i in range(k)), 0, k - 1,
                       tuple(tuple([pos[q & r] for r in pts]) for q in pts),
                       tuple(tuple([pos[q | r] for r in pts]) for q in pts))

    @cached_property
    def element_of(self) -> tuple[int, ...]:
        """The inverse of ``open_index`` on the fitted host, which must be a
        bijection (:func:`fitted_subcoframe`), or
        :class:`InternalInconsistency` is raised.

        Entry ``c`` is the least element whose open is above ``c``: the
        opens above ``open(a)`` are those of ``up(a)``, as ``open`` is an
        order embedding (the primes not above ``a`` lie among those not
        above ``b`` iff ``a <= b``, each element being the meet of the
        primes above it).  So every row of the relation
        :func:`subloc.subcolocales.leq_f` is principal by construction.
        """
        opens = self.open_index
        if sorted(opens) != list(range(self.size)):
            raise InternalInconsistency("open is not a bijection onto the fitted sublocales")
        return tuple(sorted(range(self.size), key=opens.__getitem__))

    def fitted_subcoframe(self) -> "SublocaleCoframe":
        if self.fitted:
            return self
        if self._fitted_sub is None:
            self._fitted_sub = fitted_subcoframe(self)
        return self._fitted_sub


def _prime_sets(lat: Lattice, primes: int) -> tuple[tuple[int, ...], ...]:
    """The member mask, the down-closure and the meet of every set of
    primes, and the set of primes above every element.

    A set ``Q`` of the primes in ``primes`` gives the sublocale of the
    ``x`` that are the meet of the primes of ``Q`` above them,
    ``meet_of[Q & above[x]] == x``.  The first three tuples are indexed by
    ``Q`` and filled by the subset recurrence: ``Q`` extends ``Q & (Q -
    1)`` by its lowest prime.  On a frame's primes this builds ``S(L)``.
    """
    meet = lat.meet_table
    pts = tuple(bits(primes))
    above = tuple(mask_of(j for j, q in enumerate(pts) if lat.leq(x, q)) for x in range(lat.n))
    below = [mask_of(j for j, r in enumerate(pts) if lat.leq(r, q)) for q in pts]
    meet_of, down = [lat.top], [0]
    for q in range(1, 1 << len(pts)):
        low = q & -q
        j = low.bit_length() - 1
        meet_of.append(meet[meet_of[q ^ low]][pts[j]])
        down.append(down[q ^ low] | below[j])
    members = tuple(mask_of(x for x in range(lat.n) if meet_of[q & above[x]] == x)
                    for q in range(len(meet_of)))
    return members, tuple(down), tuple(meet_of), above


def enumerate_sublocales(fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> SublocaleCoframe:
    """The coframe of all sublocales, one for each set of primes.

    Raises :class:`SizeLimit` before building anything when the ``2^p``
    sublocales of a frame with ``p`` primes exceed ``limits.max_sublocales``,
    on every call.  The host is built once per witness and kept in the
    instance, outside the fields, like :attr:`FrameWitness.exact_pairs`, so
    every suite run on one witness shares it, its fitted host and their
    memos, and all of them die with the witness.
    """
    count = 1 << bin(fw.primes).count("1")
    if count > limits.max_sublocales:
        raise SizeLimit(f"{count} sublocales exceed max_sublocales={limits.max_sublocales}; "
                        f"override with --limit max_sublocales=N")
    kept = vars(fw)
    host = kept.get("_sublocales")
    if host is None:
        host = kept["_sublocales"] = SublocaleCoframe(fw, range(count), fitted=False)
    return host


def fitted_subcoframe(sl: SublocaleCoframe) -> SublocaleCoframe:
    """The coframe of fitted sublocales: those with down-closed sets of
    primes, which are the sets ``P - above[a]``, those of the opens (``a ->
    p`` is ``p`` iff ``a`` is not below the prime ``p``).

    ``P - above[a]`` is down-closed, and for an up-set ``U`` of primes, a
    prime above the meet of ``U`` is above some member of ``U``, so it lies
    in ``U``: ``U = above[meet(U)]``.  ``tests/oracles.py`` keeps the filter
    of the ``2^p`` prime sets of ``S(L)`` for fixpoints of ``fit``.
    """
    above, every = sl._prime_tables[3], sl.all_primes
    return SublocaleCoframe(sl.ambient, {every & ~row for row in above}, fitted=True, parent=sl)


# ---------------------------------------------------------------------------
# filters


def all_filters(fw: FrameWitness) -> tuple[int, ...]:
    """Every filter of the frame, sorted by (size, mask).

    A filter of a finite lattice holds the meet of its members, so it is
    the up-set of that meet: the filters are the principal up-sets, and no
    subset scan (hence no size budget) is needed.
    """
    return tuple(sorted(fw.lattice.up, key=lambda m: (bin(m).count("1"), m)))


def strongly_exact_filters(fw: FrameWitness) -> tuple[int, ...]:
    """Filters closed under strongly exact meets of their members.

    Every filter of a finite lattice is principal, so it holds the meet of
    every subset of its members, exact or not: these are all the filters.
    """
    return all_filters(fw)


def exact_filters(fw: FrameWitness) -> tuple[int, ...]:
    """Filters closed under exact meets of their members: all the filters,
    for the reason given in :func:`strongly_exact_filters`."""
    return all_filters(fw)


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


def are_principal_precongruences(fw: FrameWitness, rows: Sequence[list[int]]) -> bool:
    """Whether each map ``g`` read down a column of ``rows``, ``rows[x][k] =
    g_k(x)`` with one list per frame element, gives a precongruence ``x R y``
    iff ``g(x) <= y``: the relation whose row ``x`` is the principal up-set
    of ``g(x)``.  A precongruence is a relation on frame elements that is
    reflexive and transitive, stable under shrinking the left and growing
    the right side, with left sides stable under all joins (the empty one
    included, so the bottom relates to everything) and right sides under
    binary meets (``tests/oracles.py::is_precongruence``).

    It is iff (i) ``g(x) <= x``, (ii) ``g(g(x)) >= g(x)`` and (iii) ``g(a
    v j) = g(a) v g(j)`` for every ``a`` and every join-irreducible ``j``.
    Clauses (i) and (ii) are read per entry, ``2 n`` lookups per map.
    Clause (iii) is one :func:`~subloc.lattice.join_violations` call for
    every map at once: a row's entries are joined elementwise through the
    join table (:func:`~subloc.lattice.table_rows_op`), and the rows hold
    ``g(a v j) = g(a) v g(j)`` for all ``a`` and ``j`` iff every column
    does.  That is ``n |J|`` row comparisons where a call per map pays the
    ``n |J|`` lookups in one loop each, and the generic check walks ``n^2``
    row bits per map.

    Proof.  Row ``x`` is an up-set holding its least member ``g(x)``, so
    the right side may grow and every right side is meet-stable, whatever
    ``g`` is.  Reflexivity is (i).  The bottom's row is everything iff
    ``g(bottom) = bottom``, which is (i) at the bottom.  Left shrinking is
    ``g`` monotone, as ``x' <= x`` must give ``g(x') <= g(x)``, the least
    member of ``x``'s row.  For a monotone ``g``, transitivity is (ii):
    ``x R g(x) R g(g(x))`` forces it, and with it ``g(x) <= y`` and ``g(y)
    <= z`` give ``g(x) <= g(g(x)) <= g(y) <= z``.  For a monotone ``g``,
    left sides join-stable is ``g`` keeping binary joins: the column ``{a
    : g(a) <= b}`` of ``b = g(a1) v g(a2)`` holds ``a1`` and ``a2``, and it
    holds ``a1 v a2`` iff ``g(a1 v a2) <= g(a1) v g(a2)``, the other
    inequality being monotonicity.  Last, ``g`` keeps binary joins iff
    (iii), by the proof of :func:`~subloc.lattice.join_violations`, the
    frame's join being a semilattice operation, and so is its elementwise
    join on rows.  A ``g`` that keeps binary joins is monotone.
    ``tests/oracles.py::scan_precongruence`` tests each relation pair by
    pair.
    """
    lat = fw.lattice
    up, join = lat.up, lat.join_table
    if len(rows) != lat.n:
        return False
    for x, row in enumerate(rows):
        for k, gx in enumerate(row):
            above = up[gx]
            if not (above >> x) & 1 or not (above >> rows[gx][k]) & 1:
                return False
    return not any(join_violations(join, lat.irreducibles[0], rows, table_rows_op(join)))


# ---------------------------------------------------------------------------
# exactness of sublocales


def is_exact_sublocale(fw: FrameWitness, members: int, *,
                       nucleus: Sequence[int] | None = None,
                       pairs: Sequence[int] | None = None) -> bool:
    """Whether the quotient surjection onto the sublocale preserves exact meets.

    For every exact meet of an ambient family, the nucleus image family
    must meet to the nucleus of the meet.  The families are the empty one
    and the pairs (:attr:`FrameWitness.exact_pairs`).  The empty family
    and the singletons hold outright: the empty meet is the top on both
    sides, ``nu(top)`` being the meet of the members above the top, hence
    the top; and ``{a}`` meets to ``a``, which ``nu`` sends to ``nu(a)``,
    the meet of its image.  So the pairs ``a < b`` decide.

    The image family is then exact inside the sublocale too, so that needs
    no test.  On a sublocale ``nu`` is a nucleus: it preserves finite
    meets and has ``nu(nu(x) v t) = nu(x v t)``, so meeting ``nu(nu(x) v t)`` over an
    exact family with meet ``M`` gives ``nu(M v t)``, which is
    ``nu(m v t)`` once ``nu(M) = m`` for the meet ``m`` of the image.

    A caller that has the sublocale's ``nucleus`` already, one entry per
    frame element, passes it; otherwise each entry is computed with
    :func:`nucleus_element`.  Row ``a`` of ``pairs`` masks the ``b`` to
    test with ``a``; it defaults to the exact pairs.  On a frame every pair
    is exact, so a caller that has a frame may pass its own rows and skip
    the ``n^3`` table: full rows test every pair, and rows that are full
    at the meet-irreducibles and hold the meet-irreducibles elsewhere test
    every pair with a meet-irreducible, in either order, which decides as
    much (:func:`subloc.subcolocales.se`).

    On a frame every sublocale passes, as every nucleus keeps binary meets
    (:meth:`SublocaleCoframe.meets_split_primes`), so
    :func:`subloc.subcolocales.se` checks that identity once per host and
    calls this test on the point sublocales only, as its double entry;
    ``tests/oracles.py::scan_se`` calls it per sublocale.
    """
    lat = fw.lattice
    meet = lat.meet_table
    exact = fw.exact_pairs[0] if pairs is None else pairs
    nu = nucleus
    if nu is None:
        nu = [nucleus_element(fw, members, a) for a in range(lat.n)]
    for a in range(lat.n):
        row, nu_a = meet[a], meet[nu[a]]
        for b in bits_above(exact[a], a):
            if nu[row[b]] != nu_a[nu[b]]:
                return False
    return True
