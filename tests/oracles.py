"""Naive reference implementations used as independent oracles.

Most of this recomputes operations from the raw order relation by
exhaustive scanning, deliberately avoiding the package's cached tables
and closure algorithms, so a table bug and an oracle bug would have to
coincide to slip through.  The family scans at the end are the other
kind: they quantify over the same families as the package but fold every
family from scratch with the generic helpers, where the package extends
each family's value from a smaller family's through a per-frame table.
The sublocale coframes are built from member masks by the generic
constructions the package builds from sets of primes instead, and the
host-index reads of the subcolocale calculus are held to the mask
operations they stand for.  The law checks follow, by their cubic
definitions, which the package replaces by quadratic equivalents (unit,
counit and monotonicity for an adjunction, join-irreducibles for
distributivity, pairwise meets for joins of sublocales, each row's meet and
each column's join for the stability of a precongruence).  Subcolocales
and down-sets are found by testing every subset where the package
generates them.  At the very end, subcolocales and quotient frames become
lattices through ``Lattice.from_up`` (the frames then through
``FrameWitness.of``) where the package retracts the host by a conucleus
or a nucleus, and the determined lifts face a scan of every map.
"""

from itertools import combinations, product

from subloc.bits import bit, bits, mask_of, submasks
from subloc.config import DEFAULT_LIMITS
from subloc.errors import SizeLimit
from subloc.lattice import CoframeWitness, FrameWitness, Lattice, families, is_exact_meet
from subloc.subcolocales import (_is_subcolocale_raw, conucleus, is_proper,
                                 point_sublocales)
from subloc.sublocales import (b_mask, closed_mask, fit_mask, is_sublocale,
                               nucleus_element, open_mask, sublocale_closure)


def leq(up, x: int, y: int) -> bool:
    return bool((up[x] >> y) & 1)


def naive_meet(up, x: int, y: int) -> int:
    n = len(up)
    lo = [z for z in range(n) if leq(up, z, x) and leq(up, z, y)]
    best = [m for m in lo if all(leq(up, z, m) for z in lo)]
    assert len(best) == 1, f"meet of {x},{y} not unique: {best}"
    return best[0]


def naive_join(up, x: int, y: int) -> int:
    n = len(up)
    hi = [z for z in range(n) if leq(up, x, z) and leq(up, y, z)]
    best = [m for m in hi if all(leq(up, m, z) for z in hi)]
    assert len(best) == 1, f"join of {x},{y} not unique: {best}"
    return best[0]


def naive_bottom(up) -> int:
    n = len(up)
    (b,) = [z for z in range(n) if all(leq(up, z, w) for w in range(n))]
    return b


def naive_top(up) -> int:
    n = len(up)
    (t,) = [z for z in range(n) if all(leq(up, w, z) for w in range(n))]
    return t


def naive_big_meet(up, items) -> int:
    acc = naive_top(up)
    for x in items:
        acc = naive_meet(up, acc, x)
    return acc


def naive_big_join(up, items) -> int:
    acc = naive_bottom(up)
    for x in items:
        acc = naive_join(up, acc, x)
    return acc


def naive_heyting(up, x: int, y: int) -> int:
    """Largest z with z meet x below y, computed as a join of all such z."""
    n = len(up)
    good = [z for z in range(n) if leq(up, naive_meet(up, z, x), y)]
    out = naive_big_join(up, good)
    assert out in good, "Heyting arrow does not exist"
    return out


def naive_difference(up, x: int, y: int) -> int:
    """Smallest z with x below y join z."""
    n = len(up)
    good = [z for z in range(n) if leq(up, x, naive_join(up, y, z))]
    out = naive_big_meet(up, good)
    assert out in good, "difference does not exist"
    return out


def naive_open_members(up, a: int) -> frozenset:
    n = len(up)
    return frozenset(naive_heyting(up, a, x) for x in range(n))


def naive_closed_members(up, a: int) -> frozenset:
    n = len(up)
    return frozenset(x for x in range(n) if leq(up, a, x))


def naive_is_sublocale(up, subset: frozenset) -> bool:
    """Meet-closed (including the empty meet) and arrow-closed from the left."""
    n = len(up)
    if naive_top(up) not in subset:
        return False
    for s in subset:
        for t in subset:
            if naive_meet(up, s, t) not in subset:
                return False
    for a in range(n):
        for s in subset:
            if naive_heyting(up, a, s) not in subset:
                return False
    return True


def naive_sublocales(up) -> set:
    n = len(up)
    out = set()
    for m in range(1 << n):
        subset = frozenset(i for i in range(n) if (m >> i) & 1)
        if naive_is_sublocale(up, subset):
            out.add(subset)
    return out


def naive_fit(up, subset: frozenset) -> frozenset:
    n = len(up)
    acc = frozenset(range(n))
    for a in range(n):
        o = naive_open_members(up, a)
        if subset <= o:
            acc &= o
    return acc


def naive_is_subcolocale(up, subset: frozenset) -> bool:
    """Join-closed (including the empty join) and difference-closed on the
    right against arbitrary elements."""
    n = len(up)
    if naive_bottom(up) not in subset:
        return False
    for s in subset:
        for t in subset:
            if naive_join(up, s, t) not in subset:
                return False
    for s in subset:
        for c in range(n):
            if naive_difference(up, s, c) not in subset:
                return False
    return True


class NaiveOps:
    """Scanning oracle with its tables precomputed once per order.

    The tables themselves come from ``naive_meet``/``naive_join`` bound
    searches, so nothing here shares code with the package's construction.
    """

    def __init__(self, up):
        self.up = tuple(up)
        n = self.n = len(up)
        self.meet = [[naive_meet(up, x, y) for y in range(n)] for x in range(n)]
        self.join = [[naive_join(up, x, y) for y in range(n)] for x in range(n)]
        self.bottom = naive_bottom(up)
        self.top = naive_top(up)

    def leq(self, x: int, y: int) -> bool:
        return leq(self.up, x, y)

    def heyting(self, x: int, y: int) -> int:
        good = [z for z in range(self.n) if self.leq(self.meet[z][x], y)]
        out = self.bottom
        for z in good:
            out = self.join[out][z]
        assert out in good
        return out

    def difference(self, x: int, y: int) -> int:
        good = [z for z in range(self.n) if self.leq(x, self.join[y][z])]
        out = self.top
        for z in good:
            out = self.meet[out][z]
        assert out in good
        return out

    def open_members(self, a: int) -> frozenset:
        return frozenset(self.heyting(a, x) for x in range(self.n))

    def is_sublocale(self, subset: frozenset) -> bool:
        if self.top not in subset:
            return False
        if any(self.meet[s][t] not in subset for s in subset for t in subset):
            return False
        return all(self.heyting(a, s) in subset
                   for a in range(self.n) for s in subset)

    def sublocales(self) -> set:
        out = set()
        for m in range(1 << self.n):
            subset = frozenset(i for i in range(self.n) if (m >> i) & 1)
            if self.is_sublocale(subset):
                out.add(subset)
        return out

    def fit(self, subset: frozenset) -> frozenset:
        acc = frozenset(range(self.n))
        for a in range(self.n):
            o = self.open_members(a)
            if subset <= o:
                acc &= o
        return acc

    def is_subcolocale(self, subset: frozenset) -> bool:
        if self.bottom not in subset:
            return False
        if any(self.join[s][t] not in subset for s in subset for t in subset):
            return False
        return all(self.difference(s, c) in subset
                   for s in subset for c in range(self.n))


def naive_is_exact_meet(up, items) -> bool:
    n = len(up)
    m = naive_big_meet(up, items)
    for y in range(n):
        folded = naive_big_meet(up, [naive_join(up, x, y) for x in items])
        if naive_join(up, m, y) != folded:
            return False
    return True


def naive_join_irreducibles(up) -> tuple:
    """Elements with exactly one lower cover: an ``x`` below them with
    nothing strictly between."""
    n = len(up)

    def covers(x, j):
        return x != j and leq(up, x, j) and not any(
            z not in (x, j) and leq(up, x, z) and leq(up, z, j) for z in range(n))

    return tuple(j for j in range(n) if sum(covers(x, j) for x in range(n)) == 1)


def naive_primes(up) -> frozenset:
    """Primes: p below a binary meet forces p below a factor, and p is not
    the top (off distributivity this is stronger than meet-irreducible)."""
    n = len(up)
    top = naive_top(up)
    out = set()
    for p in range(n):
        if p == top:
            continue
        if all(not leq(up, naive_meet(up, x, y), p) or leq(up, x, p) or leq(up, y, p)
               for x, y in combinations(range(n), 2)):
            out.add(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# family quantifiers, one family at a time


def scan_exact_sublocale(fw, members: int, limits=DEFAULT_LIMITS) -> bool:
    """``is_exact_sublocale`` with every family and nucleus recomputed."""
    lat = fw.lattice
    nu = [nucleus_element(fw, members, a) for a in range(lat.n)]
    for fam in families(lat.n, limits):
        if not is_exact_meet(lat, fam):
            continue
        img = [nu[x] for x in bits(fam)]
        bm = lat.big_meet(mask_of(img))
        if nu[lat.big_meet(fam)] != bm:
            return False
        for t in bits(members):
            acc = lat.top
            for y in img:
                acc = lat.meet_table[acc][nucleus_element(fw, members, lat.join_table[y][t])]
            if acc != nucleus_element(fw, members, lat.join_table[bm][t]):
                return False
    return True


def scan_open_joins_exact(sl_o, members: int, limits=DEFAULT_LIMITS) -> bool:
    """The family half of ``is_proper``: joins of opens stay exact."""
    for fam in families(sl_o.ambient.lattice.n, limits):
        xs = list(bits(fam))
        j = 0
        for x in xs:
            j = sl_o.join(j, sl_o.open_index[x])
        for g in bits(members):
            lhs = conucleus(sl_o, members, sl_o.meet(j, g))
            rhs = 0
            for x in xs:
                rhs = sl_o.join(rhs, conucleus(sl_o, members, sl_o.meet(sl_o.open_index[x], g)))
            if lhs != rhs:
                return False
    return True


def scan_exact_map(f, limits=DEFAULT_LIMITS) -> bool:
    """``is_exact_map`` with every meet and exactness test recomputed."""
    ls, lt = f.source.lattice, f.target.lattice
    for fam in families(ls.n, limits):
        if not is_exact_meet(ls, fam):
            continue
        img = mask_of(f.mapping[x] for x in bits(fam))
        if f.mapping[ls.big_meet(fam)] != lt.big_meet(img):
            return False
        if not is_exact_meet(lt, img):
            return False
    return True


def scan_filters(lat) -> tuple:
    """Every filter, by scanning all 2^n subsets, sorted by (size, mask)."""
    out = []
    for m in range(1 << lat.n):
        if not (m >> lat.top) & 1:
            continue
        elems = list(bits(m))
        if any(lat.up[x] & ~m for x in elems):
            continue
        if all((m >> lat.meet_table[x][y]) & 1 for x in elems for y in elems):
            out.append(m)
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return tuple(out)


def scan_meet_stable_filters(lat, stable) -> tuple:
    """Filters holding the meet of every subfamily that ``stable`` admits."""
    return tuple(f for f in scan_filters(lat)
                 if all((f >> lat.big_meet(sub)) & 1
                        for sub in submasks(f) if stable(sub)))


# ---------------------------------------------------------------------------
# sublocale coframes from member masks


def scan_sublocales(fw) -> list:
    """Every sublocale, by testing all 2^n subsets of the frame."""
    lat = fw.lattice
    return [m for m in range(1 << lat.n) if (m >> lat.top) & 1 and is_sublocale(fw, m)]


def generate_sublocales(fw, limits=DEFAULT_LIMITS) -> list:
    """Every sublocale, by closing the closed-meet-open rectangles under
    joins and intersections; each sublocale of a finite frame is a join
    of such rectangles."""
    lat = fw.lattice
    basis = {bit(lat.top)}
    for x in range(lat.n):
        for y in range(lat.n):
            basis.add(lat.up[x] & open_mask(fw, y))
    found = set(basis)
    frontier = list(basis)
    while frontier:
        if len(found) > limits.max_sublocales:
            raise SizeLimit("sublocale generation exceeded the configured bound")
        fresh = []
        for a, b in product(frontier, list(found)):
            for c in (sublocale_closure(fw, a | b), a & b):
                if c not in found:
                    found.add(c)
                    fresh.append(c)
        frontier = fresh
    return sorted(found)


def intersections_of_opens(fw) -> list:
    """The fitted sublocales: the opens and the whole frame, closed under
    pairwise intersection."""
    lat = fw.lattice
    closed = {open_mask(fw, a) for a in range(lat.n)} | {lat.full_mask}
    while True:
        extra = {a & b for a, b in combinations(closed, 2)} - closed
        if not extra:
            return sorted(closed)
        closed |= extra


class TableHost:
    """A sublocale coframe built from its member masks.

    The order tables come from ``Lattice.from_up`` over inclusion, are
    checked against intersection and (fitted) closure of union, and the
    difference table comes from ``CoframeWitness.of``; the indices are
    looked up by member mask.  The attributes mirror
    :class:`subloc.sublocales.SublocaleCoframe`.
    """

    def __init__(self, fw, elems, fitted: bool):
        self.elems = tuple(sorted(elems, key=lambda m: (bin(m).count("1"), m)))
        self.index = {m: i for i, m in enumerate(self.elems)}
        if len(self.index) != len(self.elems):
            raise ValueError("duplicate sublocales")
        self.as_lattice = Lattice.from_up(
            [mask_of(j for j, mj in enumerate(self.elems) if mi & ~mj == 0)
             for mi in self.elems])
        # explicit raises rather than asserts, so that this holds under -O
        meet, join = self.as_lattice.meet_table, self.as_lattice.join_table
        for i, mi in enumerate(self.elems):
            for j in range(i, len(self.elems)):
                mj = self.elems[j]
                if meet[i][j] != self.index.get(mi & mj):
                    raise ValueError("sublocale collection not closed under intersection")
                u = sublocale_closure(fw, mi | mj)
                if fitted:
                    u = fit_mask(fw, u)
                if join[i][j] != self.index.get(u):
                    raise ValueError("sublocale collection not closed under join")
        self.coframe = CoframeWitness.of(self.as_lattice)
        n = fw.lattice.n
        self.open_index = tuple(self.index[open_mask(fw, a)] for a in range(n))
        self.closed_index = tuple(self.index.get(fw.lattice.up[a]) for a in range(n))
        self.fit_index = tuple(self.index[fit_mask(fw, m)] for m in self.elems)


def table_hosts(fw, limits=DEFAULT_LIMITS) -> tuple:
    """``S(L)`` and ``S_o(L)`` as :class:`TableHost` s: subsets scanned up
    to 12 elements, rectangles closed above."""
    scan_elements = 12
    found = (scan_sublocales(fw) if fw.lattice.n <= scan_elements
             else generate_sublocales(fw, limits))
    return TableHost(fw, found, False), TableHost(fw, intersections_of_opens(fw), True)


def host_mismatches(host, oracle) -> list:
    """Names of the tables and indices on which two hosts differ."""
    names = [name for name in ("elems", "open_index", "closed_index", "fit_index")
             if getattr(host, name) != getattr(oracle, name)]
    if host.as_lattice != oracle.as_lattice:
        names.append("as_lattice")
    if host.coframe.difference_table != oracle.coframe.difference_table:
        names.append("difference_table")
    return names


def host_read_mismatches(sl) -> tuple:
    """Where the host-index reads of the subcolocale calculus differ from
    the member-mask operations they stand for, and how many were compared.

    On the full host ``sl`` and its fitted host: ``fit_of`` against
    ``fit_mask``, ``full_index`` against the fitted members, the open and
    closed trims (host meets) against ``& open_mask`` and ``& closed_mask``,
    the fitted closed probe against the fit of ``& closed_mask``, and the
    point sublocales against ``b_mask`` of the primes.
    """
    fw = sl.ambient
    n = fw.lattice.n
    sl_o = sl.fitted_subcoframe()
    bad = []
    cases = 0

    def compare(got, want, *where):
        nonlocal cases
        cases += 1
        if got != want:
            bad.append(where)

    for i, m in enumerate(sl.elems):
        compare(sl_o.fit_of[i], sl_o.index[fit_mask(fw, m)], "fit_of", i)
        for x in range(n):
            compare(sl.meet(i, sl.open_index[x]), sl.index[m & open_mask(fw, x)],
                    "open trim", i, x)
            compare(sl.meet(i, sl.closed_index[x]), sl.index[m & closed_mask(fw, x)],
                    "closed trim", i, x)
    for j, m in enumerate(sl_o.elems):
        compare(sl_o.full_index[j], sl.index[m], "full_index", j)
        for x in range(n):
            compare(sl_o.fit_of[sl.meet(sl_o.full_index[j], sl.closed_index[x])],
                    sl_o.index[fit_mask(fw, m & closed_mask(fw, x))], "fitted probe", j, x)
    compare(point_sublocales(sl), mask_of(sl.index[b_mask(fw, p)] for p in bits(fw.primes)),
            "point sublocales")
    return bad, cases


# ---------------------------------------------------------------------------
# law checks by their definitions, cubic in the elements


def scan_distributivity(lat) -> list:
    """Every ``(x, y, z)`` with ``x ^ (y v z) != (x ^ y) v (x ^ z)``."""
    meet, join = lat.meet_table, lat.join_table
    return [(x, y, z) for x in range(lat.n) for y in range(lat.n) for z in range(lat.n)
            if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]]


def scan_heyting_adjunction(lat, hey) -> list:
    """Every ``(x, y, z)`` on which ``x ^ y <= z`` and ``x <= y -> z`` differ,
    with the arrow read from the table ``hey``."""
    return [(x, y, z) for x in range(lat.n) for y in range(lat.n) for z in range(lat.n)
            if lat.leq(lat.meet_table[x][y], z) != lat.leq(x, hey[y][z])]


def scan_difference_adjunction(lat, diff) -> list:
    """Every ``(s, t, u)`` on which ``s - t <= u`` and ``s <= t v u`` differ,
    with the difference read from the table ``diff``."""
    return [(s, t, u) for s in range(lat.n) for t in range(lat.n) for u in range(lat.n)
            if lat.leq(diff[s][t], u) != lat.leq(s, lat.join_table[t][u])]


def scan_precongruence(fw, rel) -> bool:
    """``is_precongruence`` with rows meet-stable and columns join-stable
    tested pair by pair, cubic in the elements."""
    lat = fw.lattice
    n = lat.n
    if len(rel) != n or any(r & ~lat.full_mask for r in rel):
        return False
    for x in range(n):
        row = rel[x]
        if not (row >> x) & 1:
            return False
        for y in bits(row):
            if rel[y] & ~row or lat.up[y] & ~row:
                return False
        if any(row & ~rel[x2] for x2 in bits(lat.dn[x])):
            return False
        if any(not (row >> lat.meet_table[y1][y2]) & 1
               for y1 in bits(row) for y2 in bits(row)):
            return False
    if rel[lat.bottom] != lat.full_mask:
        return False
    for b in range(n):
        col = mask_of(a for a in range(n) if (rel[a] >> b) & 1)
        if any(not (col >> lat.join_table[a1][a2]) & 1
               for a1 in bits(col) for a2 in bits(col)):
            return False
    return True


def scan_inclusion_identity(sl) -> list:
    """``inclusion_identity_violations`` with one table join and one
    inclusion per triple ``(s, x, y)``."""
    fw = sl.ambient
    n = fw.lattice.n
    opens = [open_mask(fw, a) for a in range(n)]
    return [(s, x, y) for s, ms in enumerate(sl.elems) for x in range(n) for y in range(n)
            if sl.leq(s, sl.join(sl.closed_of(x), sl.open_of(y)))
            != ((ms & opens[x]) & ~opens[y] == 0)]


def scan_host_laws(host) -> list:
    """``host_law_violations`` with each join the (fitted) closure of the
    union and distributivity tested on every triple."""
    fw = host.ambient
    label = "SoL" if host.fitted else "SL"
    lat = host.as_lattice
    bad = []
    for i, mi in enumerate(host.elems):
        for j in range(i, host.size):
            mj = host.elems[j]
            if lat.meet_table[i][j] != host.index.get(mi & mj):
                bad.append((label, "meet", i, j))
            u = sublocale_closure(fw, mi | mj)
            if host.fitted:
                u = fit_mask(fw, u)
            if lat.join_table[i][j] != host.index.get(u):
                bad.append((label, "join", i, j))
    bad.extend((label, "distributive") + v for v in scan_distributivity(lat))
    return bad


# ---------------------------------------------------------------------------
# subsets found by scanning


def scan_subcolocales(host, which: str = "all") -> tuple:
    """``enumerate_subcolocales`` by testing all 2^k masks of a k-element
    host, pruned by bottom membership before the closure test."""
    lat = host.as_lattice
    k = lat.n
    bottombit = bit(lat.bottom)
    topbit = bit(lat.top)
    out = []
    for m in range(1 << k):
        if not m & bottombit:
            continue
        if which == "codense" and not m & topbit:
            continue
        if not _is_subcolocale_raw(host, m):
            continue
        if which == "proper" and not is_proper(host, m):
            continue
        out.append(m)
    return tuple(out)


def scan_downset_masks(up_rows) -> tuple:
    """``downset_masks`` by testing all 2^n subsets of the points."""
    n = len(up_rows)
    dn = [mask_of(i for i in range(n) if (up_rows[i] >> j) & 1) for j in range(n)]
    out = [m for m in range(1 << n) if all(dn[i] & ~m == 0 for i in bits(m))]
    return tuple(sorted(out, key=lambda m: (bin(m).count("1"), m)))


# ---------------------------------------------------------------------------
# quotient frames, subcolocale lattices and lifts


def table_sublocale_frame(sl, i: int) -> tuple:
    """Sublocale ``i`` as a frame in its own right, by ``Lattice.from_up`` over
    the ambient order on its members and ``FrameWitness.of``, plus the
    ambient elements backing its indices, in increasing ambient order."""
    fw = sl.ambient
    members = sl.elems[i]
    elems = tuple(bits(members))
    pos = {e: p for p, e in enumerate(elems)}
    up_rows = [mask_of(pos[y] for y in bits(fw.lattice.up[x] & members)) for x in elems]
    return FrameWitness.of(Lattice.from_up(up_rows)), elems


def table_subcolocale_lattice(host, members: int) -> tuple:
    """A subcolocale as a lattice, plus its host indices, by ``Lattice.from_up``
    over the host order on the members; its joins are checked against the
    host's and its meets against conuclei of the host's meets."""
    idxs = tuple(bits(members))
    pos = {e: p for p, e in enumerate(idxs)}
    lat = Lattice.from_up([mask_of(pos[j] for j in idxs if host.leq(i, j)) for i in idxs])
    # explicit raises rather than asserts, so that this holds under -O
    for a, b in combinations(range(len(idxs)), 2):
        if idxs[lat.join_table[a][b]] != host.join(idxs[a], idxs[b]):
            raise ValueError("subcolocale join is not the host's")
        if idxs[lat.meet_table[a][b]] != conucleus(host, members, host.meet(idxs[a], idxs[b])):
            raise ValueError("subcolocale meet is not the conucleus of the host's")
    return lat, idxs


def scan_coframe_maps(src, dst, fixed) -> list:
    """Every map ``src -> dst`` that keeps the pins ``fixed``, the bounds,
    and binary meets and joins, in lexicographic order, by trying each of
    the ``dst.n ** src.n`` maps that agree with the pins and the bounds."""
    pins = dict(fixed)
    for s, t in ((src.bottom, dst.bottom), (src.top, dst.top)):
        if pins.setdefault(s, t) != t:
            return []
    choices = [(pins[x],) if x in pins else range(dst.n) for x in range(src.n)]
    pairs = list(combinations(range(src.n), 2))
    return [h for h in product(*choices)
            if all(h[src.meet_table[a][b]] == dst.meet_table[h[a]][h[b]]
                   and h[src.join_table[a][b]] == dst.join_table[h[a]][h[b]]
                   for a, b in pairs)]
