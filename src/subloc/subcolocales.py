"""Subcolocales of the sublocale coframes, and the fitting adjunction.

A subcolocale of a coframe is a subset closed under all joins (hence
containing the bottom) and under differences ``d - c`` with arbitrary
``c``.  Subcolocales of a :class:`~subloc.sublocales.SublocaleCoframe`
are bitmasks over its indices.

The calculus implemented here connects two hosts: collections ``F`` of
fitted sublocales that are *proper* (contain all opens, with exact joins
of opens) and codense subcolocales ``D`` of the full sublocale coframe.
``sigma`` realizes a fitted member of ``F`` as a canonical sublocale,
``delta`` generates a codense subcolocale from a proper ``F``, and
``fit_image`` maps a subcolocale of sublocales back down to fitted ones.
``delta`` is left adjoint to ``fit_image`` and restricts to a bijection
between proper collections and the codense subcolocales that are
*essential* (generated by their saturated elements).
"""

from __future__ import annotations

from typing import Union

from .bits import bit, bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import NotProper, SizeLimit
from .lattice import CoframeWitness, Lattice, families, fold_families, primes
from .sublocales import (SublocaleCoframe, b_mask, fit_mask, is_exact_sublocale,
                         is_precongruence, open_mask)

Host = Union[CoframeWitness, SublocaleCoframe]


def _host_lattice(host: Host) -> Lattice:
    return host.lattice if isinstance(host, CoframeWitness) else host.as_lattice


def _host_coframe(host: Host) -> CoframeWitness:
    return host if isinstance(host, CoframeWitness) else host.coframe


def _is_subcolocale_raw(cw: CoframeWitness, members: int) -> bool:
    """Bottom membership, then closure under binary joins and differences."""
    lat = cw.lattice
    if not (members >> lat.bottom) & 1:
        return False
    elems = list(bits(members))
    join = lat.join_table
    for pos, a in enumerate(elems):
        ja = join[a]
        for b in elems[pos:]:
            if not (members >> ja[b]) & 1:
                return False
    diff = cw.difference_table
    for d in elems:
        for v in diff[d]:
            if not (members >> v) & 1:
                return False
    return True


def is_subcolocale(host: Host, members: int) -> bool:
    """Check the join/difference closure; on sublocale hosts also check the
    intersection-stability characterizations and insist they agree."""
    cw = _host_coframe(host)
    generic = _is_subcolocale_raw(cw, members)
    if isinstance(host, SublocaleCoframe):
        special = _is_subcolocale_characterized(host, members)
        assert special == generic, "subcolocale characterizations disagree"
    return generic


def _is_subcolocale_characterized(sl: SublocaleCoframe, members: int) -> bool:
    """Join closure plus stability under meeting with opens and closeds
    (full host), or under fitted meets with closeds (fitted host)."""
    lat = sl.as_lattice
    if not (members >> lat.bottom) & 1:
        return False
    elems = list(bits(members))
    join = lat.join_table
    for pos, a in enumerate(elems):
        ja = join[a]
        for b in elems[pos:]:
            if not (members >> ja[b]) & 1:
                return False
    fw = sl.ambient
    n = fw.lattice.n
    for i in elems:
        mi = sl.elems[i]
        for x in range(n):
            if sl.fitted:
                probe = sl.index[fit_mask(fw, mi & fw.lattice.up[x])]
                if not (members >> probe) & 1:
                    return False
            else:
                for probe_mask in (mi & open_mask(fw, x), mi & fw.lattice.up[x]):
                    if not (members >> sl.index[probe_mask]) & 1:
                        return False
    return True


def conucleus(host: Host, members: int, c: int) -> int:
    """Largest member of the subcolocale below ``c``."""
    lat = _host_lattice(host)
    return lat.big_join(members & lat.dn[c])


def join_closure(host: Host, members: int) -> int:
    """Close a subset under all joins, including the empty join."""
    lat = _host_lattice(host)
    m = members | bit(lat.bottom)
    join = lat.join_table
    while True:
        new = m
        elems = list(bits(m))
        for pos, a in enumerate(elems):
            ja = join[a]
            for b in elems[pos:]:
                new |= bit(ja[b])
        if new == m:
            return m
        m = new


def generated_subcolocale(host: Host, members: int) -> int:
    """Smallest subcolocale containing the given members (join/difference
    closure computed as an alternating fixpoint)."""
    cw = _host_coframe(host)
    lat = cw.lattice
    diff = cw.difference_table
    m = members | bit(lat.bottom)
    while True:
        new = join_closure(host, m)
        for d in list(bits(new)):
            dd = diff[d]
            for c in range(lat.n):
                new |= bit(dd[c])
        if new == m:
            return m
        m = new


def generated_closed_form(sl: SublocaleCoframe, members: int) -> int:
    """On a full sublocale host, the generated subcolocale in closed form:
    joins of open-and-closed trims of the generators."""
    assert not sl.fitted
    fw = sl.ambient
    n = fw.lattice.n
    basics = 0
    for i in bits(members):
        mi = sl.elems[i]
        for a in range(n):
            mo = mi & open_mask(fw, a)
            for b in range(n):
                basics |= bit(sl.index[mo & fw.lattice.up[b]])
    return join_closure(sl, basics)


def is_codense(host: Host, members: int) -> bool:
    lat = _host_lattice(host)
    return bool((members >> lat.top) & 1)


def enumerate_subcolocales(host: Host, which: str = "all",
                           limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """All subcolocale bitmasks of the host, in increasing mask order.

    ``which`` filters to ``codense`` (contains the host top) or ``proper``
    (fitted hosts only).  Brute force over all subsets, pruned by bottom
    membership and join closure before the difference scan.
    """
    if which not in ("all", "codense", "proper"):
        raise ValueError(f"unknown filter {which!r}")
    cw = _host_coframe(host)
    lat = cw.lattice
    k = lat.n
    if k > limits.max_subcolocale_host:
        raise SizeLimit(f"host of size {k} exceeds the subcolocale enumeration bound "
                        f"{limits.max_subcolocale_host}")
    if which == "proper" and not (isinstance(host, SublocaleCoframe) and host.fitted):
        raise ValueError("the proper filter needs a fitted sublocale host")
    bottombit = bit(lat.bottom)
    topbit = bit(lat.top)
    out = []
    for m in range(1 << k):
        if not m & bottombit:
            continue
        if which == "codense" and not m & topbit:
            continue
        if not _is_subcolocale_raw(cw, m):
            continue
        if which == "proper" and not is_proper(host, m, limits):
            continue
        out.append(m)
    return tuple(out)


class Subcolocale:
    """A validated subcolocale of a sublocale coframe host."""

    def __init__(self, host: SublocaleCoframe, members: int, validate: bool = True):
        if validate and not is_subcolocale(host, members):
            raise ValueError("not a subcolocale: fails join or difference closure")
        self.host = host
        self.members = members

    def __eq__(self, other):
        return (isinstance(other, Subcolocale) and other.host is self.host
                and other.members == self.members)

    def __hash__(self):
        return hash((id(self.host), self.members))

    def __repr__(self):
        return f"Subcolocale(indices={sorted(bits(self.members))})"

    def conucleus(self, c: int) -> int:
        return conucleus(self.host, self.members, c)

    def contains(self, i: int) -> bool:
        return bool((self.members >> i) & 1)


# ---------------------------------------------------------------------------
# distinguished subcolocales of the full host


def sb(sl: SublocaleCoframe) -> int:
    """Join closure of the closed-meet-open rectangles: the smallest codense
    subcolocale of the full sublocale coframe."""
    fw = sl.ambient
    n = fw.lattice.n
    gens = 0
    for x in range(n):
        cx = fw.lattice.up[x]
        for y in range(n):
            gens |= bit(sl.index[cx & open_mask(fw, y)])
    return join_closure(sl, gens)


def ssp(sl: SublocaleCoframe) -> int:
    """Join closure of the point sublocales (smallest sublocales of primes)."""
    fw = sl.ambient
    gens = 0
    for p in bits(primes(fw)):
        gens |= bit(sl.index[b_mask(fw, p)])
    return join_closure(sl, gens)


def se(sl: SublocaleCoframe, limits: Limits = DEFAULT_LIMITS) -> int:
    """The exact sublocales, as a subset of the host indices."""
    return mask_of(i for i, m in enumerate(sl.elems)
                   if is_exact_sublocale(sl.ambient, m, limits))


# ---------------------------------------------------------------------------
# the fitting adjunction


def fit_image(sl: SublocaleCoframe, sl_o: SublocaleCoframe, members: int) -> int:
    """Fittings of the members, as a bitmask over the fitted host."""
    out = 0
    for i in bits(members):
        out |= bit(sl_o.index[sl.elems[sl.fit(i)]])
    return out


def leq_f(sl_o: SublocaleCoframe, members: int, f: int) -> tuple[int, ...]:
    """The relation ``x R y`` iff meeting ``f`` with the open of ``x`` inside
    the subcolocale lands below the open of ``y``."""
    n = sl_o.ambient.lattice.n
    rel = []
    for x in range(n):
        fx = conucleus(sl_o, members, sl_o.meet(f, sl_o.open_index[x]))
        rel.append(mask_of(y for y in range(n) if sl_o.leq(fx, sl_o.open_index[y])))
    return tuple(rel)


def is_proper(sl_o: SublocaleCoframe, members: int,
              limits: Limits = DEFAULT_LIMITS) -> bool:
    """Contains every open, and joins of opens are exact in the subcolocale.

    Cross-checked against the precongruence criterion: every member's
    induced relation must be a precongruence of the ambient frame.
    """
    opens = mask_of(sl_o.open_index)
    if opens & ~members:
        return False
    exact = _open_joins_exact(sl_o, members, limits)
    via_precongruence = all(
        is_precongruence(sl_o.ambient, leq_f(sl_o, members, f))
        for f in bits(members))
    assert exact == via_precongruence, "properness criteria disagree"
    return exact


def _open_joins_exact(sl_o: SublocaleCoframe, members: int, limits: Limits) -> bool:
    """Whether trimming the join of each family of opens by each member ``g``
    and taking the conucleus gives the join of the trimmed opens' conuclei.

    The families are those of the ambient frame's elements; their values
    come from :func:`fold_families` over a conucleus table built once.
    """
    lat = sl_o.as_lattice
    meet, join = lat.meet_table, lat.join_table
    con = [conucleus(sl_o, members, c) for c in range(lat.n)]
    gs = tuple(bits(members))
    trimmed = [tuple([con[meet[c][g]] for g in gs]) for c in range(lat.n)]
    opens = sl_o.open_index

    # value of a family: (the join of its opens, the joins of the trimmed
    # opens' conuclei, one per member g)
    def extend(v, x):
        j, row = v
        return (join[j][opens[x]],
                tuple([join[a][b] for a, b in zip(row, trimmed[opens[x]])]))

    folds = fold_families(families(len(opens), limits),
                          (lat.bottom, (lat.bottom,) * len(gs)), extend)
    return all(row == trimmed[j] for _, (j, row) in folds)


def sigma(sl: SublocaleCoframe, sl_o: SublocaleCoframe, members: int, f: int) -> int:
    """The canonical sublocale realizing the fitted member ``f``.

    Computed as the intersection of the closed-join-open sublocales of the
    induced relation, then validated against the meet identity
    ``fit(sigma(f) ^ open(x)) = f ^ open(x)`` pointwise; a failure raises
    :class:`NotProper`, so improper inputs are loud.
    """
    if not (members >> f) & 1:
        raise ValueError("f is not a member of the subcolocale")
    fw = sl.ambient
    n = fw.lattice.n
    rel = leq_f(sl_o, members, f)
    acc = fw.lattice.full_mask
    for x in range(n):
        cx = sl.closed_index[x]
        for y in bits(rel[x]):
            acc &= sl.elems[sl.join(cx, sl.open_index[y])]
    s = sl.index[acc]
    for x in range(n):
        fitted = sl.fit(sl.index[acc & open_mask(fw, x)])
        lhs = sl_o.index[sl.elems[fitted]]
        rhs = conucleus(sl_o, members, sl_o.meet(f, sl_o.open_index[x]))
        if lhs != rhs:
            raise NotProper(f"meet identity fails at element {x}: "
                            f"the collection is not proper")
    return s


def delta(sl: SublocaleCoframe, sl_o: SublocaleCoframe, members: int) -> int:
    """The codense subcolocale generated by the canonical sublocales.

    Computed as joins of closed trims of the sigma images and checked
    against the generic generated subcolocale.
    """
    fw = sl.ambient
    n = fw.lattice.n
    sigmas = 0
    basics = 0
    for f in bits(members):
        s = sigma(sl, sl_o, members, f)
        sigmas |= bit(s)
        for x in range(n):
            basics |= bit(sl.index[sl.elems[s] & fw.lattice.up[x]])
    out = join_closure(sl, basics)
    assert out == generated_subcolocale(sl, sigmas), \
        "closed-form delta disagrees with the generated subcolocale"
    return out


def saturated_elements(sl: SublocaleCoframe, members: int) -> int:
    """Conuclei of meets of open families: the saturated part of a subcolocale.

    Meets of open families are exactly the fixpoints of ``fit``, so the
    fold ranges over those rather than enumerating families.
    """
    out = 0
    for i in range(sl.size):
        if sl.fit(i) == i:
            out |= bit(conucleus(sl, members, i))
    return out


def is_essential(sl: SublocaleCoframe, members: int,
                 sl_o: SublocaleCoframe | None = None) -> bool:
    """Whether the subcolocale is generated by its saturated elements.

    Checked both directly (joins of closed trims of saturated elements
    recover the subcolocale) and through the adjunction (the subcolocale
    embeds in ``delta`` of its fit image); the two must agree.
    """
    if sl_o is None:
        sl_o = sl.fitted_subcoframe()
    fw = sl.ambient
    n = fw.lattice.n
    sat = saturated_elements(sl, members)
    basics = 0
    for i in bits(sat):
        mi = sl.elems[i]
        for z in range(n):
            basics |= bit(sl.index[mi & fw.lattice.up[z]])
    regenerated = join_closure(sl, basics)
    assert regenerated == generated_subcolocale(sl, sat), \
        "closed-form saturation closure disagrees with the generic one"
    direct = regenerated == members
    via_adjunction = members & ~delta(sl, sl_o, fit_image(sl, sl_o, members)) == 0
    assert direct == via_adjunction, "essentiality criteria disagree"
    return direct


def adjunction_check(sl: SublocaleCoframe, sl_o: SublocaleCoframe,
                     f_members: int, d_members: int) -> bool:
    """The adjunction biconditional for one (proper, codense) pair."""
    left = delta(sl, sl_o, f_members) & ~d_members == 0
    right = f_members & ~fit_image(sl, sl_o, d_members) == 0
    return left == right
