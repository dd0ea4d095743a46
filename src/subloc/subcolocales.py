"""Subcolocales of the sublocale coframes, and the fitting adjunction.

A subcolocale of a coframe is a subset closed under all joins (hence
containing the bottom) and under differences ``d - c`` with arbitrary
``c``.  Its host is a :class:`~subloc.sublocales.SublocaleCoframe`, and a
subcolocale is a bitmask over the host indices.

Everything here reads the host tables.  Trimming a sublocale by an open
or a closed is a host meet with an entry of ``open_index`` or
``closed_index``; :func:`closed_trims` joins up the closed trims of a set
of members, which gives ``sb``, ``delta``, the closed form of the
generated subcolocale and the essentiality test.  Crossing from ``S(L)``
to ``S_o(L)`` and back is a lookup in the fitted host's translation table
``fit_of`` / ``full_index``.  Only ``se`` reads sublocales as sets of
frame elements, because exactness is a property of the quotient onto
them.  The subcolocales of a host are the sublocales of its dual frame,
so :func:`enumerate_subcolocales` builds them as ``S(L)`` is built.

The calculus connects two hosts: collections ``F`` of fitted sublocales
that are *proper* (contain all opens, with exact joins of opens) and
codense subcolocales ``D`` of the full sublocale coframe.  ``sigma``
realizes a fitted member of ``F`` as a canonical sublocale, ``delta``
generates a codense subcolocale from a proper ``F``, and ``fit_image``
maps a subcolocale of sublocales back down to fitted ones.  ``delta`` is
left adjoint to ``fit_image`` and restricts to a bijection between proper
collections and the codense subcolocales that are *essential* (generated
by their saturated elements).
"""

from __future__ import annotations

from typing import Sequence

from .bits import bit, bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import InternalInconsistency, NotProper
from .lattice import Lattice, join_irreducibles
from .sublocales import (SublocaleCoframe, _prime_sets, is_exact_sublocale,
                         is_precongruence)


def _join_closed(lat: Lattice, members: int) -> bool:
    """Bottom membership and closure under binary joins."""
    if not (members >> lat.bottom) & 1:
        return False
    elems = list(bits(members))
    join = lat.join_table
    for pos, a in enumerate(elems):
        ja = join[a]
        for b in elems[pos:]:
            if not (members >> ja[b]) & 1:
                return False
    return True


def _is_subcolocale_raw(host: SublocaleCoframe, members: int) -> bool:
    """Bottom membership, then closure under binary joins and differences."""
    if not _join_closed(host.as_lattice, members):
        return False
    diff = host.coframe.difference_table
    for d in bits(members):
        for v in diff[d]:
            if not (members >> v) & 1:
                return False
    return True


def is_subcolocale(host: SublocaleCoframe, members: int) -> bool:
    """Check the join/difference closure and the intersection-stability
    characterization, and insist they agree."""
    generic = _is_subcolocale_raw(host, members)
    special = _is_subcolocale_characterized(host, members)
    if special != generic:
        raise InternalInconsistency("subcolocale characterizations disagree")
    return generic


def _is_subcolocale_characterized(sl: SublocaleCoframe, members: int) -> bool:
    """Join closure plus stability under meeting with opens and closeds
    (full host), or under fitted meets with closeds (fitted host)."""
    if not _join_closed(sl.as_lattice, members):
        return False
    if sl.fitted:
        full = sl.parent
        trimmed = _trims(full, mask_of(sl.full_index[i] for i in bits(members)),
                         full.closed_index)
        probes = mask_of(sl.fit_of[t] for t in bits(trimmed))
    else:
        probes = _trims(sl, members, sl.open_index + sl.closed_index)
    return probes & ~members == 0


def _trims(sl: SublocaleCoframe, members: int, by: Sequence[int]) -> int:
    """Host meets of every member with every index in ``by``."""
    meet = sl.as_lattice.meet_table
    return mask_of(meet[i][t] for i in bits(members) for t in by)


def closed_trims(sl: SublocaleCoframe, members: int) -> int:
    """Join closure of the members' meets with every closed of the full host."""
    return join_closure(sl, _trims(sl, members, sl.closed_index))


def conucleus(host: SublocaleCoframe, members: int, c: int) -> int:
    """Largest member of the subcolocale below ``c``."""
    lat = host.as_lattice
    return lat.big_join(members & lat.dn[c])


def join_closure(host: SublocaleCoframe, members: int) -> int:
    """Close a subset under all joins, including the empty join."""
    lat = host.as_lattice
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


def generated_subcolocale(host: SublocaleCoframe, members: int) -> int:
    """Smallest subcolocale containing the given members (join/difference
    closure computed as an alternating fixpoint)."""
    lat = host.as_lattice
    diff = host.coframe.difference_table
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
    return closed_trims(sl, _trims(sl, members, sl.open_index))


def is_codense(host: SublocaleCoframe, members: int) -> bool:
    return bool((members >> host.as_lattice.top) & 1)


def enumerate_subcolocales(host: SublocaleCoframe, which: str = "all",
                           limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """All subcolocale bitmasks of the host, in increasing mask order.

    The subcolocales of a finite coframe are the sublocales of its dual
    frame (Birkhoff), whose primes are the host's join-irreducibles, so
    the prime-set construction of ``S(L)`` builds them on the host's
    indices: one per set of join-irreducibles, ``2^p`` for a frame with
    ``p`` primes, a count ``limits.max_sublocales`` bounded when the host
    was built.  ``which`` filters to ``codense`` (contains the host top)
    or ``proper`` (fitted hosts only).
    """
    if which not in ("all", "codense", "proper"):
        raise ValueError(f"unknown filter {which!r}")
    if which == "proper" and not host.fitted:
        raise ValueError("the proper filter needs a fitted sublocale host")
    lat = host.as_lattice
    found, _ = _prime_sets(lat.dual(), mask_of(join_irreducibles(lat)))
    if which == "codense":
        found = (m for m in found if is_codense(host, m))
    elif which == "proper":
        found = (m for m in found if is_proper(host, m, limits))
    return tuple(sorted(found))


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
    return closed_trims(sl, mask_of(sl.open_index))


def point_sublocales(sl: SublocaleCoframe) -> int:
    """The point sublocales ``b(p)``, the smallest sublocales of the primes:
    on the full host, those of the singleton prime sets."""
    return mask_of(i for i, q in enumerate(sl.points) if q and not q & (q - 1))


def ssp(sl: SublocaleCoframe) -> int:
    """Join closure of the point sublocales."""
    return join_closure(sl, point_sublocales(sl))


def se(sl: SublocaleCoframe, limits: Limits = DEFAULT_LIMITS) -> int:
    """The exact sublocales, as a subset of the host indices."""
    return mask_of(i for i, m in enumerate(sl.elems)
                   if is_exact_sublocale(sl.ambient, m, limits))


# ---------------------------------------------------------------------------
# the fitting adjunction


def fit_image(sl: SublocaleCoframe, sl_o: SublocaleCoframe, members: int) -> int:
    """Fittings of the members of ``sl``, as a bitmask over its fitted host
    ``sl_o``."""
    fit_of = sl_o.fit_of
    return mask_of(fit_of[i] for i in bits(members))


def leq_f(sl_o: SublocaleCoframe, members: int, f: int) -> tuple[int, ...]:
    """The relation ``x R y`` iff meeting ``f`` with the open of ``x`` inside
    the subcolocale lands below the open of ``y``: row ``x`` is the host's
    ``opens_above`` entry of that conucleus."""
    above, meet = sl_o.opens_above, sl_o.as_lattice.meet_table[f]
    return tuple(above[conucleus(sl_o, members, meet[o])] for o in sl_o.open_index)


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
    if exact != via_precongruence:
        raise InternalInconsistency("properness criteria disagree")
    return exact


def _open_joins_exact(sl_o: SublocaleCoframe, members: int, limits: Limits) -> bool:
    """Whether trimming the join of each family of opens by each member ``g``
    and taking the conucleus gives the join of the trimmed opens' conuclei.

    The families are those of the ambient frame's family table; their
    values are folded over its tree against a conucleus table built once.
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

    folds = sl_o.ambient.family_table(limits).fold((lat.bottom, (lat.bottom,) * len(gs)),
                                                   extend)
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
    n = sl.ambient.lattice.n
    meet, join = sl.as_lattice.meet_table, sl.as_lattice.join_table
    rel = leq_f(sl_o, members, f)
    s = sl.as_lattice.top
    for x in range(n):
        jx = join[sl.closed_index[x]]
        for y in bits(rel[x]):
            s = meet[s][jx[sl.open_index[y]]]
    for x in range(n):
        lhs = sl_o.fit_of[meet[s][sl.open_index[x]]]
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
    sigmas = mask_of(sigma(sl, sl_o, members, f) for f in bits(members))
    out = closed_trims(sl, sigmas)
    if out != generated_subcolocale(sl, sigmas):
        raise InternalInconsistency("closed-form delta disagrees with the generated subcolocale")
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
    sat = saturated_elements(sl, members)
    regenerated = closed_trims(sl, sat)
    if regenerated != generated_subcolocale(sl, sat):
        raise InternalInconsistency(
            "closed-form saturation closure disagrees with the generic one")
    direct = regenerated == members
    via_adjunction = members & ~delta(sl, sl_o, fit_image(sl, sl_o, members)) == 0
    if direct != via_adjunction:
        raise InternalInconsistency("essentiality criteria disagree")
    return direct


def adjunction_check(sl: SublocaleCoframe, sl_o: SublocaleCoframe,
                     f_members: int, d_members: int) -> bool:
    """The adjunction biconditional for one (proper, codense) pair."""
    left = delta(sl, sl_o, f_members) & ~d_members == 0
    right = f_members & ~fit_image(sl, sl_o, d_members) == 0
    return left == right
