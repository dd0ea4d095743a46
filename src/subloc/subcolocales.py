"""Subcolocales of the sublocale coframes, and the fitting adjunction.

A subcolocale of a coframe is a subset closed under all joins (hence
containing the bottom) and under differences ``d - c`` with arbitrary
``c``.  Its host is a :class:`~subloc.sublocales.SublocaleCoframe`, and a
subcolocale is a bitmask over the host indices.

Everything here works on host indices and their prime sets, where meet
is ``&`` and join is ``|``; no host table is read.  Both hosts are rings
of sets of primes, ``2^P`` and the down-sets of ``P``, so a subcolocale
of either is ``C_R``, the indices whose maximal primes lie in a set
``R`` of primes (proved at :func:`generated_subcolocale`): deciding,
generating and listing subcolocales read ``C_R`` off the host's
per-prime table ``tops``, and the generic closures are test oracles.
Trimming a sublocale by an open or a closed meets the prime sets, and
down-closes the meet on ``S_o(L)`` to take its fit; :func:`closed_trims`
joins up the closed trims of a set of members, which gives ``sb``,
``delta`` and the essentiality test.  Crossing from ``S(L)`` to ``S_o(L)`` is a lookup in
the fitted host's table ``fit_of``, and from ``S_o(L)`` to ``L`` one in
``element_of``.  Exactness, a property of the quotient onto a sublocale,
holds for all of them by one identity of the frame's prime sets, checked
once per host (``se``); its cross-check on the point sublocales, over the
pairs with a meet-irreducible, is the only place a sublocale is read as a
set of frame elements.  The precongruence cross-check of ``is_proper``
reads each member's relation as a map on the frame's elements, its rows
being principal up-sets, and decides every member in one pass over rows
that list each element's value under every member's map.  Each double
entry thus costs one pass per host or input, not one scan per member.

The calculus connects two hosts: collections ``F`` of fitted sublocales
that are *proper* (contain all opens, with exact joins of opens) and
codense subcolocales ``D`` of the full sublocale coframe.  ``sigma``
realizes a fitted member of ``F`` as a canonical sublocale, ``delta``
generates a codense subcolocale from a proper ``F``, and ``fit_image``
maps a subcolocale of sublocales back down to fitted ones.  ``delta`` is
left adjoint to ``fit_image`` and restricts to a bijection between proper
collections and the codense subcolocales that are *essential* (generated
by their saturated elements).

What a host determines, its conuclei, closures, distinguished
subcolocales, ``sigma``, ``delta`` and the subcolocale, properness and
essentiality verdicts, is computed once per host and input and kept in
the host's ``memo`` (:func:`_memoised`), so the checks of every suite
run on one witness share it.
"""

from __future__ import annotations

import functools
from operator import or_
from typing import Iterable, Sequence

from .bits import bits, mask_of
from .errors import InternalInconsistency, NotProper
from .lattice import join_violations, union
from .sublocales import SublocaleCoframe, are_principal_precongruences, is_exact_sublocale


_MISSING = object()


def _memoised(kind: str, owner: int = 0, keyed: int = 1):
    """Keep a function's results in the memo of the host passed at argument
    position ``owner`` (:attr:`SublocaleCoframe.memo`), keyed by ``kind``
    and the ``keyed`` arguments after that host.

    The memo lives and dies with its host, and is never shared between
    hosts, so a value is computed once per host and distinct input: the
    double-entry cross-checks inside the body run once per distinct input
    too.  A call that raises stores nothing, so it raises again on the next
    call.  Every value kept is an int, a bool or a tuple, so the callers
    that share one cannot change it.  A memo on the fitted host (``owner``
    1) serves only calls whose first argument is that host's parent.  The
    body stays reachable as ``__wrapped__``.
    """
    def wrap(body):
        @functools.wraps(body)
        def memoised(*args):
            host = args[owner]
            assert not owner or host.parent is args[0], "not the fitted host of this S(L)"
            key = (kind, *args[owner + 1:owner + 1 + keyed])
            memo = host.memo
            got = memo.get(key, _MISSING)
            if got is _MISSING:
                got = memo[key] = body(*args)
            return got
        return memoised
    return wrap


@_memoised("subcolocale")
def is_subcolocale(host: SublocaleCoframe, members: int) -> bool:
    """Whether the mask is the subcolocale its maximal primes fix,
    ``generated_subcolocale(members) == members``, checked against the
    intersection-stability characterization once per host and mask; the
    two must agree.  The whole host is accepted before either side runs:
    it holds every index, so every join and difference of its members.
    """
    if members == (1 << host.size) - 1:
        return True
    closed = generated_subcolocale(host, members) == members
    if closed != _is_subcolocale_characterized(host, members):
        raise InternalInconsistency("subcolocale characterizations disagree")
    return closed


def _is_subcolocale_characterized(sl: SublocaleCoframe, members: int) -> bool:
    """Join closure plus stability under meeting with opens and closeds
    (full host), or under fitted meets with closeds (fitted host).

    A set ``M`` is closed under all joins, the empty one included, iff
    every conucleus (the join of the members below an index,
    :func:`conuclei`) is a member: closure gives that, and conversely the
    conucleus of the bottom is the empty join and that of ``a v b``, for
    members ``a`` and ``b``, is ``a v b`` itself.  That is ``k p`` steps
    where the pairs of members cost ``|M|^2``.
    """
    if not all((members >> c) & 1 for c in conuclei(sl, members)):
        return False
    rows = (sl._prime_tables[3] if sl.fitted
            else [sl.points[t] for t in sl.open_index + sl.closed_index])
    return _trims(sl, members, rows) & ~members == 0


def _trims(sl: SublocaleCoframe, members: int, rows: Sequence[int]) -> int:
    """Meets of every member with every set of primes in ``rows``:
    intersections, down-closed on the fitted host, which is the fit there
    (its rows are ``above[x]``, the prime sets of the closeds)."""
    pts, pos, close = sl.points, sl.point_index, sl._close
    return mask_of(pos[close[pts[i] & r]] for i in bits(members) for r in rows)


def closed_trims(sl: SublocaleCoframe, members: int) -> int:
    """Join closure of the members' meets with every closed of the full host.

    The meets are intersections of prime sets, and many members meet many
    closeds in the same set, so the union closure (:func:`join_closure`)
    runs over the distinct ones, a set, with no index mask between.
    ``tests/test_subcolocales.py`` holds it to :func:`join_closure` of
    :func:`_trims`.
    """
    pts, closeds = sl.points, [sl.points[c] for c in sl.closed_index]
    closure = _union_closure({pts[i] & c for i in bits(members) for c in closeds})
    return mask_of([sl.point_index[q] for q in closure])


@_memoised("conuclei")
def conuclei(host: SublocaleCoframe, members: int) -> tuple[int, ...]:
    """For every host index, the largest member of the subcolocale below it.

    Joins are unions of prime sets, so it is the union of the prime sets of
    the members below.  That union is built over the lower covers in index
    order, ``k p`` steps: an index's own set if it is a member, else the
    union of its lower covers' values.  A lower cover has fewer members,
    hence a smaller index, and every member strictly below ``Q`` lies below
    some lower cover of ``Q`` (:meth:`SublocaleCoframe.covers`), so nothing
    is missed.  ``tests/oracles.py::scan_conucleus`` joins the members
    below an index in the host's lattice.
    """
    pts, pos = host.points, host.point_index
    got: list[int] = []
    for i, q in enumerate(pts):
        if (members >> i) & 1:
            got.append(q)
            continue
        u = 0
        for j in bits(q):
            c = pos[q ^ 1 << j]
            if c is not None:
                u |= got[c]
        got.append(u)
    return tuple(pos[u] for u in got)


def join_closure(host: SublocaleCoframe, members: int) -> int:
    """Close a subset under all joins, including the empty join.

    Joins are unions of prime sets, so the closure is every union of the
    members' prime sets, built one generator ``g`` at a time as
    ``closure | {c | g for c in closure}``; a ``g`` already in the closure
    adds nothing, since the closure is union-closed at every step.
    """
    pts, pos = host.points, host.point_index
    return mask_of([pos[q] for q in _union_closure([pts[i] for i in bits(members)])])


def _union_closure(gens: Iterable[int]) -> set[int]:
    """Every union of the prime sets ``gens``, the empty one included."""
    closure = {0}
    for g in gens:
        if g not in closure:
            closure |= {c | g for c in closure}
    return closure


@_memoised("generated")
def generated_subcolocale(host: SublocaleCoframe, members: int) -> int:
    """Smallest subcolocale containing the given members: ``C_R``
    (:meth:`SublocaleCoframe.tops_in`), the indices whose maximal primes
    lie in ``R``, the union of the members' maximal primes.

    Proof.  A subcolocale of a finite coframe ``C`` is a sublocale of the
    dual frame, and the sublocales of a finite frame are the meet closures,
    the empty meet included, of sets of its primes (Birkhoff's
    representation, :mod:`subloc.sublocales`), which are its
    meet-irreducibles.  So the subcolocales of ``C`` are the join closures,
    the empty join included, of sets of its join-irreducibles.  On the
    full host, ``2^P``, those are the singletons ``{p}``; on the fitted
    host, the down-sets of ``P``, the principal down-sets ``down(p)``.  A
    down-set is the union of ``down(m)`` over its maximal primes ``m``, and
    a union of ``down(p)`` over ``p`` in ``S`` has its maximal primes in
    ``S``, so the join closure of the ``down(p)`` with ``p`` in ``R`` is
    ``C_R`` (the subsets of ``R`` on the full host, where every prime of a
    set is maximal).  ``C_S`` holds the members iff ``S`` holds all their
    maximal primes, and ``C_S`` grows with ``S``: the least subcolocale
    holding them is ``C_R``.  ``tests/oracles.py`` keeps the alternating
    join/difference fixpoint.
    """
    return host.tops_in(mask_of(j for j, t in enumerate(host.tops) if t & members))


def is_codense(host: SublocaleCoframe, members: int) -> bool:
    return bool((members >> (host.size - 1)) & 1)


def enumerate_subcolocales(host: SublocaleCoframe, which: str = "all") -> tuple[int, ...]:
    """All subcolocale bitmasks of the host, in increasing mask order.

    They are the ``C_R``, one for each set ``R`` of primes
    (:func:`generated_subcolocale`), and distinct ones, as ``C_R`` holds
    ``down(p)`` iff ``p`` is in ``R``: ``2^p`` for a frame with ``p``
    primes, a count ``Limits.max_sublocales`` bounded when the host was
    built.  ``which`` filters to ``codense`` (contains the host top) or
    ``proper`` (fitted hosts only).
    """
    if which not in ("all", "codense", "proper"):
        raise ValueError(f"unknown filter {which!r}")
    if which == "proper" and not host.fitted:
        raise ValueError("the proper filter needs a fitted sublocale host")
    found = (host.tops_in(r) for r in range(1 << len(host.tops)))
    if which == "codense":
        found = (m for m in found if is_codense(host, m))
    elif which == "proper":
        found = (m for m in found if is_proper(host, m))
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
        return conuclei(self.host, self.members)[c]

    def contains(self, i: int) -> bool:
        return bool((self.members >> i) & 1)


# ---------------------------------------------------------------------------
# distinguished subcolocales of the full host


@_memoised("sb", keyed=0)
def sb(sl: SublocaleCoframe) -> int:
    """Join closure of the closed-meet-open rectangles: the smallest codense
    subcolocale of the full sublocale coframe."""
    return closed_trims(sl, mask_of(sl.open_index))


def point_sublocales(sl: SublocaleCoframe) -> int:
    """The point sublocales ``b(p)``, the smallest sublocales of the primes:
    on the full host, those of the singleton prime sets."""
    return mask_of(i for i, q in enumerate(sl.points) if q and not q & (q - 1))


@_memoised("ssp", keyed=0)
def ssp(sl: SublocaleCoframe) -> int:
    """Join closure of the point sublocales: they are the singleton prime
    sets, the join-irreducibles of the full host, so their join closure is
    the subcolocale they generate (:func:`generated_subcolocale`)."""
    return generated_subcolocale(sl, point_sublocales(sl))


@_memoised("se", keyed=0)
def se(sl: SublocaleCoframe) -> int:
    """The exact sublocales, as a subset of the host indices: all of them.

    A sublocale is exact when its nucleus keeps the meets of the exact
    pairs (:func:`~subloc.sublocales.is_exact_sublocale`), and every
    nucleus the host reads keeps every binary meet once the primes above
    ``a ^ b`` are those above ``a`` or ``b``
    (:meth:`SublocaleCoframe.meets_split_primes`).  That identity is
    checked once per host, on the pairs with a meet-irreducible; it holds
    on every frame, so its failure raises :class:`InternalInconsistency`.
    ``tests/oracles.py::scan_se`` tests each sublocale on its own.

    Cross-checked on the point sublocales (:func:`point_sublocales`), by
    :func:`~subloc.sublocales.is_exact_sublocale` with the nucleus read off
    the members: ``b(p) = {p, top}`` sends ``a`` to ``p`` when ``a <= p``
    and to the top otherwise, so it keeps the meet of ``a`` and ``b`` iff
    ``p`` is above ``a ^ b`` only when it is above ``a`` or ``b``, which is
    the identity at the prime ``p``.  Every prime has its point sublocale,
    so the two verdicts agree, or :class:`InternalInconsistency` is raised.

    Each point sublocale is tested on the pairs ``(a, m)`` with ``m``
    meet-irreducible, in either order: row ``a`` of ``pairs`` is every
    element when ``a`` is meet-irreducible and the meet-irreducibles
    otherwise.  They decide whether a nucleus ``nu`` keeps every binary
    meet, by the meet dual of the proof of
    :func:`~subloc.lattice.join_violations`: an element ``y`` other than
    the top is the meet ``m1 ^ ... ^ mk`` of the meet-irreducibles above
    it, so ``nu(x ^ m1 ^ ... ^ mk) = nu(x) ^ nu(m1) ^ ... ^ nu(mk)`` by
    induction on ``k``, and the case ``x = m1`` gives ``nu(y)``; the top
    needs ``nu(x) ^ nu(top) = nu(x)``, which holds as ``nu(top)`` is the
    top, the least member above it.  Pairs ``(a, a)`` hold outright.  That
    is ``p`` scans of ``n |M|`` pairs per host, where every pair costs
    ``n^2 / 2``, and no exact-pair table.
    """
    split = sl.meets_split_primes()
    fw = sl.ambient
    lat = fw.lattice
    meet_irr = lat.irreducibles[1]
    pairs = [lat.full_mask if meet_irr >> a & 1 else meet_irr for a in range(lat.n)]
    points_exact = all(is_exact_sublocale(fw, sl.elems[i], pairs=pairs)
                       for i in bits(point_sublocales(sl)))
    if split != points_exact:
        raise InternalInconsistency("exactness criteria disagree")
    if not split:
        raise InternalInconsistency("the primes above a meet are not those above either element")
    return (1 << sl.size) - 1


# ---------------------------------------------------------------------------
# the fitting adjunction


def fit_image(sl: SublocaleCoframe, sl_o: SublocaleCoframe, members: int) -> int:
    """Fittings of the members of ``sl``, as a bitmask over its fitted host
    ``sl_o``."""
    fit_of = sl_o.fit_of
    return mask_of([fit_of[i] for i in bits(members)])


def leq_f(sl_o: SublocaleCoframe, members: int, f: int) -> tuple[int, ...]:
    """The relation ``x R y`` iff meeting ``f`` with the open of ``x`` inside
    the subcolocale lands below the open of ``y``: row ``x`` is the up-set
    of its :func:`least_related` entry."""
    up = sl_o.ambient.lattice.up
    return tuple(up[row[0]] for row in least_related(sl_o, members, 1 << f))


def least_related(sl_o: SublocaleCoframe, members: int, fs: int) -> list[list[int]]:
    """For each frame element ``x``, the list over the members ``f`` in the
    mask ``fs``, in index order, of the least ``y`` with ``x`` related to
    ``y`` by :func:`leq_f`: the element whose open is the conucleus of ``f
    ^ open(x)`` (:attr:`SublocaleCoframe.element_of`), the meet read off
    the prime sets as ``points[f] & points[open(x)]``."""
    pts, pos, back = sl_o.points, sl_o.point_index, sl_o.element_of
    con = conuclei(sl_o, members)
    trims = [pts[f] for f in bits(fs)]
    return [[back[con[pos[q & t]]] for t in trims] for q in map(pts.__getitem__, sl_o.open_index)]


@_memoised("proper")
def is_proper(sl_o: SublocaleCoframe, members: int) -> bool:
    """Contains every open, and joins of opens are exact in the subcolocale.

    Cross-checked against the precongruence criterion: every member's
    induced relation (:func:`leq_f`) must be a precongruence of the ambient
    frame.  Row ``x`` of that relation, the ``y`` whose open is above ``c``,
    the conucleus of ``f ^ open(x)``, is the up-set of ``g(x) =
    element_of[c]`` (:attr:`SublocaleCoframe.element_of`), so the relation
    is decided on ``g``.  :func:`least_related` lists ``g(x)`` for every
    member at once, and
    :func:`~subloc.sublocales.are_principal_precongruences` decides all the
    members in one pass: clauses (i) and (ii) per entry, and clause (iii)
    on the rows, joined elementwise, in one ``n |J|`` check.  The rows are
    built after :func:`_open_joins_exact` has dropped its own, so the two
    sides never hold ``n |members|`` entries each at once.
    """
    opens = mask_of(sl_o.open_index)
    if opens & ~members:
        return False
    exact = _open_joins_exact(sl_o, members)
    via_precongruence = are_principal_precongruences(sl_o.ambient,
                                                     least_related(sl_o, members, members))
    if exact != via_precongruence:
        raise InternalInconsistency("properness criteria disagree")
    return exact


def _open_joins_exact(sl_o: SublocaleCoframe, members: int) -> bool:
    """Whether trimming the join of each family of opens by each member ``g``
    and taking the conucleus gives the join of the trimmed opens' conuclei.

    The families are the empty one and the pairs, as for every family
    quantifier (:attr:`FrameWitness.exact_pairs`).  The empty family holds
    outright: the empty join is the bottom, whose conucleus (the join of
    the members below it) is the bottom again.  For the pairs, let ``t(x)``
    be the row of the trimmed opens' conuclei, ``con(open(x) ^ g)`` for
    each member ``g``, as prime sets, where meet is ``&`` and join is
    ``|``.  ``open`` keeps binary joins on a frame, so the join of the opens
    of ``x`` and ``y`` is ``open(x v y)``, and the pairs ask ``t(x v y) =
    t(x) | t(y)``, elementwise.  Both are decided on the pairs ``(x, j)``
    with ``j`` join-irreducible (:func:`~subloc.lattice.join_violations`),
    ``n |J|`` rows where the pairs of opens cost ``n^2 / 2``; a failure of
    the first raises :class:`InternalInconsistency`.
    """
    lat = sl_o.ambient.lattice
    join, irr = lat.join_table, lat.irreducibles[0]
    pts, pos = sl_o.points, sl_o.point_index
    opens = [pts[o] for o in sl_o.open_index]
    if any(join_violations(join, irr, opens, union)):
        raise InternalInconsistency("open does not keep a binary join")
    con = [pts[c] for c in conuclei(sl_o, members)]
    gs = [pts[g] for g in bits(members)]
    trimmed = [[con[pos[q & g]] for g in gs] for q in opens]
    return not any(join_violations(join, irr, trimmed,
                                   lambda a: lambda b: list(map(or_, a, b))))


@_memoised("sigma", owner=1, keyed=2)
def sigma(sl: SublocaleCoframe, sl_o: SublocaleCoframe, members: int, f: int) -> int:
    """The canonical sublocale realizing the fitted member ``f``.

    It is the intersection of the closed-join-open sublocales
    ``closed(x) v open(y)`` over the pairs ``x R y`` of the induced
    relation, computed at one join per ``x`` as

        ``s = meet over x of closed(x) v open(big_meet(rel[x]))``.

    Proof: ``S(L)`` is a coframe, so ``c v meet(B) = meet(c v b for b in
    B)`` for every family ``B``, the empty one included (both sides are
    the top).  And ``open`` preserves finite meets, the empty meet
    included (``open(top)`` is the top), so ``meet(open(y) for y in
    rel[x]) = open(big_meet(rel[x]))``.  Hence, for each ``x``, the meet
    over ``y`` of ``closed(x) v open(y)`` is ``closed(x) v
    open(big_meet(rel[x]))``.  Row ``x`` of the relation is the up-set of
    the element whose open is ``c``, the conucleus of ``f ^ open(x)``
    (:func:`leq_f`), so its meet is the host's ``element_of[c]``, a
    lookup.  Meets and joins in ``S(L)`` are ``&`` and ``|`` of prime sets.
    ``tests/oracles.py::scan_sigma`` keeps the meet over every pair.

    The result is validated against the meet identity
    ``fit(sigma(f) ^ open(x)) = f ^ open(x)`` pointwise; a failure raises
    :class:`NotProper`, so improper inputs are loud.
    """
    if not (members >> f) & 1:
        raise ValueError("f is not a member of the subcolocale")
    con, q, pos_o = conuclei(sl_o, members), sl_o.points[f], sl_o.point_index
    cons = [con[pos_o[q & p]] for p in map(sl_o.points.__getitem__, sl_o.open_index)]
    least = sl_o.element_of
    pts, pos = sl.points, sl.point_index
    opens = [pts[o] for o in sl.open_index]
    s = sl.all_primes
    for x, c in enumerate(cons):
        s &= pts[sl.closed_index[x]] | opens[least[c]]
    for x, c in enumerate(cons):
        if sl_o.fit_of[pos[s & opens[x]]] != c:
            raise NotProper(f"meet identity fails at element {x}: "
                            f"the collection is not proper")
    return pos[s]


@_memoised("delta", owner=1)
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
    con = conuclei(sl, members)
    return mask_of(con[i] for i, f in enumerate(sl.fit_index) if f == i)


@_memoised("essential")
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
