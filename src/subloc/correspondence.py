"""Frame maps, the two enriched structures, and lifting checks.

A :class:`RaneyExtension` pairs a frame with a subcolocale of its fitted
coframe containing all opens; a :class:`SZDBF` pairs a frame with a
codense subcolocale of its full sublocale coframe.  ``to_raney`` and
``to_szdbf`` convert between them along the fitting adjunction (the
latter requires the fitted collection to be proper).

The quotient map onto a sublocale reads its nucleus off the prime-set
tables of ``S(L)`` (:meth:`SublocaleCoframe.nucleus`).  Its target is
fixed by the sublocale's order (:func:`quotient_order`), so the target is
built once per order (:func:`surjection_of`) and every other quotient of
that order maps onto it (:func:`quotient_map`).

Morphism checks decide whether a frame map lifts to a coframe map between
the chosen subcolocales that extends its action on opens (Raney side) or on
closeds (zero-dimensional side).  On the Raney side the pins are
meet-dense, so they hold every meet-irreducible, and a lift is the meet of
the pinned values of the meet-irreducibles above each element.  One
:func:`is_coframe_map` check decides it, against the join- and
meet-irreducibles only, which each ``Lattice`` keeps once read.  The chosen
fitted subcolocale is its host's retract by its conucleus
(``subcolocale_lattice``), built once per structure: each Raney extension
keeps that lattice, and the position in it of every open (its lift
pins), in properties filled on first read.  On the
zero-dimensional side the one codense subcolocale of ``S(L) = 2^P`` is
``S(L)`` itself, so a lift is a map of powersets, fixed by the images of
the atoms.  It exists iff those images partition the target's primes and
the map keeps the closeds (:func:`szdbf_lift_check`), and no lattice is
built.  Smoothness of a sublocale (membership in the smallest codense
subcolocale) is equivalent to the zero-dimensional lift existing, and
exactness to the Raney lift existing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .bits import bit, bits, bits_above, mask_of
from .config import DEFAULT_LIMITS, Limits
from .corpus import downset_masks, inclusion_lattice
from .errors import InternalInconsistency, NotProper
from .lattice import FrameWitness, Lattice
from .sublocales import SublocaleCoframe, is_sublocale
from .subcolocales import (Subcolocale, conuclei, delta, fit_image, is_codense,
                           is_essential, is_proper)


@dataclass(frozen=True)
class FrameMap:
    """A bottom/top/meet/join-preserving map between finite frames.

    On finite frames preserving the binary operations and the two bounds
    is the full frame-map condition, since all meets and joins are folds.
    """

    source: FrameWitness
    target: FrameWitness
    mapping: tuple[int, ...]

    @classmethod
    def of(cls, source: FrameWitness, target: FrameWitness,
           mapping: Sequence[int]) -> "FrameMap":
        mapping = tuple(mapping)
        ls, lt = source.lattice, target.lattice
        if len(mapping) != ls.n or any(not 0 <= v < lt.n for v in mapping):
            raise ValueError("mapping is not a function into the target")
        if mapping[ls.bottom] != lt.bottom:
            raise ValueError("map does not preserve the bottom")
        if mapping[ls.top] != lt.top:
            raise ValueError("map does not preserve the top")
        for x in range(ls.n):
            for y in range(x, ls.n):
                if mapping[ls.meet_table[x][y]] != lt.meet_table[mapping[x]][mapping[y]]:
                    raise ValueError(f"map does not preserve the meet of {x},{y}")
                if mapping[ls.join_table[x][y]] != lt.join_table[mapping[x]][mapping[y]]:
                    raise ValueError(f"map does not preserve the join of {x},{y}")
        return cls(source, target, mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def right_adjoint(self, m: int) -> int:
        """Largest source element mapping below ``m``."""
        lt = self.target.lattice
        return self.source.lattice.big_join(
            mask_of(x for x, v in enumerate(self.mapping) if lt.leq(v, m)))


def is_exact_map(f: FrameMap) -> bool:
    """Whether the map sends exact meets to exact meets, preserving them.

    The families are the empty one, which needs the top kept, and the
    pairs, whose exactness both frames table (:attr:`FrameWitness.exact_pairs`).
    A singleton ``{a}`` holds outright, its image ``{f(a)}`` being exact
    with meet ``f(a)``, so the exact pairs ``a < b`` decide; an image
    ``{f(a), f(b)}`` may be a singleton, which the table also answers.
    """
    ls, lt = f.source.lattice, f.target.lattice
    mp = f.mapping
    if mp[ls.top] != lt.top:
        return False
    exact, img_exact = f.source.exact_pairs[0], f.target.exact_pairs[0]
    tmeet = lt.meet_table
    for a in range(ls.n):
        row, fa = ls.meet_table[a], mp[a]
        for b in bits_above(exact[a], a):
            fb = mp[b]
            if mp[row[b]] != tmeet[fa][fb] or not (img_exact[fa] >> fb) & 1:
                return False
    return True


def quotient_order(sl: SublocaleCoframe, i: int) -> tuple[int, ...]:
    """The order of sublocale ``i``: the ambient up-rows of its members,
    restricted to them and compressed to local positions (the ``p``-th
    member in element order is ``p``).

    It is the ``up`` of the target lattice that :func:`surjection_of`
    builds, and it fixes the whole target witness: the retract's meet and
    join tables are those of the order, its Heyting rows are the
    sublocale's own arrow (the ambient arrows it is closed under), and its
    primes are its own.  So quotients of equal order have equal targets,
    and one target serves them all (:func:`quotient_map`).
    """
    members = sl.elems[i]
    up = sl.ambient.lattice.up
    elems = tuple(bits(members))
    order = []
    for e in elems:
        row, local, b = up[e] & members, 0, 1
        for x in elems:
            if row >> x & 1:
                local |= b
            b <<= 1
        order.append(local)
    return tuple(order)


def quotient_map(sl: SublocaleCoframe, i: int,
                 target: FrameWitness | None = None) -> FrameMap:
    """The quotient map of the frame onto sublocale ``i``: its nucleus
    (:meth:`SublocaleCoframe.nucleus`) read in local positions.

    With no ``target`` the target is built: a sublocale is closed under
    the ambient meets and Heyting arrows, so it is the ambient retract by
    the nucleus, with the ambient Heyting rows restricted and the ambient
    primes it contains as its primes (Picado & Pultr, *Frames and
    Locales*, 2012).  A ``target`` given is one built for a sublocale of
    the same :func:`quotient_order`, hence equal to the one built here.
    :meth:`FrameMap.of` validates the map either way.
    """
    fw, members = sl.ambient, sl.elems[i]
    nu = sl.nucleus(i)
    pos = {e: p for p, e in enumerate(bits(members))}
    if target is None:
        hey = fw.heyting_table
        target = FrameWitness(fw.lattice.retract(nu),
                              tuple(tuple(pos[hey[a][b]] for b in pos) for a in pos),
                              mask_of(pos[p] for p in bits(fw.primes & members)))
    return FrameMap.of(fw, target, tuple([pos[v] for v in nu]))


def surjection_of(sl: SublocaleCoframe, i: int) -> FrameMap:
    """The quotient map of the frame onto sublocale ``i``, its target built
    (:func:`quotient_map`)."""
    return quotient_map(sl, i)


# ---------------------------------------------------------------------------
# structures


class RaneyExtension:
    """A frame plus a subcolocale of its fitted coframe containing all opens."""

    def __init__(self, frame: FrameWitness, f_sub: Subcolocale):
        host = f_sub.host
        if not host.fitted or host.ambient != frame:
            raise ValueError("the subcolocale must live on the frame's fitted coframe")
        if mask_of(host.open_index) & ~f_sub.members:
            raise ValueError("a Raney extension must contain every open")
        self.frame = frame
        self.f_sub = f_sub

    @cached_property
    def proper(self) -> bool:
        """Whether the fitted collection is proper, tested on first read."""
        return is_proper(self.f_sub.host, self.f_sub.members)

    @cached_property
    def lattice(self) -> tuple[Lattice, tuple[int, ...]]:
        """The fitted collection as an abstract lattice plus its host indices,
        built on first read, so that every lift check from or into the
        extension reuses it."""
        return subcolocale_lattice(self.f_sub.host, self.f_sub.members)

    @cached_property
    def open_pos(self) -> tuple[int, ...]:
        """For each frame element, the position of its open in
        :attr:`lattice`, kept on first read beside it: the pins of every
        Raney lift from or into the extension (:func:`raney_lift_check`)."""
        pos = {e: p for p, e in enumerate(self.lattice[1])}
        return tuple(pos[o] for o in self.f_sub.host.open_index)


class SZDBF:
    """A frame plus a codense subcolocale of its full sublocale coframe."""

    def __init__(self, frame: FrameWitness, d_sub: Subcolocale):
        host = d_sub.host
        if host.fitted or host.ambient != frame:
            raise ValueError("the subcolocale must live on the frame's full sublocale coframe")
        if not is_codense(host, d_sub.members):
            raise ValueError("the subcolocale must be codense (contain the whole frame)")
        self.frame = frame
        self.d_sub = d_sub

    def is_essential(self) -> bool:
        return is_essential(self.d_sub.host, self.d_sub.members)

    @cached_property
    def coatom_pins(self) -> tuple[tuple[int, int], ...]:
        """For each prime ``p``, the pair ``(x_p, p)`` with ``x_p`` the meet
        of the primes strictly above ``p``: ``closed(x_p) v open(p)`` is the
        coatom ``P - {p}`` (:func:`szdbf_lift_check`).  Kept on first read,
        since every lift out of the structure reads the same pairs."""
        lat, primes = self.frame.lattice, self.frame.primes
        return tuple((lat.big_meet(lat.up[p] & primes & ~bit(p)), p) for p in bits(primes))

    @cached_property
    def closed_points(self) -> tuple[int, ...]:
        """The prime set of the closed sublocale of each frame element, kept
        on first read like :attr:`coatom_pins`."""
        host = self.d_sub.host
        return tuple(host.points[c] for c in host.closed_index)


def to_raney(b: SZDBF) -> RaneyExtension:
    """Push a codense subcolocale down to its fitted image."""
    sl = b.d_sub.host
    sl_o = sl.fitted_subcoframe()
    members = fit_image(sl, sl_o, b.d_sub.members)
    return RaneyExtension(b.frame, Subcolocale(sl_o, members))


def to_szdbf(r: RaneyExtension) -> SZDBF:
    """Expand a proper fitted collection to the codense subcolocale it generates."""
    if not r.proper:
        raise NotProper("only proper collections expand to a codense subcolocale")
    sl_o = r.f_sub.host
    sl = sl_o.parent
    if sl is None:
        raise ValueError("the fitted host does not know its full sublocale coframe")
    members = delta(sl, sl_o, r.f_sub.members)
    return SZDBF(r.frame, Subcolocale(sl, members))


# ---------------------------------------------------------------------------
# lifts


@dataclass(frozen=True)
class LiftVerdict:
    """Outcome of a lift check.

    ``witnesses`` holds the lift, if it exists: the source subcolocale
    members (in increasing host-index order) mapped to target host indices.
    A lift is determined by its pins, so nothing is searched:
    ``nodes_explored`` is always 0 and ``exhausted`` always ``True``.
    """

    exists: bool
    witnesses: tuple[tuple[int, ...], ...]
    nodes_explored: int
    exhausted: bool


_NO_LIFT = LiftVerdict(False, (), 0, True)


def subcolocale_lattice(host: SublocaleCoframe, members: int) -> tuple[Lattice, tuple[int, ...]]:
    """A subcolocale as a lattice, the host's retract by the conucleus, plus its
    host indices."""
    return host.as_lattice.retract(conuclei(host, members)), tuple(bits(members))


def is_coframe_map(src: Lattice, dst: Lattice, h: Sequence[int],
                   pins: Iterable[tuple[int, int]]) -> bool:
    """Whether ``h`` is a map ``src -> dst`` keeping the bounds, the pins
    ``(s, t)`` and every binary meet and join (hence all finite ones).

    Joins are checked against the join-irreducibles ``j`` of ``src`` only,
    and meets against its meet-irreducibles, at ``n (|J| + |M|)`` lookups.
    That suffices.  Every ``b`` is a join ``j1 v ... v jk`` of
    join-irreducibles, the bottom being the empty one.  If
    ``h(a v j) = h(a) v h(j)`` for every ``a`` and ``j``, then
    ``h(a v b) = h(a) v h(b)`` by induction on ``k``: ``k = 0`` is
    ``h(bottom) = bottom``, and with ``b' = j1 v ... v j(k-1)``,
    ``h(a v b' v jk) = h(a v b') v h(jk) = h(a) v h(b') v h(jk)``, where
    ``h(b') v h(jk) = h(b' v jk)`` is the case ``a = b'``.  Meets are dual.
    No distributivity is used, so this holds on any finite lattice;
    ``tests/oracles.py::scan_coframe_map`` checks every pair.  Every left
    argument ``a`` is needed: on ``2^4``, whose rank-2 elements are neither
    join- nor meet-irreducible, a map into a non-distributive target can
    keep every join and meet with an irreducible ``a`` and still break
    one with a rank-2 ``a``
    (``test_coframe_map_check_needs_every_left_argument``).
    """
    if len(h) != src.n or min(h) < 0 or max(h) >= dst.n:
        return False
    if h[src.top] != dst.top or h[src.bottom] != dst.bottom:
        return False
    if any(h[s] != t for s, t in pins):
        return False
    join_irr, meet_irr = src.irreducibles
    hj = [(j, h[j]) for j in bits(join_irr)]
    hm = [(m, h[m]) for m in bits(meet_irr)]
    for a in range(src.n):
        ma, ja = dst.meet_table[h[a]], dst.join_table[h[a]]
        smeet, sjoin = src.meet_table[a], src.join_table[a]
        for j, v in hj:
            if h[sjoin[j]] != ja[v]:
                return False
        for m, v in hm:
            if h[smeet[m]] != ma[v]:
                return False
    return True


def extend_to_coframe_map(src: Lattice, dst: Lattice,
                          pins: Iterable[tuple[int, int]]) -> LiftVerdict:
    """The map ``src -> dst`` preserving all (finite) meets and joins that
    sends each pinned ``s`` to ``t``, if there is one.

    The pinned sources must be meet-dense: each ``g`` is the meet of the
    pinned ``s >= g``.  In a finite lattice that holds iff every
    meet-irreducible ``m`` is pinned: every element is the meet of the
    meet-irreducibles above it, and the elements strictly above ``m`` meet
    to its one upper cover, not to ``m``.  ``ValueError`` otherwise.  A map
    keeping the top and binary meets keeps those meets, so one keeping the
    pins sends ``g`` to the meet of the pinned targets of the
    meet-irreducibles above ``g``.  That map is the only candidate, and
    :func:`is_coframe_map` decides it.
    """
    pins = tuple(pins)
    target = dict(pins)
    meet_irr = src.irreducibles[1]
    if meet_irr & ~mask_of(target):
        raise ValueError("pins are not meet-dense")
    rows = [(m, dst.meet_table[target[m]]) for m in bits(meet_irr)]
    h = []
    for g in range(src.n):
        above, acc = src.up[g], dst.top
        for m, t_meet in rows:
            if above >> m & 1:
                acc = t_meet[acc]
        h.append(acc)
    ok = is_coframe_map(src, dst, h, pins)
    return LiftVerdict(ok, (tuple(h),) if ok else (), 0, True)


def raney_lift_check(f: FrameMap, r1: RaneyExtension, r2: RaneyExtension) -> LiftVerdict:
    """Does ``f`` lift to a coframe map of the chosen fitted collections?

    The lift must send the open of ``x`` to the open of ``f(x)``.  Those
    pins are meet-dense: a fitted sublocale ``g`` is the host meet of the
    opens above it, ``F`` holds every open, and ``F``'s meet is the
    conucleus of the host's, which fixes ``g``.  Witness values are target
    host indices.
    """
    if f.source != r1.frame or f.target != r2.frame:
        raise ValueError("the map's frames must match the structures")
    src_lat, _ = r1.lattice
    dst_lat, dst_idxs = r2.lattice
    dst_open = r2.open_pos
    verdict = extend_to_coframe_map(src_lat, dst_lat,
                                    zip(r1.open_pos, [dst_open[v] for v in f.mapping]))
    return replace(verdict, witnesses=tuple(tuple(dst_idxs[v] for v in w)
                                            for w in verdict.witnesses))


def szdbf_lift_check(f: FrameMap, b1: SZDBF, b2: SZDBF) -> LiftVerdict:
    """Does ``f`` lift to a coframe map of the chosen codense subcolocales?

    The lift must send the closed of ``x`` to the closed of ``f(x)``.  The
    subcolocales of ``S(L) = 2^P`` are the down-sets ``{Q : Q <= R}``, and
    a codense one holds the top ``P``, so it is all of ``S(L)``; a ``D``
    that is not raises :class:`InternalInconsistency`.  A lift is thus a
    map ``h: 2^P1 -> 2^P2`` keeping the bounds, unions and intersections.

    For a prime ``p`` with ``x_p`` the meet of the primes strictly above
    it, ``closed(x_p) v open(p)`` is the coatom ``P - {p}``: a prime not
    above ``p`` is in the open, one strictly above is in the closed, and
    ``p < x_p`` since a prime is meet irreducible.  A lattice map keeping
    closeds keeps their complements, the opens, so every lift sends that
    coatom to ``C_p = closed(f x_p) v open(f p)``, and the atom ``{p}``,
    its complement, to ``A_p = P2 - C_p``.  The atoms are pairwise disjoint
    with union ``P1``, so a lift's ``A_p`` are pairwise disjoint (``h``
    keeps the empty set) with union ``P2`` (``h`` keeps the top), and
    ``h(Q)`` is the union of the ``A_p`` for ``p`` in ``Q``, since ``Q``
    is the union of its atoms.  Conversely, when the ``A_p`` partition
    ``P2`` that union is ``g^-1(Q)`` for the ``g: P2 -> P1`` sending each
    target prime to the ``p`` whose ``A_p`` holds it, which keeps bounds,
    unions and intersections, and sends ``P1 - {p}`` to ``P2 - A_p = C_p``
    (Davey & Priestley, *Introduction to Lattices and Order*, 2002, ch. 5).
    So the lift exists iff the ``A_p`` partition ``P2`` and ``h`` keeps
    every closed (:func:`powerset_lift`).  ``tests/oracles.py`` keeps the
    generic check, :func:`extend_to_coframe_map` on both subcolocale
    lattices with the closeds and coatoms pinned.
    """
    if f.source != b1.frame or f.target != b2.frame:
        raise ValueError("the map's frames must match the structures")
    for b in (b1, b2):
        if b.d_sub.members != (1 << b.d_sub.host.size) - 1:
            raise InternalInconsistency("a codense subcolocale of S(L) is not all of S(L)")
    h2, mp = b2.d_sub.host, f.mapping
    pts, opens, closeds = h2.points, h2.open_index, b2.closed_points
    atoms = [h2.all_primes & ~(closeds[mp[xp]] | pts[opens[mp[p]]])
             for xp, p in b1.coatom_pins]
    return powerset_lift(b1.d_sub.host, h2, atoms,
                         zip(b1.closed_points, (closeds[v] for v in mp)))


def powerset_lift(src: SublocaleCoframe, dst: SublocaleCoframe, atoms: Sequence[int],
                  pins: Iterable[tuple[int, int]]) -> LiftVerdict:
    """The lattice map from the full host ``src`` to the full host ``dst``
    that sends the ``j``-th atom to the prime set ``atoms[j]`` and each
    pinned prime set ``Q`` of ``pins`` to its ``R``, if there is one.

    It exists iff the ``atoms`` partition the target's primes and the map
    ``h(Q)``, the union of the ``atoms[j]`` for ``j`` in ``Q``, keeps the
    pins; :func:`szdbf_lift_check` proves it.  ``h`` is filled by the
    subset recurrence on the highest prime, ``h(Q) = h(Q - {j}) | atoms[j]``,
    one union per prime set, and the witness reads it back through
    ``point_index``.
    """
    union = 0
    for a in atoms:
        if union & a:
            return _NO_LIFT
        union |= a
    if union != dst.all_primes:
        return _NO_LIFT
    image = [0]
    for a in atoms:
        image += [q | a for q in image]
    if any(image[q] != r for q, r in pins):
        return _NO_LIFT
    pos = dst.point_index
    return LiftVerdict(True, (tuple([pos[image[q]] for q in src.points]),), 0, True)


# ---------------------------------------------------------------------------
# the down-set frame


def downset_frame(fw: FrameWitness, limits: Limits = DEFAULT_LIMITS
                  ) -> tuple[FrameWitness, FrameMap, tuple[int, ...]]:
    """The frame of down-sets of the underlying order, with the join map and
    the down-sets themselves, as masks of frame elements in the order of
    the down-set frame's elements (:func:`~subloc.corpus.downset_masks`).

    The map sends a down-set to its join; it is a surjective frame map
    whose right adjoint picks out principal down-sets.
    """
    masks = downset_masks(fw.lattice.up, limits)
    dl = FrameWitness.of(inclusion_lattice(masks))
    eps = FrameMap.of(dl, fw, tuple(fw.lattice.big_join(m) for m in masks))
    return dl, eps, masks


def right_adjoint_image(f: FrameMap) -> int:
    """The sublocale of the source induced by a frame map: the image of its
    right adjoint, as a bitmask of source elements."""
    out = mask_of(f.right_adjoint(a) for a in range(f.target.lattice.n))
    if not is_sublocale(f.source, out):
        raise InternalInconsistency("right adjoint image is not a sublocale")
    return out
