"""Frame maps, the two enriched structures, and lifting checks.

A :class:`RaneyExtension` pairs a frame with a subcolocale of its fitted
coframe containing all opens; a :class:`SZDBF` pairs a frame with a
codense subcolocale of its full sublocale coframe.  ``to_raney`` and
``to_szdbf`` convert between them along the fitting adjunction (the
latter requires the fitted collection to be proper).

The quotient map onto a sublocale reads its nucleus off the prime-set
tables of ``S(L)`` (:meth:`SublocaleCoframe.nucleus`).  The quotient is
``L``'s own nucleus: its meets are ``L``'s, its joins the nucleus of
``L``'s, and its points the sublocale's primes.  So the suite decides the
three checks of every quotient in ``L``'s index space, in one pass over
``S(L)`` that builds no target frame (:func:`quotient_verdicts`).  The
per-quotient path, which builds each target (:func:`surjection_of`) and
checks the map and its lifts on it, is the tests' oracle.

Morphism checks decide whether a frame map lifts to a coframe map between
the chosen subcolocales that extends its action on opens (Raney side) or
on closeds (zero-dimensional side), on tables the frames and hosts
already hold.  Every fitted sublocale of a finite frame is open, so ``x ->
open(x)`` is a lattice isomorphism ``L = S_o(L)``
(:attr:`RaneyExtension.element_of`), and the Raney lift exists iff the
frame map keeps bounds, meets and joins (:func:`raney_lift_check`).  The
one codense subcolocale of ``S(L) = 2^P`` is ``S(L)``, so a
zero-dimensional lift is a map of powersets fixed by the images of the
atoms; it exists iff they partition the target's primes and the map keeps
the closeds (:func:`szdbf_lift_check`), whose witness is built when read
(:class:`LiftVerdict`).  The generic constructions, a subcolocale's
lattice (:func:`subcolocale_lattice`) and the lift fixed by meet-dense
pins (:func:`extend_to_coframe_map`), stay for the tests that hold both
checks to them.  Smoothness of a sublocale (membership in the smallest
codense subcolocale) is equivalent to the zero-dimensional lift existing,
and exactness to the Raney lift existing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .bits import bit, bits, bits_above, mask_of
from .errors import InternalInconsistency, NotProper
from .lattice import FrameWitness, Lattice, intersection, join_violations, table_op
from .sublocales import SublocaleCoframe
from .subcolocales import (Subcolocale, conuclei, delta, fit_image, is_codense,
                           is_essential, is_proper)


@dataclass(frozen=True)
class FrameMap:
    """A bottom/top/meet/join-preserving map between finite frames.

    On finite frames preserving the binary operations and the two bounds
    is the full frame-map condition, since all meets and joins are folds.
    :meth:`of` checks the binary ones against the source's irreducibles
    (:func:`~subloc.lattice.join_violations`).
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
        join_irr, meet_irr = ls.irreducibles
        for name, table, irr, op in (("meet", ls.meet_table, meet_irr, lt.meet_table),
                                     ("join", ls.join_table, join_irr, lt.join_table)):
            for x, y in join_violations(table, irr, mapping, table_op(op)):
                raise ValueError(f"map does not preserve the {name} of {x},{y}")
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


def surjection_of(sl: SublocaleCoframe, i: int) -> FrameMap:
    """The quotient map of the frame onto sublocale ``i``: its nucleus
    (:meth:`SublocaleCoframe.nucleus`) read in local positions.

    A sublocale is closed under the ambient meets and Heyting arrows, so
    the target is the ambient retract by the nucleus, with the ambient
    Heyting rows restricted and the ambient primes it contains as its
    primes (Picado & Pultr, *Frames and Locales*, 2012).
    :meth:`FrameMap.of` validates the map.
    """
    fw, members = sl.ambient, sl.elems[i]
    nu = sl.nucleus(i)
    pos = {e: p for p, e in enumerate(bits(members))}
    hey = fw.heyting_table
    target = FrameWitness(fw.lattice.retract(nu),
                          tuple(tuple(pos[hey[a][b]] for b in pos) for a in pos),
                          mask_of(pos[p] for p in bits(fw.primes & members)))
    return FrameMap.of(fw, target, tuple([pos[v] for v in nu]))


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
    def element_of(self) -> tuple[int, ...]:
        """For each fitted-host index, the frame element whose open it is:
        the host's :attr:`SublocaleCoframe.element_of`, checked on first
        read, once per structure: ``F`` must be the whole fitted host,
        ``open_index`` a bijection onto it, and ``open`` must keep binary
        meets, ``&`` of prime sets, checked against the meet-irreducibles
        (:func:`~subloc.lattice.join_violations`).  Each is a theorem of
        finite frames, so a failure raises :class:`InternalInconsistency`.
        Every fitted sublocale (a meet of opens) is open, as ``open`` keeps
        finite meets (Picado & Pultr, *Frames and Locales*, 2012), and
        ``open`` is one to one; so ``F``, which holds every open, is the
        whole host.  A
        bijection that keeps binary meets is an order isomorphism, ``x <=
        y`` iff ``x = x ^ y``, so ``x -> open(x)`` is a lattice isomorphism
        ``L = F``, and this table is its inverse (:func:`raney_lift_check`).
        """
        host, opens = self.f_sub.host, self.f_sub.host.open_index
        if self.f_sub.members != (1 << host.size) - 1:
            raise InternalInconsistency("a Raney extension of a finite frame is not all of S_o(L)")
        back = host.element_of
        lat = self.frame.lattice
        if any(join_violations(lat.meet_table, lat.irreducibles[1],
                               [host.points[o] for o in opens], intersection)):
            raise InternalInconsistency("open does not keep a binary meet")
        return back


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


Witnesses = tuple[tuple[int, ...], ...]


class LiftVerdict:
    """Outcome of a lift check.

    ``witnesses`` holds the lift, if it exists: the source subcolocale
    members (in increasing host-index order) mapped to target host indices.
    A check may pass a function of no arguments in its place, which builds
    the witness when it is first read: the suites read only ``exists``,
    and a lift's witness can cost far more than its verdict
    (:func:`powerset_lift`).  A lift is determined by its pins, so nothing
    is searched: ``nodes_explored`` is always 0 and ``exhausted`` always
    ``True``.  Verdicts are equal when all four fields are.
    """

    __slots__ = ("exists", "_witnesses", "nodes_explored", "exhausted")

    def __init__(self, exists: bool, witnesses: Witnesses | Callable[[], Witnesses],
                 nodes_explored: int, exhausted: bool):
        self.exists = exists
        self._witnesses = witnesses
        self.nodes_explored = nodes_explored
        self.exhausted = exhausted

    @property
    def witnesses(self) -> Witnesses:
        if callable(self._witnesses):
            self._witnesses = self._witnesses()
        return self._witnesses

    def _fields(self) -> tuple:
        return self.exists, self.witnesses, self.nodes_explored, self.exhausted

    def __eq__(self, other):
        if not isinstance(other, LiftVerdict):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "LiftVerdict(exists={!r}, witnesses={!r}, nodes_explored={!r}, exhausted={!r})" \
            .format(*self._fields())


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
    and meets against its meet-irreducibles, at ``n (|J| + |M|)`` lookups,
    which suffices by the proof of :func:`~subloc.lattice.join_violations`:
    ``dst``'s join and meet are semilattice operations.  No distributivity
    is used, so this holds on any finite lattice;
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
    return not (any(join_violations(src.join_table, join_irr, h, table_op(dst.join_table)))
                or any(join_violations(src.meet_table, meet_irr, h, table_op(dst.meet_table))))


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

    The lift must send the open of ``x`` to the open of ``f(x)``.  On a
    finite frame ``F`` is the whole fitted host and ``open`` a lattice
    isomorphism ``L = F`` (:attr:`RaneyExtension.element_of`, checked once
    per structure).  So the pins are every member of ``F1``, and the only
    candidate is ``h = open2 . f . open1^-1``.  It keeps the bounds and
    binary meets and joins of ``F1`` iff ``f`` keeps those of the frames,
    since ``open1`` and ``open2`` are isomorphisms, and
    :func:`is_coframe_map` decides that on the frames' own tables at
    ``n (|J| + |M|)`` lookups.  The witness is ``open_index2[f(x)]`` for
    the element ``x`` of each index of ``F1``, in host order.
    ``tests/oracles.py::generic_raney_lift`` keeps the generic check,
    :func:`extend_to_coframe_map` on both subcolocale lattices with the
    opens pinned.
    """
    if f.source != r1.frame or f.target != r2.frame:
        raise ValueError("the map's frames must match the structures")
    back, _ = r1.element_of, r2.element_of   # the target's is read for its check
    mp = f.mapping
    if not is_coframe_map(f.source.lattice, f.target.lattice, mp, ()):
        return _NO_LIFT
    opens = r2.f_sub.host.open_index
    return LiftVerdict(True, (tuple([opens[mp[x]] for x in back]),), 0, True)


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
    every closed (:func:`powerset_lift`), and a closed with prime set ``Q``
    needs only the union of the ``A_p`` over ``Q``, at ``O(p)`` per pin:
    neither ``h`` on all of ``2^P1`` nor the witness is built for the
    verdict.  ``tests/oracles.py`` keeps the generic check,
    :func:`extend_to_coframe_map` on both subcolocale lattices with the
    closeds and coatoms pinned.
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
    pins; :func:`szdbf_lift_check` proves it.  Each pin is that union over
    its own ``Q``, ``O(p)`` unions, so the verdict costs ``O(p)`` per pin.
    The witness, ``h`` on every prime set of ``src`` read back through
    ``dst.point_index``, costs ``2^p`` and is built only when read
    (:func:`_powerset_witness`).
    """
    union = 0
    for a in atoms:
        if union & a:
            return _NO_LIFT
        union |= a
    if union != dst.all_primes:
        return _NO_LIFT
    for q, r in pins:
        image = 0
        for j in bits(q):
            image |= atoms[j]
        if image != r:
            return _NO_LIFT
    return LiftVerdict(True, lambda: _powerset_witness(src, dst, atoms), 0, True)


def _powerset_witness(src: SublocaleCoframe, dst: SublocaleCoframe,
                      atoms: Sequence[int]) -> Witnesses:
    """The witness of :func:`powerset_lift`: ``h`` filled by the subset
    recurrence on the highest prime, ``h(Q) = h(Q - {j}) | atoms[j]``, one
    union per prime set, and read back through ``point_index``."""
    image = [0]
    for a in atoms:
        image += [q | a for q in image]
    pos = dst.point_index
    return (tuple([pos[image[q]] for q in src.points]),)


def quotient_verdicts(b: SZDBF) -> Iterator[tuple[bool, bool, bool]]:
    """For each sublocale ``i`` of ``b``'s frame ``L``, in host order, the
    verdicts of :func:`is_exact_map`, :func:`szdbf_lift_check` and
    :func:`raney_lift_check` on the quotient map onto it, decided on
    ``L``'s tables: no target frame, host or structure is built.

    Let ``Q = points[i]``, ``nu = nucleus(i)`` and ``rho(y) = Q &
    above[y]``.  The target ``T`` is ``nu``'s image with ``L``'s top, the
    bottom ``nu(bottom)`` and ``nu`` of ``L``'s meets and joins
    (:meth:`Lattice.retract`).  Its primes are ``Q``, as a prime ``p`` not
    in ``Q`` is not ``nu(p)``, a meet of primes strictly above it; so
    ``T``'s closed and open of ``y`` have the prime sets ``rho(y)`` and
    ``Q - rho(y)``.  Each quotient is checked for (a) ``nu(top) = top``,
    (b) ``rho(nu(x)) = rho(x)`` for every ``x``, ``n`` lookups
    (:meth:`SublocaleCoframe.nucleus` proves it), and (c) ``nu(a ^ b) =
    nu(a) ^ nu(b)`` for every exact pair ``a < b``.

    - *Raney.*  The lift is ``is_coframe_map(L, T, nu, ())``
      (:func:`raney_lift_check`), which the proof of
      :func:`~subloc.lattice.join_violations` decides on the irreducibles.
      Read on ``L``, that is (a) and, for every ``a``, ``nu(a v j) =
      nu(nu(a) v nu(j))`` for each join-irreducible ``j`` and ``nu(a ^ m)
      = nu(nu(a) ^ nu(m))`` for each meet-irreducible ``m``, ``n (|J| +
      |M|)`` lookups: the one validation of the map.  These rows, laid out
      flat for every quotient at once, keep their own loop, as this pass
      decides every sublocale of ``S(L)``.
    - *Zero-dimensional.*  The lift sends the atom ``{p}`` to ``A_p =
      rho(nu(p)) - rho(nu(x_p))``, ``x_p`` as in :attr:`SZDBF.coatom_pins`
      (:func:`szdbf_lift_check`), which is ``Q & above[p] & ~above[x_p]``
      by (b).  ``above[p] & ~above[x_p] = {p}`` on a frame, as ``p < x_p``
      and every prime strictly above ``p`` is above ``x_p``; checked once
      per frame, it makes the ``A_p`` the ``Q & {p}``, a partition of
      ``Q``, and the lift ``R -> R & Q``, which sends the closed
      ``above[x]`` to ``rho(x) = rho(nu(x))``, the closed of ``nu(x)``.
      So the lift exists iff those singletons and (b) hold.
    - *Exact map.*  :func:`is_exact_map` asks (a), (c) and exact image
      pairs.  By (b), ``rho`` is one to one on ``T`` (``nu(x) =
      meet_of[rho(x)] = meet_of[rho(nu(x))]``) and sends ``T``'s join
      ``nu(y v z)`` to ``rho(y) & rho(z)``, a prime being above ``y v z``
      iff above both.  It sends ``y ^ z`` to ``rho(y) | rho(z)``
      (:meth:`SublocaleCoframe.meets_split_primes`, which ``se`` checks
      per host), so ``y ^ z = meet_of[rho(y) | rho(z)]`` is in ``T`` and
      is ``T``'s meet.  So ``T`` is a ring of sets on ``Q``, distributive,
      and each of its pairs is exact.

    All of these hold on a frame, so every verdict is true;
    ``tests/test_correspondence.py`` holds them to the per-quotient path.
    """
    sl, fw = b.d_sub.host, b.frame
    if b.d_sub.members != (1 << sl.size) - 1:
        raise InternalInconsistency("a codense subcolocale of S(L) is not all of S(L)")
    lat = fw.lattice
    meet, join, top = lat.meet_table, lat.join_table, lat.top
    above = sl._prime_tables[3]
    # the rows of is_coframe_map's induction and the exact pairs a < b, each
    # with its left side's lookups laid out flat
    irr = [(op, y) for op, m in zip((join, meet), lat.irreducibles) for y in bits(m)]
    irr_flat = [x for op, y in irr for x in op[y]]
    exact = fw.exact_pairs[0]
    pairs = [tuple(bits_above(exact[a], a)) for a in range(lat.n)]
    pairs_flat = [meet[a][x] for a, bs in enumerate(pairs) for x in bs]
    points = [above[p] & ~above[xp] for xp, p in b.coatom_pins]
    singletons = points == [1 << j for j in range(len(points))]
    for i, q in enumerate(sl.points):
        nu = sl.nucleus(i)
        kept = nu[top] == top
        identity = [q & above[v] for v in nu] == [q & r for r in above]
        exact_map = kept and identity and [nu[x] for x in pairs_flat] == \
            [meet[v][nu[x]] for v, bs in zip(nu, pairs) for x in bs]
        raney = kept and [nu[x] for x in irr_flat] == \
            [nu[r[v]] for r in [op[nu[y]] for op, y in irr] for v in nu]
        yield exact_map, singletons and identity, raney


# ---------------------------------------------------------------------------
# the down-set frame


def _right_adjoint(lat: Lattice, masks: Sequence[int], eps: Sequence[int]) -> list[int]:
    """``r(a)``, the union of the down-sets that ``eps`` sends below ``a``."""
    r = [0] * lat.n
    for m, e in zip(masks, eps):
        for a in bits(lat.up[e]):
            r[a] |= m
    return r


def downset_join_map_violations(fw: FrameWitness, masks: Sequence[int],
                                eps: Sequence[int]) -> list:
    """Why ``eps``, a map into ``L`` of its down-sets ``masks`` (listed by
    :func:`~subloc.corpus.downset_masks`, ``{}`` first and ``L`` last), is
    not an exact frame surjection whose right adjoint's image is the
    principal down-sets.  Read on the masks at ``n |D|`` lookups.

    ``D(L)`` is a ring of sets (Birkhoff, "Rings of sets", 1937) whose
    join-irreducibles are the ``dn[x]`` and meet-irreducibles the ``L -
    up[x]``, so by the proof of :func:`~subloc.lattice.join_violations`
    ``eps`` is a frame map iff it keeps the bounds, each join with a
    ``dn[x]`` and each meet with an ``L - up[x]``; ``D(L)`` is held as
    masks, not as a :class:`Lattice`, so the loop is written here.  The
    image of its right adjoint ``r`` is a sublocale iff ``k = r . eps`` is
    a nucleus: ``D <= k(D) = k(k(D))``, and ``k`` keeps each meet with a
    meet-irreducible ``M``, by the same induction; as ``eps`` keeps meets,
    that is ``r(a ^ eps(M)) = r(a) & r(eps(M))`` on its image.  A failure
    there raises :class:`InternalInconsistency`.  All pairs of a ring of
    sets are exact, so :func:`is_exact_map` asks only for exact image
    pairs (:attr:`FrameWitness.exact_pairs`).
    ``tests/oracles.py::table_downset_join_map`` builds ``D(L)``'s tables.
    """
    lat = fw.lattice
    meet, join = lat.meet_table, lat.join_table
    eps_of = dict(zip(masks, eps))
    co_up = [lat.full_mask & ~u for u in lat.up]
    irr = [(j, eps_of[j], m, eps_of[m]) for j, m in zip(lat.dn, co_up)]
    if eps[0] != lat.bottom or eps[-1] != lat.top or any(
            eps_of[d | j] != join[e][ej] or eps_of[d & m] != meet[e][em]
            for d, e in zip(masks, eps) for j, ej, m, em in irr):
        return ["downset join map not a frame map"]
    r, image = _right_adjoint(lat, masks, eps), mask_of(eps)
    if any(d & ~r[e] for d, e in zip(masks, eps)) or any(
            r[eps_of[r[a]]] != r[a] or any(r[meet[a][em]] != r[a] & r[em] for *_, em in irr)
            for a in bits(image)):
        raise InternalInconsistency("r . eps is not a nucleus: the right adjoint's "
                                    "image is not a sublocale")
    index = {m: d for d, m in enumerate(masks)}
    induced, expect = mask_of(index[m] for m in r), mask_of(index[m] for m in lat.dn)
    exact, bad = fw.exact_pairs[0], []
    if induced != expect:
        bad.append({"induced": sorted(bits(induced)), "principal": sorted(bits(expect))})
    if any(image & ~exact[a] for a in bits(image)):
        bad.append("downset join map not exact")
    if image != lat.full_mask:
        bad.append("downset join map not surjective")
    return bad
