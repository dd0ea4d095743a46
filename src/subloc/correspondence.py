"""Frame maps, the two enriched structures, and lifting checks.

A :class:`RaneyExtension` pairs a frame with a subcolocale of its fitted
coframe containing all opens; a :class:`SZDBF` pairs a frame with a
codense subcolocale of its full sublocale coframe.  ``to_raney`` and
``to_szdbf`` convert between them along the fitting adjunction (the
latter requires the fitted collection to be proper).

Morphism checks decide whether a frame map lifts to a coframe map between
the chosen subcolocales that extends its action on opens (Raney side) or on
closeds, and so on the coatoms of ``S(L)`` (zero-dimensional side).  Those
pins are meet-dense, so a lift is the meet of the pinned values above each
element, and one :func:`is_coframe_map` check decides it.  A chosen
subcolocale is its host's retract by its conucleus (``subcolocale_lattice``),
built once per structure: each structure keeps that lattice in a field
filled on first use.  Smoothness of a sublocale (membership in the smallest codense
subcolocale) is equivalent to the zero-dimensional lift existing, and
exactness to the Raney lift existing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .bits import bit, bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .corpus import downset_masks, gen_downsets_of_poset
from .errors import InternalInconsistency, NotProper
from .lattice import FrameWitness, Lattice
from .sublocales import SublocaleCoframe, is_sublocale, nucleus_element
from .subcolocales import (Subcolocale, conucleus, delta, fit_image, is_codense,
                           is_essential, is_proper, sb)


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


def is_exact_map(f: FrameMap, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Whether the map sends exact meets to exact meets, preserving them.

    The families are those of the source frame's family table; the
    target's table answers exactness of their images.
    """
    src = f.source.family_table(limits)
    dst = f.target.family_table(limits)
    mp = f.mapping
    tmeet = f.target.lattice.meet_table
    # value of a family: (its image as a target mask, the meet of that image)
    folds = src.fold((0, f.target.lattice.top),
                     lambda v, x: (v[0] | bit(mp[x]), tmeet[v[1]][mp[x]]))
    for fam, (img, img_meet) in folds:
        if src.exact[fam] and (mp[src.meet[fam]] != img_meet or not dst.is_exact(img)):
            return False
    return True


def surjection_of(sl: SublocaleCoframe, i: int) -> FrameMap:
    """The quotient map of the frame onto sublocale ``i`` (the nucleus).

    A sublocale is closed under the ambient meets and Heyting arrows, so
    the target is the ambient retract by the nucleus, with the ambient
    Heyting rows restricted and the ambient primes it contains as its
    primes (Picado & Pultr, *Frames and Locales*, 2012).
    """
    fw, members = sl.ambient, sl.elems[i]
    nu = tuple(nucleus_element(fw, members, a) for a in range(fw.lattice.n))
    elems = tuple(bits(members))
    pos = {e: p for p, e in enumerate(elems)}
    hey = tuple(tuple(pos[fw.heyting_table[a][b]] for b in elems) for a in elems)
    target = FrameWitness(fw.lattice.retract(nu), hey,
                          mask_of(pos[p] for p in bits(fw.primes & members)))
    return FrameMap.of(fw, target, tuple(pos[v] for v in nu))


def is_smooth(sl: SublocaleCoframe, i: int) -> bool:
    """Whether sublocale ``i`` belongs to the smallest codense subcolocale."""
    return bool((sb(sl) >> i) & 1)


# ---------------------------------------------------------------------------
# structures


class RaneyExtension:
    """A frame plus a subcolocale of its fitted coframe containing all opens."""

    def __init__(self, frame: FrameWitness, f_sub: Subcolocale,
                 limits: Limits = DEFAULT_LIMITS):
        host = f_sub.host
        if not host.fitted or host.ambient != frame:
            raise ValueError("the subcolocale must live on the frame's fitted coframe")
        if mask_of(host.open_index) & ~f_sub.members:
            raise ValueError("a Raney extension must contain every open")
        self.frame = frame
        self.f_sub = f_sub
        self._limits = limits
        self._lattice: tuple[Lattice, tuple[int, ...]] | None = None

    @cached_property
    def proper(self) -> bool:
        """Whether the fitted collection is proper, tested on first read."""
        return is_proper(self.f_sub.host, self.f_sub.members, self._limits)


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
        self._lattice: tuple[Lattice, tuple[int, ...]] | None = None

    def is_essential(self) -> bool:
        return is_essential(self.d_sub.host, self.d_sub.members)


def _sub_lattice(s: RaneyExtension | SZDBF, sub: Subcolocale
                 ) -> tuple[Lattice, tuple[int, ...]]:
    """The structure's subcolocale ``sub`` as an abstract lattice, built on
    first use and kept in the structure, so that every lift check from or
    into the structure reuses it."""
    if s._lattice is None:
        s._lattice = subcolocale_lattice(sub.host, sub.members)
    return s._lattice


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

    def to_json(self) -> dict:
        return {"exists": self.exists,
                "witnesses": [list(w) for w in self.witnesses],
                "nodes_explored": self.nodes_explored,
                "exhausted": self.exhausted}


def subcolocale_lattice(host: SublocaleCoframe, members: int) -> tuple[Lattice, tuple[int, ...]]:
    """A subcolocale as a lattice, the host's retract by the conucleus, plus its
    host indices."""
    lat = host.as_lattice
    return (lat.retract([conucleus(host, members, c) for c in range(lat.n)]),
            tuple(bits(members)))


def is_coframe_map(src: Lattice, dst: Lattice, h: Sequence[int],
                   pins: Iterable[tuple[int, int]]) -> bool:
    """Whether ``h`` is a map ``src -> dst`` keeping the bounds, the pins
    ``(s, t)`` and every binary meet and join (hence all finite ones)."""
    if len(h) != src.n or not all(0 <= v < dst.n for v in h):
        return False
    if h[src.top] != dst.top or h[src.bottom] != dst.bottom:
        return False
    if any(h[s] != t for s, t in pins):
        return False
    for a in range(src.n):
        ma, ja = dst.meet_table[h[a]], dst.join_table[h[a]]
        smeet, sjoin = src.meet_table[a], src.join_table[a]
        for b in range(a, src.n):
            if h[smeet[b]] != ma[h[b]] or h[sjoin[b]] != ja[h[b]]:
                return False
    return True


def extend_to_coframe_map(src: Lattice, dst: Lattice,
                          pins: Iterable[tuple[int, int]]) -> LiftVerdict:
    """The map ``src -> dst`` preserving all (finite) meets and joins that
    sends each pinned ``s`` to ``t``, if there is one.

    The pinned sources must be meet-dense: each ``g`` is the meet of the
    pinned ``s >= g``.  A map keeping the top and binary meets keeps that
    meet, so one keeping the pins sends ``g`` to the meet of their ``t``.
    That map is the only candidate, and :func:`is_coframe_map` decides it.
    The same fold in ``src`` checks density; ``ValueError`` if it fails.
    """
    pins = tuple(pins)
    rows = [(s, src.meet_table[s], dst.meet_table[t]) for s, t in pins]
    h = []
    for g in range(src.n):
        above, s_acc, t_acc = src.up[g], src.top, dst.top
        for s, s_meet, t_meet in rows:
            if above >> s & 1:
                s_acc, t_acc = s_meet[s_acc], t_meet[t_acc]
        if s_acc != g:
            raise ValueError("pins are not meet-dense")
        h.append(t_acc)
    ok = is_coframe_map(src, dst, h, pins)
    return LiftVerdict(ok, (tuple(h),) if ok else (), 0, True)


def raney_lift_check(f: FrameMap, r1: RaneyExtension, r2: RaneyExtension) -> LiftVerdict:
    """Does ``f`` lift to a coframe map of the chosen fitted collections?

    The lift must send the open of ``x`` to the open of ``f(x)``.  Those
    pins are meet-dense: a fitted sublocale ``g`` is the host meet of the
    opens above it, ``F`` holds every open, and ``F``'s meet is the
    conucleus of the host's, which fixes ``g``.
    """
    h1, h2 = r1.f_sub.host, r2.f_sub.host
    return _lift_check(f, r1, r1.f_sub, r2, r2.f_sub,
                       ((h1.open_of(x), h2.open_of(f(x))) for x in range(f.source.lattice.n)))


def szdbf_lift_check(f: FrameMap, b1: SZDBF, b2: SZDBF) -> LiftVerdict:
    """Does ``f`` lift to a coframe map of the chosen codense subcolocales?

    The lift must send the closed of ``x`` to the closed of ``f(x)``.  A
    sublocale is its set of primes ``P``, and for a prime ``p`` with ``x_p``
    the meet of the primes strictly above it, ``closed(x_p) v open(p)`` is
    the coatom ``P - {p}``: a prime not above ``p`` is in the open, one
    strictly above is in the closed, and ``p < x_p`` since a prime is meet
    irreducible.  The coatoms are meet-dense in ``S(L)``, hence in ``D``,
    whose meet is the conucleus of the host's.  ``D`` holds them: it holds
    the top and ``d - a`` for each member ``d`` and host element ``a``, so
    ``top - open(x) = closed(x)`` and ``top - closed(y) = open(y)``, and it
    is closed under joins.  A lattice map keeping closeds keeps their
    complements, the opens, so every lift sends the coatom of ``p`` to
    ``closed(f x_p) v open(f p)``, the coatom's pin.
    """
    h1, h2 = b1.d_sub.host, b2.d_sub.host
    return _lift_check(f, b1, b1.d_sub, b2, b2.d_sub, _szdbf_pins(f, h1, h2))


def _szdbf_pins(f: FrameMap, h1: SublocaleCoframe, h2: SublocaleCoframe):
    lat, primes = f.source.lattice, f.source.primes
    for x in range(lat.n):
        yield h1.closed_of(x), h2.closed_of(f(x))
    for p in bits(primes):
        xp = lat.big_meet(lat.up[p] & primes & ~bit(p))
        yield (h1.join(h1.closed_of(xp), h1.open_of(p)),
               h2.join(h2.closed_of(f(xp)), h2.open_of(f(p))))


def _lift_check(f: FrameMap, s1: RaneyExtension | SZDBF, sub1: Subcolocale,
                s2: RaneyExtension | SZDBF, sub2: Subcolocale,
                pins: Iterable[tuple[int, int]]) -> LiftVerdict:
    """Decide the lift of ``f`` between the subcolocales ``sub1`` of ``s1``
    and ``sub2`` of ``s2`` that keeps the host-index ``pins``, read only
    after the frames are checked; witness values are target host indices."""
    if f.source != s1.frame or f.target != s2.frame:
        raise ValueError("the map's frames must match the structures")
    src_lat, src_idxs = _sub_lattice(s1, sub1)
    dst_lat, dst_idxs = _sub_lattice(s2, sub2)
    spos = {e: p for p, e in enumerate(src_idxs)}
    dpos = {e: p for p, e in enumerate(dst_idxs)}
    verdict = extend_to_coframe_map(src_lat, dst_lat, ((spos[s], dpos[t]) for s, t in pins))
    return replace(verdict, witnesses=tuple(tuple(dst_idxs[v] for v in w)
                                            for w in verdict.witnesses))


# ---------------------------------------------------------------------------
# the down-set frame


def downset_frame(fw: FrameWitness, limits: Limits = DEFAULT_LIMITS
                  ) -> tuple[FrameWitness, FrameMap]:
    """The frame of down-sets of the underlying order, with the join map.

    The map sends a down-set to its join; it is a surjective frame map
    whose right adjoint picks out principal down-sets.
    """
    masks = downset_masks(fw.lattice.up, limits)
    dl = FrameWitness.of(gen_downsets_of_poset(fw.lattice.up, limits))
    eps = FrameMap.of(dl, fw, tuple(fw.lattice.big_join(m) for m in masks))
    return dl, eps


def right_adjoint_image(f: FrameMap) -> int:
    """The sublocale of the source induced by a frame map: the image of its
    right adjoint, as a bitmask of source elements."""
    out = mask_of(f.right_adjoint(a) for a in range(f.target.lattice.n))
    if not is_sublocale(f.source, out):
        raise InternalInconsistency("right adjoint image is not a sublocale")
    return out
