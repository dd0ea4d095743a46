"""Frame maps, the two enriched structures, and lifting checks.

A :class:`RaneyExtension` pairs a frame with a subcolocale of its fitted
coframe containing all opens; a :class:`SZDBF` pairs a frame with a
codense subcolocale of its full sublocale coframe.  ``to_raney`` and
``to_szdbf`` convert between them along the fitting adjunction (the
latter requires the fitted collection to be proper).

Morphism checks search for coframe maps between the chosen subcolocales
that extend the action of a given frame map on opens (Raney side) or on
closeds (zero-dimensional side).  A chosen subcolocale is its host's retract
by its conucleus (``subcolocale_lattice``), built once per structure: each
structure keeps that lattice in a field filled on first use.  A
one-witness check returns the canonical lift, the preimage of prime sets
along the spectral map ``q -> f_*(q)``, if :func:`is_coframe_map`
certifies it.  Otherwise the search assigns values to the join
irreducibles of the source in index order, takes the candidates of a step
as one bitmask (the interval between the bounds from the pinned values,
above the values of the irreducibles below), checks meet consistency
incrementally, and reports the lexicographically least witnesses first.
Smoothness of a sublocale (membership in the smallest codense
subcolocale) is equivalent to the zero-dimensional lift existing, and
exactness to the Raney lift existing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .bits import bit, bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .corpus import downset_masks, gen_downsets_of_poset
from .errors import InternalInconsistency, NotProper, SizeLimit
from .lattice import FrameWitness, Lattice, fold_families, join_irreducibles
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
    folds = fold_families(src.fams, (0, f.target.lattice.top),
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
# lifting searches


@dataclass(frozen=True)
class LiftVerdict:
    """Outcome of a lift search.

    ``witnesses`` maps, for each found lift, the source subcolocale members
    (in increasing host-index order) to target host indices.  ``exhausted``
    is false when the node budget or the witness cap stopped the search
    before covering the whole space.
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
    host indices; the host order is topologically sorted, so the local one is too."""
    lat = host.as_lattice
    return (lat.retract([conucleus(host, members, c) for c in range(lat.n)]),
            tuple(bits(members)))


def is_coframe_map(src: Lattice, dst: Lattice, h: Sequence[int],
                   fixed: dict[int, int]) -> bool:
    """Whether ``h`` is a map ``src -> dst`` keeping the bounds, the pins
    ``fixed`` and every binary meet and join (hence all finite ones)."""
    if len(h) != src.n or not all(0 <= v < dst.n for v in h):
        return False
    if h[src.top] != dst.top or h[src.bottom] != dst.bottom:
        return False
    if any(h[s] != t for s, t in fixed.items()):
        return False
    for a in range(src.n):
        ma, ja = dst.meet_table[h[a]], dst.join_table[h[a]]
        smeet, sjoin = src.meet_table[a], src.join_table[a]
        for b in range(a, src.n):
            if h[smeet[b]] != ma[h[b]] or h[sjoin[b]] != ja[h[b]]:
                return False
    return True


def extend_to_coframe_map(src: Lattice, dst: Lattice, fixed: dict[int, int],
                          limits: Limits = DEFAULT_LIMITS,
                          max_witnesses: int = 1,
                          candidate: Sequence[int] | None = None) -> LiftVerdict:
    """Search for maps ``src -> dst`` preserving all (finite) meets and joins
    and extending the pinned assignments.

    A one-witness call with a ``candidate`` that passes :func:`is_coframe_map`
    returns it with no node explored; otherwise the search runs.  Requires
    the source order to be topologically sorted by index.  The search assigns
    values to the join irreducibles in index order, checks each determined
    element as soon as its decomposition completes, and reports the
    lexicographically least witnesses first.  Raises :class:`SizeLimit` if
    the node budget runs out before any conclusion.
    """
    if (max_witnesses == 1 and candidate is not None
            and is_coframe_map(src, dst, candidate, fixed)):
        return LiftVerdict(True, (tuple(candidate),), 0, False)
    for i in range(src.n):
        if src.up[i] >> i << i != src.up[i]:
            raise ValueError("source order must be topologically sorted")
    irr = join_irreducibles(src)
    nj = len(irr)
    jbelow = [0] * src.n
    for k, j in enumerate(irr):
        for e in bits(src.up[j]):
            jbelow[e] |= bit(k)
    last_step = [jb.bit_length() - 1 for jb in jbelow]

    # elements with no irreducibles below are exactly the bottom
    for s, t in fixed.items():
        if jbelow[s] == 0 and t != dst.bottom:
            return LiftVerdict(False, (), 0, True)
    fixed_at: list[list[tuple[int, int]]] = [[] for _ in range(nj)]
    for s, t in fixed.items():
        if jbelow[s]:
            fixed_at[last_step[s]].append((s, t))
    ub = [dst.top] * nj
    lb = [dst.bottom] * nj
    for k, j in enumerate(irr):
        for s, t in fixed.items():
            if src.leq(j, s):
                ub[k] = dst.meet_table[ub[k]][t]
            if src.leq(s, j):
                lb[k] = dst.join_table[lb[k]][t]

    # per step: the pinned interval as a candidate mask, the earlier
    # irreducibles below this one (their values bound the candidates from
    # below), the elements whose decomposition completes here, and the
    # meets with the other earlier irreducibles (their images must be the
    # meets; for one below, candidates above its value pass already).  A
    # completed element's value is the join of its decomposition's values;
    # when the decomposition less this step's irreducible is that of an
    # earlier element ``prev``, it is ``prev``'s value joined with this
    # step's, else the decomposition is folded afresh.
    window = [dst.up[lb[k]] & dst.dn[ub[k]] for k in range(nj)]
    below = [tuple(k2 for k2 in range(k) if src.leq(irr[k2], j)) for k, j in enumerate(irr)]
    of_jbelow = {jb: e for e, jb in enumerate(jbelow)}
    done: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in range(nj)]
    for e in range(src.n):
        if jbelow[e]:
            prev = of_jbelow.get(jbelow[e] ^ bit(last_step[e]), -1)
            done[last_step[e]].append((e, prev, () if prev >= 0 else tuple(bits(jbelow[e]))))
    pairs = [tuple((k2, src.meet_table[irr[k2]][j]) for k2 in range(k) if k2 not in below[k])
             for k, j in enumerate(irr)]

    dup, dmeet, djoin = dst.up, dst.meet_table, dst.join_table
    val = [0] * nj
    hval = [dst.bottom] * src.n
    witnesses: list[tuple[int, ...]] = []
    nodes = 0
    budget = limits.lift_node_budget
    capped = False

    def fill(step: int, c: int) -> bool:
        jc = djoin[c]
        for e, prev, dec in done[step]:
            if prev >= 0:
                hval[e] = jc[hval[prev]]
                continue
            acc = dst.bottom
            for k in dec:
                acc = djoin[acc][val[k]]
            hval[e] = acc
        for s, t in fixed_at[step]:
            if hval[s] != t:
                return False
        mc = dmeet[c]
        for k2, m in pairs[step]:
            if mc[val[k2]] != hval[m]:
                return False
        return True

    def search(step: int) -> bool:
        """Depth-first; returns True when the search should stop early."""
        nonlocal nodes, capped
        if step == nj:
            if is_coframe_map(src, dst, hval, fixed):
                witnesses.append(tuple(hval))
                if len(witnesses) >= max_witnesses:
                    capped = True
                    return True
            return False
        cand = window[step]
        for k2 in below[step]:
            cand &= dup[val[k2]]
        while cand:              # candidates in increasing order
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            nodes += 1
            if nodes > budget:
                capped = True
                return True
            val[step] = c
            if fill(step, c) and search(step + 1):
                return True
        return False

    stopped = search(0)
    if capped and not witnesses:
        raise SizeLimit("lift search exceeded its node budget")
    return LiftVerdict(bool(witnesses), tuple(witnesses), nodes,
                       exhausted=not stopped)


def raney_lift_check(f: FrameMap, r1: RaneyExtension, r2: RaneyExtension,
                     limits: Limits = DEFAULT_LIMITS,
                     max_witnesses: int = 1) -> LiftVerdict:
    """Does ``f`` lift to a coframe map of the chosen fitted collections?

    The lift must send the open of ``x`` to the open of ``f(x)``; its
    values elsewhere are the canonical lift's if certified, else searched for.
    """
    return _lift_check(f, r1, r1.f_sub, r2, r2.f_sub, SublocaleCoframe.open_of,
                       limits, max_witnesses)


def szdbf_lift_check(f: FrameMap, b1: SZDBF, b2: SZDBF,
                     limits: Limits = DEFAULT_LIMITS,
                     max_witnesses: int = 1) -> LiftVerdict:
    """Does ``f`` lift to a coframe map of the chosen codense subcolocales?

    The lift must send the closed of ``x`` to the closed of ``f(x)``.
    """
    return _lift_check(f, b1, b1.d_sub, b2, b2.d_sub, SublocaleCoframe.closed_of,
                       limits, max_witnesses)


def _lift_check(f: FrameMap, s1: RaneyExtension | SZDBF, sub1: Subcolocale,
                s2: RaneyExtension | SZDBF, sub2: Subcolocale, pin,
                limits: Limits, max_witnesses: int) -> LiftVerdict:
    """Certify or search for a lift of ``f`` between the subcolocales ``sub1``
    of ``s1`` and ``sub2`` of ``s2`` that sends ``pin(host1, x)`` to
    ``pin(host2, f(x))``; witness values are target host indices."""
    if f.source != s1.frame or f.target != s2.frame:
        raise ValueError("the map's frames must match the structures")
    src_lat, src_idxs = _sub_lattice(s1, sub1)
    dst_lat, dst_idxs = _sub_lattice(s2, sub2)
    spos = {e: p for p, e in enumerate(src_idxs)}
    dpos = {e: p for p, e in enumerate(dst_idxs)}
    fixed = {spos[pin(sub1.host, x)]: dpos[pin(sub2.host, f(x))]
             for x in range(f.source.lattice.n)}
    verdict = extend_to_coframe_map(src_lat, dst_lat, fixed, limits, max_witnesses,
                                    _canonical_lift(f, sub1.host, src_idxs, sub2.host, dpos))
    return LiftVerdict(verdict.exists,
                       tuple(tuple(dst_idxs[v] for v in w) for w in verdict.witnesses),
                       verdict.nodes_explored, verdict.exhausted)


def _canonical_lift(f: FrameMap, host1: SublocaleCoframe, src_idxs: Sequence[int],
                    host2: SublocaleCoframe, dpos: dict[int, int]) -> tuple[int, ...] | None:
    """The preimage of prime sets along the spectral map ``q -> f_*(q)``, as
    target positions ``dpos`` of the members ``src_idxs``, or ``None`` if a
    value is not in the target subcolocale.  ``f_*`` keeps primes and order,
    so a (down-closed) prime set has a (down-closed) preimage (Birkhoff, 1937)."""
    sprime = {p: j for j, p in enumerate(bits(f.source.primes))}
    spectral = [sprime[f.right_adjoint(q)] for q in bits(f.target.primes)]
    at = {q: dpos.get(i) for i, q in enumerate(host2.points)}
    h = tuple(at[mask_of(k for k, j in enumerate(spectral) if (host1.points[i] >> j) & 1)]
              for i in src_idxs)
    return None if None in h else h


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
