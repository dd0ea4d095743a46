"""Check suites and JSON reports over a single frame.

Three suites mirror the main theory: ``laws`` (frame/coframe laws, the
open/closed identities, fitting, filters), ``adjunction`` (sigma/delta
and the proper/essential correspondence, with brute-force enumeration on
hosts small enough), and ``correspondence`` (surjections, smooth/exact
lift equivalences, down-set frames).  Each suite returns a JSON-ready
dict with one entry per check and counterexamples capped to a few items.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import ne, or_
from typing import Any, Sequence

from .bits import bit, bits, bits_above, mask_of
from .config import DEFAULT_LIMITS, Limits
from .corpus import downset_masks
from .correspondence import (SZDBF, downset_join_map_violations, quotient_verdicts,
                             to_raney, to_szdbf)
from .errors import NotProper
from .lattice import (CoframeWitness, FrameWitness, adjunction_violations,
                      covered_primes, covers, intersection, join_violations, primes, union)
from .subcolocales import (Subcolocale, adjunction_check, conuclei, delta,
                           enumerate_subcolocales, fit_image, is_codense,
                           is_essential, is_proper, is_subcolocale,
                           saturated_elements, sb, se, sigma, ssp)
from .sublocales import (SublocaleCoframe, b_mask, closed_mask,
                         enumerate_sublocales, exact_filters, open_mask, phi,
                         strongly_exact_filters)

SCHEMA_VERSION = 1

# The note's text is part of every correspondence report, so it stays
# as pinned.  Why exact = all holds too: a prime lies above ``a ^ b`` iff it
# lies above ``a`` or ``b``, so every nucleus ``nu(a) = meet_of[Q &
# above[a]]`` keeps binary meets, which is all that exactness asks
# (:meth:`SublocaleCoframe.meets_split_primes`, checked once per host by
# ``se``).  Properness is cross-checked on the principal rows of each
# member's relation (:func:`subloc.sublocales.is_principal_precongruence`).
FINITE_NOTE = (
    "at finite scale every sublocale is a finite join of closed-meet-open "
    "rectangles, so the smallest codense subcolocale is the whole sublocale "
    "coframe; an exact sublocale that is not smooth therefore cannot occur "
    "on any finite frame, and the smooth/exact lift equivalences below are "
    "exercised with both sides true"
)

MAX_COUNTEREXAMPLES = 5

# The adjunction suite enumerates subcolocales on hosts of at most this many
# sublocales; the benchmark's reference verdicts fix the check list above it.
MAX_ENUMERATED_HOST = 16


class _Checks:
    def __init__(self):
        self.items: list[dict[str, Any]] = []

    def add(self, name: str, violations: list) -> None:
        self.items.append({
            "check": name,
            "ok": not violations,
            "counterexamples": violations[:MAX_COUNTEREXAMPLES],
        })

    @property
    def ok(self) -> bool:
        return all(item["ok"] for item in self.items)


def frame_report(name: str, fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> dict:
    """Summary statistics of a frame and its sublocale coframes."""
    lat = fw.lattice
    sl = enumerate_sublocales(fw, limits)
    sl_o = sl.fitted_subcoframe()
    return {
        "schema_version": SCHEMA_VERSION,
        "frame": name,
        "elements": lat.n,
        "bottom": lat.bottom,
        "top": lat.top,
        "covers": sorted(covers(lat)),
        "distributive": lat.is_distributive(),
        "primes": sorted(bits(primes(fw))),
        "covered_primes": sorted(bits(covered_primes(fw))),
        "sublocales": sl.size,
        "fitted_sublocales": sl_o.size,
        "open_index": list(sl.open_index),
        "closed_index": list(sl.closed_index),
        "strongly_exact_filters": len(strongly_exact_filters(fw)),
        "exact_filters": len(exact_filters(fw)),
        "smallest_codense_size": bin(sb(sl)).count("1"),
        "point_generated_size": bin(ssp(sl)).count("1"),
        "exact_sublocales": bin(se(sl)).count("1"),
    }


def _prime_part_violations(sl: SublocaleCoframe) -> list:
    """The indices whose members hold other primes than their prime set.

    ``parts[Q]``, the mask of the primes of ``Q`` among the elements, comes
    from the subset recurrence, one doubling of the table per prime: ``2^p``
    ORs per host, where ``tests/oracles.py::scan_prime_parts`` folds each
    index's primes."""
    primes = sl.ambient.primes
    parts = [0]
    for p in bits(primes):
        b = 1 << p
        parts += [m | b for m in parts]
    return [i for i, (m, want) in enumerate(zip(sl.elems, map(parts.__getitem__, sl.points)))
            if m & primes != want]


def host_law_violations(host: SublocaleCoframe, cover_pairs: Sequence = (),
                        prime_bad: list | None = None) -> list:
    """Where ``m: Q -> members(Q)`` fails to carry the prime sets of a host
    onto its sublocales, labelled ``"SL"`` on ``S(L)`` and ``"SoL"`` on
    ``S_o(L)``: ``(label, "primes", i)`` when the primes among the members
    of ``i`` are not ``points[i]``; ``(label, "bottom", 0)`` when the empty
    set gives other members than the top; ``(label, "join", i, c)`` on a
    cover ``points[c] = points[i] | {j}`` (:meth:`SublocaleCoframe.covers`)
    where ``m(points[c])`` is not the join of ``m(points[i])`` and ``{p,
    top}``, for ``p`` the ``j``-th prime; and, on the fitted host,
    ``(label, "fitted", i)`` when the members of ``i`` are not the meet of
    the open masks above them.  The join of sublocales ``S`` and ``T`` is
    ``{a ^ b : a in S, b in T}`` (Picado & Pultr, *Frames and Locales*,
    2012, III.3): it is the set of meets of subsets of ``S | T``, and each
    such meet splits into a meet from ``S`` and one from ``T``, both
    meet-closed.  So the join with ``{p, top}`` is ``m(points[i])`` and
    its members' meets with ``p``.

    Proof that this checks the host's laws.  The prime sets of ``S(L)``
    are all the subsets of the primes ``P``, those of ``S_o(L)`` the
    down-sets, and each family is reached from the empty set along its
    covers: a down-set minus one of its maximal primes is a down-set.  By
    induction along covers from the empty set, ``m(Q)`` is the join of the
    point sublocales of the primes in ``Q``, so it is a sublocale and
    ``m`` sends unions to joins of sublocales.  ``m`` is one-to-one, since
    ``m(Q)`` holds exactly the primes of ``Q``.  A sublocale of a finite
    frame is a finite frame, hence spatial, so it is the join of the point
    sublocales of the primes it holds (Picado & Pultr, 2012): ``m`` is
    onto ``S(L)``.  On ``S_o(L)``, every ``m(Q)`` is fitted by the last
    test, and a fitted sublocale, an intersection of opens, holds a
    down-set of primes (the primes in the open of ``a`` are those not
    above ``a``), so it is ``m`` of that down-set: ``m`` is onto the
    fitted sublocales, and a join of sublocales that is fitted is their
    join among the fitted ones too.  A bijection of lattices that
    preserves binary joins is an order isomorphism (``m(Q) <= m(R)`` gives
    ``m(Q | R) = m(R)``, hence ``Q <= R``), so it preserves meets, and
    meets of sublocales, fitted or not, are intersections.  The host's
    ``&``, ``|`` and ``& ~`` (down-closed on ``S_o(L)``) are therefore the
    meet, join and difference of its coframe, which is distributive, as a
    ring of sets is (G. Birkhoff, "Rings of sets", 1937).  Each element's
    meets with the ``p`` primes are packed one-hot in one int, a lane of
    ``n`` bits per prime, so one OR over an index's members gives its
    images under every prime, and each of the ``k p / 2`` covers reads its
    lane with one shift and mask; plus ``k n`` mask tests on the fitted
    host.  ``tests/oracles.py::scan_host_laws`` compares ``k^2`` pairs of
    table entries with closures of unions, and ``scan_cover_joins`` folds
    the meets per cover and member.  A caller may pass ``host.covers()``
    and :func:`_prime_part_violations` in, to list them once.
    """
    fw = host.ambient
    lat = fw.lattice
    label = "SoL" if host.fitted else "SL"
    pts, elems = host.points, host.elems
    n, full = lat.n, lat.full_mask
    # each element's meets with the primes, one-hot and side by side: its
    # meet with the j-th prime is a bit of the j-th lane of n bits
    lanes = [0] * n
    for j, p in enumerate(bits(fw.primes)):
        for a, x in enumerate(lat.meet_table[p]):
            lanes[a] |= 1 << (x + j * n)
    prime_bad = _prime_part_violations(host) if prime_bad is None else prime_bad
    bad = [(label, "primes", i) for i in prime_bad]
    if elems[0] != bit(lat.top):
        bad.append((label, "bottom", 0))
    last = None
    for i, c in cover_pairs or host.covers():
        if i != last:  # the covers come in order of i: one OR over its members
            last, m = i, elems[i]
            images = reduce(or_, map(lanes.__getitem__, bits(m)), 0)
        if m | (images >> n * ((pts[c] ^ pts[i]).bit_length() - 1) & full) != elems[c]:
            bad.append((label, "join", i, c))
    if host.fitted:
        opens = {open_mask(fw, a) for a in range(lat.n)}
        for i, m in enumerate(elems):
            fit = lat.full_mask
            for o in opens:
                if not m & ~o:
                    fit &= o
            if fit != m:
                bad.append((label, "fitted", i))
    return bad


def difference_adjunction_violations(sl: SublocaleCoframe, cover_pairs: Sequence = (),
                                     prime_bad: list | None = None) -> list:
    """Why ``s - t <= u`` iff ``s <= t v u`` might fail on ``S(L)``:
    ``("primes", i)`` where the members of ``i`` hold other primes than
    ``points[i]``, and ``("monotone", i, c)`` on a cover where the members
    of ``i`` are not inside those of ``c``.

    The host computes ``s - t``, ``t v u`` and ``<=`` as ``Q & ~R``,
    ``R | U`` and inclusion of prime sets, and ``Q - R`` is inside ``U``
    iff ``Q`` is inside ``R | U`` in every powerset.  The law on
    sublocales follows once ``m: Q -> members(Q)`` is an order isomorphism
    onto ``S(L)``, for the order fixes the join (the least upper bound)
    and the difference (the least ``u`` with ``s <= t v u``).  Its image
    is ``S(L)``, as :func:`host_law_violations` proves from its checks;
    it reflects the order, and so is one-to-one, when ``members(Q)``
    holds exactly the primes of ``Q``; and it is monotone
    when it is monotone on covers, which generate inclusion (``Q <= R``
    adds the primes of ``R - Q`` one at a time).
    ``k + k p / 2`` mask tests, where the adjunction over the host's
    tables costs ``k`` per cover.  Covers and prime parts as in
    :func:`host_law_violations`.
    """
    elems = sl.elems
    prime_bad = _prime_part_violations(sl) if prime_bad is None else prime_bad
    return ([("primes", i) for i in prime_bad]
            + [("monotone", i, c) for i, c in cover_pairs or sl.covers() if elems[i] & ~elems[c]])


def fit_closure_violations(sl: SublocaleCoframe, cover_pairs: Sequence = ()) -> list:
    """Where ``fit`` fails to be a closure operator on ``S(L)`` that fixes
    the opens: the indices below their fit or not fixed by it, the covers
    ``(s, t)`` with ``fit(s) > fit(t)``, and the opens moved.  Monotone on
    covers is monotone, since covers generate a finite order (see
    :func:`subloc.lattice.adjunction_violations`)."""
    pts, fit = sl.points, sl.fit_index
    bad = [s for s, f in enumerate(fit) if pts[s] & ~pts[f] or fit[f] != f]
    bad += [(s, t) for s, t in cover_pairs or sl.covers() if pts[fit[s]] & ~pts[fit[t]]]
    bad += [f"open({a})" for a, o in enumerate(sl.open_index) if sl.fit(o) != o]
    return bad


def inclusion_identity_violations(sl: SublocaleCoframe) -> list:
    """Every ``(s, x, y)``, in order, on which ``s <= closed(x) v open(y)``
    in the host's order and ``s`` missing ``open(x) - open(y)`` differ.

    Both sides are masks over the ``k`` sublocales, one pair per ``(x, y)``:
    the indices below the host join (:meth:`SublocaleCoframe.below`, from
    the prime sets), and the sublocales whose
    members miss every element ``t`` of the gap ``open(x) - open(y)``, an
    intersection of the masks ``missing[t]`` kept for each distinct gap.
    ``tests/oracles.py::scan_inclusion_identity`` makes ``k n^2`` joins.
    """
    fw = sl.ambient
    n = fw.lattice.n
    opens = [open_mask(fw, a) for a in range(n)]
    # the member masks' digits, transposed: row t holds, index 0 first,
    # whether each sublocale has the member t (the rows come from t = n - 1)
    rows = zip(*[format(m, f"0{n}b") for m in sl.elems])
    missing = [((1 << sl.size) - 1) ^ int("".join(row)[::-1], 2) for row in rows][::-1]
    missing_gap: dict[int, int] = {}
    bad = []
    for x in range(n):
        c = sl.closed_of(x)
        for y in range(n):
            gap = opens[x] & ~opens[y]
            trimmed = missing_gap.get(gap)
            if trimmed is None:
                trimmed = (1 << sl.size) - 1
                for t in bits(gap):
                    trimmed &= missing[t]
                missing_gap[gap] = trimmed
            dn = sl.below(sl.join(c, sl.open_of(y)))
            bad.extend((s, x, y) for s in bits(dn ^ trimmed))
    return sorted(bad)


def fit_closed_trim_violations(sl: SublocaleCoframe) -> list:
    """Every ``(s, x)``, in order, with ``fit(s ^ closed(x)) != fit(fit(s) ^
    closed(x))`` on ``S(L)``.

    A meet of sublocales is their intersection, so the trim of ``s`` by
    ``closed(x)`` has the prime set ``points[s] & C``, ``C`` that of
    ``closed(x)``.  Each ``x`` costs one row ``trim`` of ``k`` lookups,
    ``trim[s]`` the fit of the trim of ``s``, and ``s`` fails where
    ``trim[s] != trim[fit(s)]``.  ``tests/oracles.py::scan_fit_closed_trim``
    meets the member masks and reads them back through ``index``.
    """
    pts, pos, fit = sl.points, sl.point_index, sl.fit_index
    bad = []
    for x in range(sl.ambient.lattice.n):
        c = pts[sl.closed_of(x)]
        trim = list(map(fit.__getitem__, map(pos.__getitem__, map(c.__and__, pts))))
        if any(map(ne, trim, map(trim.__getitem__, fit))):
            bad += [(s, x) for s, f in enumerate(fit) if trim[s] != trim[f]]
    return sorted(bad)


def phi_order_violations(sl_o: SublocaleCoframe, phis: Sequence[int],
                         cover_pairs: Sequence = ()) -> list:
    """Why ``phi`` might fail to reverse inclusion both ways on ``S_o(L)``:
    ``"phi not injective"``, then every ``(x, j)``, ``j`` join-irreducible,
    with ``phi(x v j) != phi(x) & phi(j)``, in order of ``j`` and then
    ``x``.

    Proof.  An injective ``phi`` that sends joins to intersections is an
    order-reversing embedding: ``a <= b`` gives ``a v b = b``, so ``phi(b)
    = phi(a) & phi(b)`` lies inside ``phi(a)``; and ``phi(b) <= phi(a)``
    gives ``phi(a v b) = phi(b)``, so ``a v b = b`` by injectivity.
    Conversely, an order-reversing embedding whose image is closed under
    ``&`` sends joins to intersections: ``phi(a) & phi(b)`` is some
    ``phi(c)``, inside ``phi(a)`` and ``phi(b)``, so ``c`` is above ``a v
    b``, and ``phi(a v b)``, inside ``phi(a) & phi(b)``, contains ``phi(c)``.
    The image the check also asks for, the filters of ``L``, is closed
    under ``&`` (``up(a) & up(b) = up(a v b)``), so once it holds the two
    readings agree.  The host's join is ``|`` of prime sets, and the pairs
    with a join-irreducible decide (:func:`~subloc.lattice.join_violations`),
    these being the principal down-sets, the indices with one lower cover
    (:meth:`SublocaleCoframe.covers`): ``n |J|`` comparisons where
    ``tests/oracles.py::scan_phi_order`` compares every pair.
    """
    bad = [] if len(set(phis)) == sl_o.size else ["phi not injective"]
    pts, pos = sl_o.points, sl_o.point_index
    lower = Counter(c for _, c in cover_pairs or sl_o.covers())
    irr = mask_of(c for c, m in lower.items() if m == 1)
    # the columns of the host's join table at its join-irreducibles
    cols = {j: [pos[q | pts[j]] for q in pts] for j in bits(irr)}
    return bad + list(join_violations(cols, irr, phis, intersection))


def ker_violations(sl: SublocaleCoframe, sl_o: SublocaleCoframe, phis: Sequence[int]) -> list:
    """Every index ``s`` of ``S(L)`` with ``ker(s) != phi(fit(s))``, then the
    kernels of the smallest codense subcolocale if they are not the exact
    filters.

    The kernels are read on prime sets: ``x`` is in the kernel of the
    sublocale with prime set ``Q`` iff ``Q`` lies inside the prime set of
    ``open(x)``, inclusion of sublocales being inclusion of prime sets.  So
    the kernel of ``Q`` is the AND, over the primes ``j`` of ``Q``, of the
    ``x`` whose open holds ``j``: one table by the subset recurrence, ``2^p``
    ANDs, where :func:`~subloc.sublocales.ker` tests ``n`` member masks per
    index (``tests/oracles.py::scan_ker_phi``).
    """
    fw = sl.ambient
    opens = [sl.points[o] for o in sl.open_index]
    kernel = [fw.lattice.full_mask]
    for j in range(sl.all_primes.bit_length()):
        holding = mask_of(x for x, o in enumerate(opens) if o >> j & 1)
        kernel += [m & holding for m in kernel]
    kers = list(map(kernel.__getitem__, sl.points))
    # a fit outside the fitted host has no phi, and fails the check
    fit, fitted = sl.fit_index, sl_o.index
    phi_of = {f: phis[fitted[sl.elems[f]]] for f in set(fit) if sl.elems[f] in fitted}
    bad = [s for s, (m, want) in enumerate(zip(kers, map(phi_of.get, fit)))
           if m != want]
    image, ef = sorted({kers[s] for s in bits(sb(sl))}), sorted(exact_filters(fw))
    if image != ef:
        bad.append({"ker_of_smallest_codense": image, "exact_filters": ef})
    return bad


def laws_suite(name: str, fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> dict:
    lat = fw.lattice
    n = lat.n
    checks = _Checks()

    sl = enumerate_sublocales(fw, limits)
    sl_o = sl.fitted_subcoframe()
    k = sl.size
    # S(L)'s covers and prime parts, listed once for three checks; then dropped
    cover_pairs, prime_bad = sl.covers(), _prime_part_violations(sl)
    # S_o(L)'s covers also give its join-irreducibles to the phi check
    cover_pairs_o = sl_o.covers()
    checks.add("coframe-law-of-sublocales", host_law_violations(sl, cover_pairs, prime_bad)
               + host_law_violations(sl_o, cover_pairs_o))
    difference_bad = difference_adjunction_violations(sl, cover_pairs, prime_bad)
    fit_bad = fit_closure_violations(sl, cover_pairs)
    del cover_pairs

    checks.add("heyting-adjunction",
               list(adjunction_violations(lat, lat.meet_table, fw.heyting_table)))

    # the difference table is the dual's arrow; x - t <= u iff x <= t v u pins it
    diff = CoframeWitness.of(lat).difference_table
    checks.add("frame-coframe-duality",
               list(adjunction_violations(lat, tuple(zip(*diff)), lat.join_table)))

    pr = primes(fw)
    bad = []
    if covered_primes(fw) != pr:
        bad.append({"primes": sorted(bits(pr)),
                    "covered": sorted(bits(covered_primes(fw)))})
    checks.add("covered-primes-equal-primes", bad)

    # the families are the empty one and the pairs (FrameWitness.exact_pairs);
    # a singleton is exact and strongly exact, and so is the empty family
    # once its meet, the top, fixes everything (top -> y = y)
    exact, strong = fw.exact_pairs
    bad = [] if fw.heyting_table[lat.top] == tuple(range(n)) else [0]
    bad += [bit(a) | bit(b) for a in range(n)
            for b in bits_above(lat.full_mask & ~(exact[a] & strong[a]), a)]
    checks.add("all-meets-exact-and-strongly-exact", bad)

    bot, top = 0, k - 1
    bad = []
    if sl.open_of(lat.bottom) != bot or sl.closed_of(lat.top) != bot:
        bad.append("extremes at bottom")
    if sl.open_of(lat.top) != top or sl.closed_of(lat.bottom) != top:
        bad.append("extremes at top")
    checks.add("open-closed-extremes", bad)

    bad = [a for a in range(n)
           if sl.meet(sl.open_of(a), sl.closed_of(a)) != bot
           or sl.join(sl.open_of(a), sl.closed_of(a)) != top]
    checks.add("open-closed-complement", bad)

    # joins of families, on the empty one and the pairs; the singletons hold
    # outright, bot and top being the bottom and top of the host's tables.
    # Each map keeps binary joins and meets iff it keeps those with the
    # irreducibles (join_violations), as prime sets, where join is | and
    # meet is &; the join half lists [x, j], the meet half (x, m)
    join_irr, meet_irr = lat.irreducibles
    opens = [sl.points[sl.open_of(a)] for a in range(n)]
    closeds = [sl.points[sl.closed_of(a)] for a in range(n)]
    for check, t, bound, join_op, meet_op in (
            ("open-join-and-meet-laws", opens, bot, union, intersection),
            ("closed-meet-and-join-laws", closeds, top, intersection, union)):
        bad = [] if t[lat.bottom] == sl.points[bound] else [[]]
        bad += [[x, j] for x, j in join_violations(lat.join_table, join_irr, t, join_op)]
        bad += join_violations(lat.meet_table, meet_irr, t, meet_op)
        checks.add(check, bad)

    checks.add("difference-adjunction", difference_bad)

    checks.add("closed-join-open-inclusion-identity", inclusion_identity_violations(sl))

    checks.add("fit-is-a-closure-operator", fit_bad)

    checks.add("fit-of-closed-trim-depends-only-on-fit", fit_closed_trim_violations(sl))

    bad = []
    for fi, fm in enumerate(sl_o.elems):
        for x in range(n):
            fitted = sl.fit(sl.index[fm & closed_mask(fw, x)])
            # None, a violation, when the fit is outside the fitted host
            lhs = sl_o.index.get(sl.elems[fitted])
            if sl_o.diff(fi, sl_o.open_of(x)) != lhs:
                bad.append((fi, x))
    checks.add("fitted-difference-is-fit-of-closed-trim", bad)

    bad = [p for p in bits(pr)
           if b_mask(fw, p) != closed_mask(fw, p)
           & sl.elems[sl.fit(sl.index[b_mask(fw, p)])]]
    checks.add("point-sublocale-identity", bad)

    sef = strongly_exact_filters(fw)
    phis = [phi(sl_o, i) for i in range(sl_o.size)]
    bad = []
    if sorted(phis) != sorted(sef):
        bad.append({"phi_image": sorted(phis), "strongly_exact": sorted(sef)})
    checks.add("phi-bijection-reversing-inclusion",
               bad + phi_order_violations(sl_o, phis, cover_pairs_o))

    checks.add("ker-is-phi-after-fit-and-hits-exact-filters", ker_violations(sl, sl_o, phis))

    return {"schema_version": SCHEMA_VERSION, "suite": "laws", "frame": name,
            "sublocales": k, "fitted_sublocales": sl_o.size,
            "ok": checks.ok, "checks": checks.items, "notes": []}


def adjunction_suite(name: str, fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> dict:
    lat = fw.lattice
    n = lat.n
    checks = _Checks()
    notes: list[str] = []

    sl = enumerate_sublocales(fw, limits)
    sl_o = sl.fitted_subcoframe()
    k = sl.size

    sb_m, ssp_m, se_m = sb(sl), ssp(sl), se(sl)
    bad = []
    for label, m in (("sb", sb_m), ("ssp", ssp_m), ("se", se_m)):
        if not is_subcolocale(sl, m):
            bad.append(f"{label} not a subcolocale")
        if not is_codense(sl, m):
            bad.append(f"{label} not codense")
    checks.add("distinguished-subcolocales-codense", bad)

    bad = []
    if not is_essential(sl, sb_m, sl_o):
        bad.append("sb not essential")
    if not is_essential(sl, ssp_m, sl_o):
        bad.append("ssp not essential")
    checks.add("distinguished-subcolocales-essential", bad)

    bad = []
    if sb_m & ~se_m:
        bad.append("sb not contained in se")
    if fit_image(sl, sl_o, sb_m) != fit_image(sl, sl_o, se_m):
        bad.append("fit images of sb and se differ")
    checks.add("smallest-codense-inside-exact-with-equal-fit-image", bad)

    full_o = (1 << sl_o.size) - 1
    bad = []
    if not is_proper(sl_o, full_o):
        bad.append("full fitted coframe not proper")
    checks.add("full-fitted-collection-proper", bad)

    bad = []
    for x in range(n):
        f = sl_o.open_of(x)
        try:
            if sigma(sl, sl_o, full_o, f) != sl.open_of(x):
                bad.append(x)
        except NotProper:
            bad.append(x)
    checks.add("sigma-fixes-opens", bad)

    bad = []
    for f in range(sl_o.size):
        try:
            s = sigma(sl, sl_o, full_o, f)
        except NotProper:
            bad.append(f)
            continue
        if sl_o.fit_of[s] != f:
            bad.append(f)
    checks.add("fit-after-sigma-is-identity", bad)

    # sigma is read once per fitted index, which every d with that fit shares
    sb_image = fit_image(sl, sl_o, sb_m)
    sb_con = conuclei(sl, sb_m)
    sigma_of = [sigma(sl, sl_o, sb_image, f) for f in range(sl_o.size)]
    bad = [d for d in range(k) if sb_con[sl.fit(d)] != sigma_of[sl_o.fit_of[d]]]
    checks.add("conucleus-of-fit-equals-sigma-of-fit", bad)

    if k <= MAX_ENUMERATED_HOST:
        codense = enumerate_subcolocales(sl, "codense")
        subs_o = enumerate_subcolocales(sl_o, "all")
        propers = tuple(m for m in subs_o if is_proper(sl_o, m))

        bad = [m for m in codense if sb_m & ~m]
        checks.add("sb-is-least-codense", bad)

        bad = []
        for fm in propers:
            for dm in codense:
                if not adjunction_check(sl, sl_o, fm, dm):
                    bad.append({"proper": sorted(bits(fm)), "codense": sorted(bits(dm))})
        checks.add("delta-left-adjoint-to-fit-image", bad)

        bad = [sorted(bits(fm)) for fm in propers
               if fit_image(sl, sl_o, delta(sl, sl_o, fm)) != fm]
        checks.add("fit-image-after-delta-is-identity", bad)

        essential = [dm for dm in codense if is_essential(sl, dm, sl_o)]
        bad = []
        for dm in essential:
            if delta(sl, sl_o, fit_image(sl, sl_o, dm)) != dm:
                bad.append(sorted(bits(dm)))
        for dm in codense:
            if (dm in essential) != (delta(sl, sl_o, fit_image(sl, sl_o, dm)) == dm):
                bad.append(sorted(bits(dm)))
        if len(essential) != len(propers):
            bad.append({"essential": len(essential), "proper": len(propers)})
        checks.add("proper-essential-bijection", bad)

        notes.append(f"enumerated {len(codense)} codense subcolocales of the "
                     f"{k}-element host and {len(propers)} proper collections "
                     f"out of {len(subs_o)} subcolocales of the fitted host")
    else:
        notes.append(f"host of size {k} exceeds the enumeration bound "
                     f"{MAX_ENUMERATED_HOST}; distinguished subcolocales "
                     f"checked, brute-force enumeration skipped")

    # sb and ssp are one mask on every finite frame; each distinct one is walked once
    bad = []
    for dm in dict.fromkeys((sb_m, ssp_m)):
        fm = fit_image(sl, sl_o, dm)
        sigma_at = {f: sigma(sl, sl_o, fm, f) for f in bits(fm)}
        for d in bits(dm):
            for f, s in sigma_at.items():
                if sl_o.leq(sl_o.fit_of[d], f) != sl.leq(d, s):
                    bad.append((d, f))
    checks.add("fit-sigma-galois-connection", bad)

    bad = []
    sat = saturated_elements(sl, sb_m)
    for i in bits(sat):
        if sb_con[i] != i:
            bad.append(i)
    checks.add("saturated-elements-are-members", bad)

    return {"schema_version": SCHEMA_VERSION, "suite": "adjunction", "frame": name,
            "sublocales": k, "fitted_sublocales": sl_o.size,
            "ok": checks.ok, "checks": checks.items, "notes": notes}


def correspondence_suite(name: str, fw: FrameWitness,
                         limits: Limits = DEFAULT_LIMITS) -> dict:
    """The correspondence checks.

    The three checks of every quotient are decided in one pass over
    ``S(L)`` on the frame's own tables (:func:`quotient_verdicts`), with no
    target frame built.  The down-sets are listed first, so that too many
    of them fail before any lift is checked."""
    checks = _Checks()
    notes = [FINITE_NOTE]
    downsets = downset_masks(fw.lattice.up, limits)

    sl = enumerate_sublocales(fw, limits)
    sb_m = sb(sl)
    se_m = se(sl)

    b1 = SZDBF(fw, Subcolocale(sl, sb_m))
    r1 = to_raney(b1)

    bad = []
    if not r1.proper:
        bad.append("fit image of smallest codense not proper")
    if to_szdbf(r1).d_sub.members != sb_m:
        bad.append("round trip through the fitted side moved the subcolocale")
    checks.add("raney-szdbf-round-trip", bad)

    surj_bad, smooth_bad, exact_bad = [], [], []
    for i, (exact_map, smooth, raney) in enumerate(quotient_verdicts(b1)):
        if not exact_map:
            surj_bad.append(i)
        if smooth != bool((sb_m >> i) & 1):
            smooth_bad.append(i)
        if raney != bool((se_m >> i) & 1):
            exact_bad.append(i)
    checks.add("surjections-are-exact-maps", surj_bad)
    checks.add("szdbf-lift-iff-smooth", smooth_bad)
    checks.add("raney-lift-iff-exact", exact_bad)

    eps = [fw.lattice.big_join(m) for m in downsets]
    checks.add("downset-frame-join-map", downset_join_map_violations(fw, downsets, eps))

    return {"schema_version": SCHEMA_VERSION, "suite": "correspondence", "frame": name,
            "sublocales": sl.size, "smooth_is_all": sb_m == (1 << sl.size) - 1,
            "exact_is_all": se_m == (1 << sl.size) - 1,
            "ok": checks.ok, "checks": checks.items, "notes": notes}


def run_suite(suite: str, name: str, fw: FrameWitness,
              limits: Limits = DEFAULT_LIMITS) -> dict:
    """Run one suite."""
    if suite == "laws":
        return laws_suite(name, fw, limits)
    if suite == "adjunction":
        return adjunction_suite(name, fw, limits)
    if suite == "correspondence":
        return correspondence_suite(name, fw, limits)
    raise ValueError(f"unknown suite {suite!r}")


def render_suite_text(result: dict) -> str:
    lines = [f"suite {result['suite']} on {result['frame']}: "
             f"{'ok' if result['ok'] else 'FAILED'}"]
    for item in result["checks"]:
        mark = "ok" if item["ok"] else "FAIL"
        lines.append(f"  [{mark}] {item['check']}")
        for ce in item["counterexamples"]:
            lines.append(f"         counterexample: {ce}")
    for note in result["notes"]:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"
