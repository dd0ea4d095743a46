"""Check suites and JSON reports over a single frame.

Three suites mirror the main theory: ``laws`` (frame/coframe laws, the
open/closed identities, fitting, filters), ``adjunction`` (sigma/delta
and the proper/essential correspondence, with brute-force enumeration on
hosts small enough), and ``correspondence`` (surjections, smooth/exact
lift equivalences, down-set frames).  Each suite returns a JSON-ready
dict with one entry per check and counterexamples capped to a few items.
"""

from __future__ import annotations

import functools
from typing import Any

from .bits import bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .correspondence import (SZDBF, downset_frame, is_exact_map,
                             raney_lift_check, right_adjoint_image,
                             surjection_of, szdbf_lift_check, to_raney, to_szdbf)
from .errors import NotProper
from .lattice import (CoframeWitness, FrameWitness, adjunction_violations,
                      covered_primes, covers, distributivity_violations,
                      primes)
from .subcolocales import (Subcolocale, adjunction_check, conucleus, delta,
                           enumerate_subcolocales, fit_image, is_codense,
                           is_essential, is_proper, is_subcolocale,
                           saturated_elements, sb, se, sigma, ssp)
from .sublocales import (SublocaleCoframe, b_mask, closed_mask,
                         enumerate_sublocales, exact_filters, ker,
                         open_mask, phi, strongly_exact_filters)

SCHEMA_VERSION = 1

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
        "strongly_exact_filters": len(strongly_exact_filters(fw, limits).filters),
        "exact_filters": len(exact_filters(fw, limits).filters),
        "smallest_codense_size": bin(sb(sl)).count("1"),
        "point_generated_size": bin(ssp(sl)).count("1"),
        "exact_sublocales": bin(se(sl, limits)).count("1"),
    }


def host_law_violations(host: SublocaleCoframe) -> list:
    """Where the host's tables differ from intersection and from the
    (fitted) join of sublocales, and where they break distributivity.

    The join of sublocales ``S`` and ``T`` is ``{a ^ b : a in S, b in T}``
    (Picado & Pultr, *Frames and Locales*, 2012, III.3): it is the set of
    meets of subsets of ``S | T``, and each such meet splits into a meet
    from ``S`` and one from ``T``, both meet-closed.  So with
    ``meets[j][a]``, the mask of ``a ^ b`` over the members ``b`` of ``j``,
    the join of ``i`` and ``j`` is the union of ``meets[j][a]`` over the
    members ``a`` of ``i``; on the fitted host it is then fitted by the
    ``n`` open masks, computed once.  ``tests/oracles.py`` takes the
    closure of the union instead.
    """
    fw = host.ambient
    meet, n = fw.lattice.meet_table, fw.lattice.n
    label = "SoL" if host.fitted else "SL"
    lat = host.as_lattice
    elems = host.elems
    meets = [[mask_of(meet[a][b] for b in bits(m)) for a in range(n)] for m in elems]
    opens = [open_mask(fw, a) for a in range(n)]
    bad = []
    for i, mi in enumerate(elems):
        members = tuple(bits(mi))
        for j in range(i, host.size):
            if lat.meet_table[i][j] != host.index.get(mi & elems[j]):
                bad.append((label, "meet", i, j))
            row, u = meets[j], 0
            for a in members:
                u |= row[a]
            if host.fitted:
                fit = fw.lattice.full_mask
                for o in opens:
                    if u & ~o == 0:
                        fit &= o
                u = fit
            if lat.join_table[i][j] != host.index.get(u):
                bad.append((label, "join", i, j))
    bad.extend((label, "distributive") + v for v in distributivity_violations(lat))
    return bad


def inclusion_identity_violations(sl: SublocaleCoframe) -> list:
    """Every ``(s, x, y)``, in order, on which ``s <= closed(x) v open(y)``
    in the host's tables and ``s`` missing ``open(x) - open(y)`` differ.

    Both sides are masks over the ``k`` sublocales, one pair per ``(x, y)``:
    the down-set of the tabled join, and the sublocales whose members miss
    every element ``t`` of the gap ``open(x) - open(y)``, an intersection
    of the masks ``missing[t]`` kept for each distinct gap.  The join is
    built once per ``(x, y)`` where the triple loop of
    ``tests/oracles.py::scan_inclusion_identity`` makes ``k n^2`` joins.
    """
    fw = sl.ambient
    n = fw.lattice.n
    opens = [open_mask(fw, a) for a in range(n)]
    missing = [mask_of(s for s, ms in enumerate(sl.elems) if not (ms >> t) & 1)
               for t in range(n)]
    missing_gap: dict[int, int] = {}
    dn, join = sl.as_lattice.dn, sl.as_lattice.join_table
    bad = []
    for x in range(n):
        cx = join[sl.closed_of(x)]
        for y in range(n):
            gap = opens[x] & ~opens[y]
            trimmed = missing_gap.get(gap)
            if trimmed is None:
                trimmed = sl.as_lattice.full_mask
                for t in bits(gap):
                    trimmed &= missing[t]
                missing_gap[gap] = trimmed
            bad.extend((s, x, y) for s in bits(dn[cx[sl.open_of(y)]] ^ trimmed))
    return sorted(bad)


def laws_suite(name: str, fw: FrameWitness, limits: Limits = DEFAULT_LIMITS) -> dict:
    lat = fw.lattice
    n = lat.n
    checks = _Checks()

    sl = enumerate_sublocales(fw, limits)
    sl_o = sl.fitted_subcoframe()
    k = sl.size
    checks.add("coframe-law-of-sublocales",
               host_law_violations(sl) + host_law_violations(sl_o))

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

    tab = fw.family_table(limits)
    fams = tab.fams
    bad = [fam for fam in fams if not (tab.exact[fam] and tab.strongly_exact[fam])]
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

    # value of a family: (its join, the join of its opens, the meet of its closeds)
    folds = dict(tab.fold((lat.bottom, bot, top), lambda v, a: (
        lat.join_table[v[0]][a], sl.join(v[1], sl.open_of(a)), sl.meet(v[2], sl.closed_of(a)))))

    bad = [sorted(bits(fam)) for fam in fams
           if folds[fam][1] != sl.open_of(folds[fam][0])]
    for a in range(n):
        for b in range(n):
            if sl.meet(sl.open_of(a), sl.open_of(b)) != sl.open_of(lat.meet_table[a][b]):
                bad.append((a, b))
    checks.add("open-join-and-meet-laws", bad)

    bad = [sorted(bits(fam)) for fam in fams
           if folds[fam][2] != sl.closed_of(folds[fam][0])]
    for a in range(n):
        for b in range(n):
            if sl.join(sl.closed_of(a), sl.closed_of(b)) != sl.closed_of(lat.meet_table[a][b]):
                bad.append((a, b))
    checks.add("closed-meet-and-join-laws", bad)

    # s - t <= u iff s <= t v u: the maps - t and t v - are adjoint for every t
    checks.add("difference-adjunction", list(adjunction_violations(
        sl.as_lattice, tuple(zip(*sl.coframe.difference_table)), sl.as_lattice.join_table)))

    checks.add("closed-join-open-inclusion-identity", inclusion_identity_violations(sl))

    bad = []
    for s in range(k):
        f = sl.fit(s)
        if not sl.leq(s, f) or sl.fit(f) != f:
            bad.append(s)
    for s in range(k):
        for t in range(k):
            if sl.leq(s, t) and not sl.leq(sl.fit(s), sl.fit(t)):
                bad.append((s, t))
    for a in range(n):
        if sl.fit(sl.open_of(a)) != sl.open_of(a):
            bad.append(f"open({a})")
    checks.add("fit-is-a-closure-operator", bad)

    bad = [(s, x) for s in range(k) for x in range(n)
           if sl.fit(sl.index[sl.elems[s] & closed_mask(fw, x)])
           != sl.fit(sl.index[sl.elems[sl.fit(s)] & closed_mask(fw, x)])]
    checks.add("fit-of-closed-trim-depends-only-on-fit", bad)

    bad = []
    for fi, fm in enumerate(sl_o.elems):
        for x in range(n):
            fitted = sl.fit(sl.index[fm & closed_mask(fw, x)])
            lhs = sl_o.index[sl.elems[fitted]]
            if sl_o.diff(fi, sl_o.open_of(x)) != lhs:
                bad.append((fi, x))
    checks.add("fitted-difference-is-fit-of-closed-trim", bad)

    bad = [p for p in bits(pr)
           if b_mask(fw, p) != closed_mask(fw, p)
           & sl.elems[sl.fit(sl.index[b_mask(fw, p)])]]
    checks.add("point-sublocale-identity", bad)

    sef = strongly_exact_filters(fw, limits).filters
    phis = [phi(sl_o, i) for i in range(sl_o.size)]
    bad = []
    if sorted(phis) != sorted(sef):
        bad.append({"phi_image": sorted(phis), "strongly_exact": sorted(sef)})
    if len(set(phis)) != sl_o.size:
        bad.append("phi not injective")
    for i in range(sl_o.size):
        for j in range(sl_o.size):
            if sl_o.leq(i, j) != (phis[j] & ~phis[i] == 0):
                bad.append((i, j))
    checks.add("phi-bijection-reversing-inclusion", bad)

    ef = exact_filters(fw, limits).filters
    bad = [s for s in range(k) if ker(sl, s) != phis[sl_o.index[sl.elems[sl.fit(s)]]]]
    kers = sorted({ker(sl, s) for s in bits(sb(sl))})
    if kers != sorted(ef):
        bad.append({"ker_of_smallest_codense": kers, "exact_filters": sorted(ef)})
    checks.add("ker-is-phi-after-fit-and-hits-exact-filters", bad)

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
    sigma_of = functools.cache(lambda fm, f: sigma(sl, sl_o, fm, f))  # depends on F, f only

    sb_m, ssp_m, se_m = sb(sl), ssp(sl), se(sl, limits)
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
    if not is_proper(sl_o, full_o, limits):
        bad.append("full fitted coframe not proper")
    checks.add("full-fitted-collection-proper", bad)

    bad = []
    for x in range(n):
        f = sl_o.open_of(x)
        try:
            if sigma_of(full_o, f) != sl.open_of(x):
                bad.append(x)
        except NotProper:
            bad.append(x)
    checks.add("sigma-fixes-opens", bad)

    bad = []
    for f in range(sl_o.size):
        try:
            s = sigma_of(full_o, f)
        except NotProper:
            bad.append(f)
            continue
        if sl_o.fit_of[s] != f:
            bad.append(f)
    checks.add("fit-after-sigma-is-identity", bad)

    bad = []
    sb_image = fit_image(sl, sl_o, sb_m)
    for d in range(k):
        fit_d = sl_o.fit_of[d]
        nu_d = conucleus(sl, sb_m, sl.fit(d))
        if nu_d != sigma_of(sb_image, fit_d):
            bad.append(d)
    checks.add("conucleus-of-fit-equals-sigma-of-fit", bad)

    if k <= MAX_ENUMERATED_HOST:
        codense = enumerate_subcolocales(sl, "codense", limits)
        subs_o = enumerate_subcolocales(sl_o, "all", limits)
        propers = tuple(m for m in subs_o if is_proper(sl_o, m, limits))

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

    bad = []
    for dm in (sb_m, ssp_m):
        fm = fit_image(sl, sl_o, dm)
        for d in bits(dm):
            for f in bits(fm):
                left = sl_o.leq(sl_o.fit_of[d], f)
                right = sl.leq(d, sigma_of(fm, f))
                if left != right:
                    bad.append((d, f))
    checks.add("fit-sigma-galois-connection", bad)

    bad = []
    sat = saturated_elements(sl, sb_m)
    for i in bits(sat):
        if conucleus(sl, sb_m, i) != i:
            bad.append(i)
    checks.add("saturated-elements-are-members", bad)

    return {"schema_version": SCHEMA_VERSION, "suite": "adjunction", "frame": name,
            "sublocales": k, "fitted_sublocales": sl_o.size,
            "ok": checks.ok, "checks": checks.items, "notes": notes}


def correspondence_suite(name: str, fw: FrameWitness,
                         limits: Limits = DEFAULT_LIMITS) -> dict:
    checks = _Checks()
    notes = [FINITE_NOTE]

    sl = enumerate_sublocales(fw, limits)
    sl_o = sl.fitted_subcoframe()
    sb_m = sb(sl)
    se_m = se(sl, limits)

    b1 = SZDBF(fw, Subcolocale(sl, sb_m))
    r1 = to_raney(b1)

    bad = []
    if not r1.proper:
        bad.append("fit image of smallest codense not proper")
    if to_szdbf(r1).d_sub.members != sb_m:
        bad.append("round trip through the fitted side moved the subcolocale")
    checks.add("raney-szdbf-round-trip", bad)

    smooth_bad = []
    exact_bad = []
    surj_bad = []
    for i in range(sl.size):
        f = surjection_of(sl, i)
        if not is_exact_map(f, limits):
            surj_bad.append(i)
        sub_fw = f.target
        sub_sl = enumerate_sublocales(sub_fw, limits)
        b2 = SZDBF(sub_fw, Subcolocale(sub_sl, sb(sub_sl)))
        r2 = to_raney(b2)
        if szdbf_lift_check(f, b1, b2).exists != bool((sb_m >> i) & 1):
            smooth_bad.append(i)
        if raney_lift_check(f, r1, r2).exists != bool((se_m >> i) & 1):
            exact_bad.append(i)
    checks.add("surjections-are-exact-maps", surj_bad)
    checks.add("szdbf-lift-iff-smooth", smooth_bad)
    checks.add("raney-lift-iff-exact", exact_bad)

    bad = []
    dl, eps = downset_frame(fw, limits)
    ideal = right_adjoint_image(eps)
    expect = mask_of(eps.right_adjoint(a) for a in range(fw.lattice.n))
    if ideal != expect:
        bad.append({"induced": sorted(bits(ideal)), "principal": sorted(bits(expect))})
    if not is_exact_map(eps, limits):
        bad.append("downset join map not exact")
    if sorted(set(eps.mapping)) != list(range(fw.lattice.n)):
        bad.append("downset join map not surjective")
    checks.add("downset-frame-join-map", bad)

    return {"schema_version": SCHEMA_VERSION, "suite": "correspondence", "frame": name,
            "sublocales": sl.size, "smooth_is_all": sb_m == (1 << sl.size) - 1,
            "exact_is_all": se_m == (1 << sl.size) - 1,
            "ok": checks.ok, "checks": checks.items, "notes": notes}


def run_suite(suite: str, name: str, fw: FrameWitness,
              limits: Limits = DEFAULT_LIMITS) -> dict:
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
