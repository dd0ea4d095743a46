"""Acceptance gate: the seven headline guarantees, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -rA`` or ``-s``) and then asserts, so the printed summary and the
pytest verdict always agree.  Criteria 1 and 3 also enforce wall-clock
budgets.  Everything here recomputes its claims from the public ops rather
than trusting the report suites.
"""

import itertools
import random
import time

from oracles import (NaiveOps, Precongruence, fit_mask, generated_closed_form,
                     is_precongruence, is_smooth, precongruence_to_sublocale,
                     sublocale_to_precongruence)
from subloc import (
    SZDBF,
    Subcolocale,
    adjunction_check,
    conuclei,
    delta,
    enumerate_sublocales,
    enumerate_subcolocales,
    exact_filters,
    fit_image,
    generated_subcolocale,
    is_codense,
    is_essential,
    is_exact_sublocale,
    ker,
    phi,
    primes,
    raney_lift_check,
    sb,
    se,
    sigma,
    ssp,
    strongly_exact_filters,
    surjection_of,
    szdbf_lift_check,
    to_raney,
)
from subloc.bits import bit, bits, mask_of
from subloc.report import FINITE_NOTE, correspondence_suite
from subloc.sublocales import b_mask, closed_mask, open_mask

DESK_SCALE_HOST = 16


def _gate(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    assert not failures, f"criterion {num} ({label}); first failures: {failures[:5]}"


# shared between criteria 3 and 4; rebuilt on demand if 4 runs alone
_DESK: dict = {}


def _desk_scale(corpus, hosts):
    if not _DESK:
        for cf in corpus:
            sl = hosts[cf.name]
            if sl.size > DESK_SCALE_HOST:
                continue
            sl_o = sl.fitted_subcoframe()
            codense = enumerate_subcolocales(sl, "codense")
            propers = enumerate_subcolocales(sl_o, "proper")
            _DESK[cf.name] = (sl, sl_o, codense, propers)
    return _DESK


def test_criterion_1_coframe_laws(corpus, hosts):
    t0 = time.monotonic()
    failures = []
    for cf in corpus:
        sl = hosts[cf.name]
        fw = sl.ambient
        lat = fw.lattice
        n = lat.n
        k = sl.size
        host = sl.as_lattice

        # coframe distributivity c | /\B = /\(c|b): all binary families, which
        # induction extends to every finite family, plus every family outright
        # on hosts small enough to scan
        for c in range(k):
            jc = host.join_table[c]
            for i in range(k):
                ji = jc[i]
                for j in range(k):
                    if jc[host.meet_table[i][j]] != host.meet_table[ji][jc[j]]:
                        failures.append((cf.name, "coframe-law", c, i, j))
        if k <= 8:
            for fam in range(1 << k):
                m = host.big_meet(fam)
                for c in range(k):
                    folded = host.big_meet(mask_of(host.join_table[c][b] for b in bits(fam)))
                    if host.join_table[c][m] != folded:
                        failures.append((cf.name, "coframe-law-family", c, fam))

        top = sl.index[lat.full_mask]
        opens = sl.open_index
        closeds = [sl.closed_of(a) for a in range(n)]

        # the five open/closed identities, exhaustive over frame elements
        for a in range(n):
            for b in range(n):
                if sl.meet(opens[a], opens[b]) != opens[lat.meet_table[a][b]]:
                    failures.append((cf.name, "open-meet", a, b))
                if sl.join(closeds[a], closeds[b]) != closeds[lat.meet_table[a][b]]:
                    failures.append((cf.name, "closed-join", a, b))
        for fam in range(1 << n):
            j = lat.big_join(fam)
            if host.big_join(mask_of(opens[a] for a in bits(fam))) != opens[j]:
                failures.append((cf.name, "open-join-family", fam))
            if host.big_meet(mask_of(closeds[a] for a in bits(fam))) != closeds[j]:
                failures.append((cf.name, "closed-meet-family", fam))
        for a in range(n):
            if sl.meet(opens[a], closeds[a]) != 0:
                failures.append((cf.name, "complement-meet", a))
            if sl.join(opens[a], closeds[a]) != top:
                failures.append((cf.name, "complement-join", a))
    elapsed = time.monotonic() - t0
    _gate(1, "coframe law and open/closed identities on every corpus frame", failures)
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget is 10s"


def test_criterion_2_phi_and_ker(corpus, hosts):
    failures = []
    for cf in corpus:
        sl = hosts[cf.name]
        sl_o = sl.fitted_subcoframe()
        fw = sl.ambient

        phis = [phi(sl_o, i) for i in range(sl_o.size)]
        want = set(strongly_exact_filters(fw))
        if len(set(phis)) != sl_o.size:
            failures.append((cf.name, "phi-not-injective"))
        if set(phis) != want:
            failures.append((cf.name, "phi-image", sorted(set(phis) ^ want)))
        for i in range(sl_o.size):
            for j in range(sl_o.size):
                if sl_o.leq(i, j) != (phis[j] & ~phis[i] == 0):
                    failures.append((cf.name, "phi-order", i, j))

        kers = {ker(sl, i) for i in bits(sb(sl))}
        if kers != set(exact_filters(fw)):
            failures.append((cf.name, "ker-image"))
    _gate(2, "phi bijection onto strongly exact filters; ker image is the "
             "exact filters", failures)


def test_criterion_3_adjunction_at_desk_scale(corpus, hosts):
    t0 = time.monotonic()
    failures = []
    data = _desk_scale(corpus, hosts)
    # every corpus frame except chain6 (host size 32) is desk scale
    if len(data) != len(corpus) - 1:
        failures.append(("qualifying-frames", len(data)))

    for name, (sl, sl_o, codense, propers) in data.items():
        k = sl.size
        if k <= 8:
            # independent scan with the frozenset oracle on its own tables
            ops = NaiveOps(sl.as_lattice.up)
            found = set()
            for m in range(1 << k):
                s = frozenset(i for i in range(k) if (m >> i) & 1)
                if ops.top in s and ops.is_subcolocale(s):
                    found.add(m)
            if found != set(codense):
                failures.append((name, "codense-enumeration"))
        n_o = sl_o.size
        ops_o = NaiveOps(sl_o.as_lattice.up)
        for m in codense:
            if not (m >> (k - 1)) & 1:
                failures.append((name, "codense-without-top", m))
        for m in propers:
            s = frozenset(i for i in range(n_o) if (m >> i) & 1)
            if not ops_o.is_subcolocale(s):
                failures.append((name, "proper-not-a-subcolocale", m))

        essentials = [d for d in codense if is_essential(sl, d, sl_o)]
        image = {}
        for fm in propers:
            dm = delta(sl, sl_o, fm)
            image[fm] = dm
            if fit_image(sl, sl_o, dm) != fm:
                failures.append((name, "fit-image-after-delta", fm))
            for d in codense:
                if not adjunction_check(sl, sl_o, fm, d):
                    failures.append((name, "adjunction-pair", fm, d))
        if len(set(image.values())) != len(propers):
            failures.append((name, "delta-not-injective"))
        if set(image.values()) != set(essentials):
            failures.append((name, "image-differs-from-essentials"))
        for d in essentials:
            fm = fit_image(sl, sl_o, d)
            if image.get(fm) != d:
                failures.append((name, "essential-not-recovered", d))
    elapsed = time.monotonic() - t0
    _gate(3, "delta/fit-image adjunction and proper-essential bijection, "
             "all pairs, brute force", failures)
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s, budget is 120s"


def test_criterion_4_sigma_consistency(corpus, hosts):
    failures = []
    for name, (sl, sl_o, _codense, propers) in _desk_scale(corpus, hosts).items():
        fw = sl.ambient
        n = fw.lattice.n
        for fm in propers:
            for f in bits(fm):
                s = sigma(sl, sl_o, fm, f)
                sm = sl.elems[s]
                if sl_o.index[sl.elems[sl.fit(s)]] != f:
                    failures.append((name, fm, f, "fit-of-sigma"))
                for x in range(n):
                    cut = sl.index[sm & open_mask(fw, x)]
                    lhs = sl_o.index[sl.elems[sl.fit(cut)]]
                    rhs = conuclei(sl_o, fm)[sl_o.meet(f, sl_o.open_index[x])]
                    if lhs != rhs:
                        failures.append((name, fm, f, x))
    _gate(4, "sigma meets the characteristic identity on every proper "
             "subcolocale member", failures)


def test_criterion_5_concrete_examples(corpus, hosts):
    failures = []
    for cf in corpus:
        sl = hosts[cf.name]
        sl_o = sl.fitted_subcoframe()
        fw = sl.ambient
        sb_m = sb(sl)
        for label, m in (("booleanization", sb_m), ("spatialization", ssp(sl))):
            if not is_codense(sl, m):
                failures.append((cf.name, label, "not-codense"))
            if not is_essential(sl, m, sl_o):
                failures.append((cf.name, label, "not-essential"))
        se_m = se(sl)
        if sb_m & ~se_m:
            failures.append((cf.name, "smooth-not-below-exact"))
        if fit_image(sl, sl_o, sb_m) != fit_image(sl, sl_o, se_m):
            failures.append((cf.name, "fit-images-differ"))
        for p in bits(primes(fw)):
            bm = b_mask(fw, p)
            if bm != closed_mask(fw, p) & fit_mask(fw, bm):
                failures.append((cf.name, "point-identity", p))
    _gate(5, "booleanization/spatialization codense and essential; point "
             "sublocales split as closed meet fitting", failures)


def test_criterion_6_lifting_correspondence(corpus, hosts):
    failures = []
    for cf in corpus:
        sl = hosts[cf.name]
        fw = sl.ambient
        b1 = SZDBF(fw, Subcolocale(sl, sb(sl)))
        r1 = to_raney(b1)
        for i in range(sl.size):
            f = surjection_of(sl, i)
            sub_sl = enumerate_sublocales(f.target)
            b2 = SZDBF(f.target, Subcolocale(sub_sl, sb(sub_sl)))
            r2 = to_raney(b2)
            if szdbf_lift_check(f, b1, b2).exists != is_smooth(sl, i):
                failures.append((cf.name, i, "szdbf-lift"))
            if raney_lift_check(f, r1, r2).exists != is_exact_sublocale(fw, sl.elems[i]):
                failures.append((cf.name, i, "raney-lift"))

    # the shipped report must carry the finite-scale caveat verbatim
    small = hosts[corpus[0].name].ambient
    rep = correspondence_suite(corpus[0].name, small)
    if FINITE_NOTE not in rep["notes"]:
        failures.append(("report-note-missing",))
    for phrase in ("cannot occur on any finite frame", "codense"):
        if phrase not in FINITE_NOTE:
            failures.append(("report-note-wording", phrase))
    _gate(6, "structure lifts match smoothness and exactness; finite-scale "
             "caveat stated in the report", failures)


def test_criterion_7_double_entry_oracles(corpus, hosts):
    failures = []
    rng = random.Random(20260814)
    for cf in corpus:
        sl = hosts[cf.name]
        fw = sl.ambient
        k = sl.size
        if k <= 8:
            seeds = range(1 << k)
        else:
            pool = {rng.randrange(1 << k) for _ in range(512)}
            seeds = sorted(pool | {0, (1 << k) - 1} | {bit(i) for i in range(k)})
        for m in seeds:
            if generated_closed_form(sl, m) != generated_subcolocale(sl, m):
                failures.append((cf.name, "generated", m))

        for i in range(k):
            members = sl.elems[i]
            r = sublocale_to_precongruence(fw, members)
            if precongruence_to_sublocale(fw, r) != members:
                failures.append((cf.name, "sublocale-round-trip", i))
        n = fw.lattice.n
        if n <= 3:
            for rows in itertools.product(range(1 << n), repeat=n):
                if not is_precongruence(fw, rows):
                    continue
                m = precongruence_to_sublocale(fw, Precongruence.of(fw, rows))
                if sublocale_to_precongruence(fw, m).rel != rows:
                    failures.append((cf.name, "relation-round-trip", rows))
    _gate(7, "generated-subcolocale closed form matches the fixpoint; "
             "precongruence round trips are identities", failures)
