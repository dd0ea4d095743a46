"""The quadratic law checks held to their cubic definitions.

Each check is compared with its oracle in ``tests/oracles.py`` on the
frames of ``standard_corpus(20, 0)`` and on chain6, grid 3x3 and chain7
(hosts of up to 64 sublocales), where every law holds, and on planted
broken tables or member masks, where it fails; each test asserts that
both verdicts occur.  The host checks read the member masks of both
hosts, so their slips are planted there: two swapped entries, or one
member bit dropped.  The difference adjunction is checked on the frames
and the fitted hosts by their tables, as ``frame-coframe-duality``, and
on ``S(L)`` by its member masks, as ``difference-adjunction``.
"""

import copy
import random
from collections import Counter

import pytest

from subloc import CoframeWitness, FrameWitness, enumerate_sublocales
from subloc.sublocales import SublocaleCoframe
from subloc.corpus import gen_chain, gen_diamond, gen_product, standard_corpus
from subloc.lattice import Lattice, adjunction_violations, distributivity_violations
from subloc import report
from subloc.report import (_prime_part_violations, difference_adjunction_violations,
                           fit_closed_trim_violations, fit_closure_violations,
                           host_law_violations, inclusion_identity_violations,
                           ker_violations, laws_suite, phi_order_violations)
from subloc.sublocales import b_mask, phi
from subloc.bits import bits

from oracles import (fresh_sublocales, scan_cover_joins, scan_difference_adjunction,
                     scan_distributivity, scan_fit_closed_trim, scan_fit_monotone,
                     scan_heyting_adjunction, scan_host_laws, scan_inclusion_identity,
                     scan_ker_phi, scan_phi_order, scan_prime_parts, scan_prime_set_order)


@pytest.fixture(scope="module")
def frames():
    extra = (gen_chain(6), gen_product(gen_chain(3), gen_chain(3)), gen_chain(7))
    return [cf.frame for cf in standard_corpus(20, 0)] + [FrameWitness.of(lat) for lat in extra]


@pytest.fixture(scope="module")
def hosts(frames):
    out = []
    for fw in frames:
        sl = enumerate_sublocales(fw)
        out += [sl, sl.fitted_subcoframe()]
    return out


def _planted(table, rng, swap):
    """A copy of ``table`` with one entry changed: swapped with another
    entry of its row that differs from it, or else moved to the next value."""
    rows = [list(row) for row in table]
    s = rng.randrange(len(rows))
    row = rows[s]
    t = rng.randrange(len(row))
    others = [u for u in range(len(row)) if row[u] != row[t]]
    if swap and others:
        u = rng.choice(others)
        row[t], row[u] = row[u], row[t]
    else:
        row[t] = (row[t] + 1) % len(row)
    return tuple(map(tuple, rows))


def test_birkhoff_distributivity_matches_the_triple_scan(frames, hosts):
    n5 = Lattice.from_relation(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    m3 = gen_diamond()
    lats = [fw.lattice for fw in frames] + [h.as_lattice for h in hosts]
    lats += [m3, n5, gen_product(m3, gen_chain(2)), gen_product(n5, gen_chain(3))]
    seen = set()
    for lat in lats:
        ok = next(distributivity_violations(lat), None) is None
        assert ok == (not scan_distributivity(lat)) == lat.is_distributive()
        seen.add(ok)
    assert seen == {True, False}


def test_heyting_adjunction_matches_the_triple_scan(frames):
    rng = random.Random(0)
    seen = set()
    for fw in frames:
        lat = fw.lattice
        tables = [fw.heyting_table]
        if lat.n > 1:
            tables.append(_planted(fw.heyting_table, rng, swap=False))
        for hey in tables:
            ok = not list(adjunction_violations(lat, lat.meet_table, hey))
            assert ok == (not scan_heyting_adjunction(lat, hey))
            assert ok == (hey is fw.heyting_table)
            seen.add(ok)
    assert seen == {True, False}


def _diff_table(host):
    return tuple(tuple(host.diff(s, t) for t in range(host.size)) for s in range(host.size))


def _with_elems(host, elems):
    """A copy of the host whose member masks are ``elems``."""
    broken = copy.copy(host)
    broken.elems = tuple(elems)
    broken.index = {m: i for i, m in enumerate(broken.elems)}
    return broken


def _swapped(host, rng):
    """The host with two member masks swapped, and the two indices."""
    i, j = sorted(rng.sample(range(host.size), 2))
    elems = list(host.elems)
    elems[i], elems[j] = elems[j], elems[i]
    return _with_elems(host, elems), (i, j)


def _dropped(host, i, t):
    """The host with member ``t`` dropped from sublocale ``i``."""
    elems = list(host.elems)
    elems[i] &= ~(1 << t)
    return _with_elems(host, elems)


def test_difference_adjunction_matches_the_triple_scan(frames, hosts):
    rng = random.Random(0)
    seen = set()
    # the fitted hosts' differences are down-closed differences of prime
    # sets, the frames' the dual's arrow
    pairs = [(host.as_lattice, _diff_table(host)) for host in hosts if host.fitted]
    pairs += [(fw.lattice, CoframeWitness.of(fw.lattice).difference_table) for fw in frames]
    for lat, diff in pairs:
        tables = [diff]
        if lat.n > 1:
            tables.append(_planted(diff, rng, swap=True))
        for table in tables:
            ok = not list(adjunction_violations(lat, tuple(zip(*table)), lat.join_table))
            assert ok == (not scan_difference_adjunction(lat, table))
            assert ok == (table is diff)
            seen.add(ok)
    assert seen == {True, False}


def test_difference_adjunction_on_sl_is_the_order_embedding(hosts):
    """On ``S(L)`` the check is ``Q -> members(Q)`` as an order embedding,
    tested on covers; the oracle tests every pair.  Swapped members are
    caught.  A dropped member that no lower cover holds keeps the order,
    and the verdicts agree there too."""
    rng = random.Random(3)
    seen = set()
    for host in hosts:
        if host.fitted:
            continue
        assert difference_adjunction_violations(host) == scan_prime_set_order(host) == []
        if host.size <= 32:
            assert scan_difference_adjunction(host.as_lattice, _diff_table(host)) == []
        seen.add(True)
        if host.size < 2:
            continue
        broken, (i, j) = _swapped(host, rng)
        got = difference_adjunction_violations(broken)
        assert ("primes", i) in got and ("primes", j) in got
        assert scan_prime_set_order(broken) != []
        seen.add(False)
        i = rng.randrange(host.size)
        broken = _dropped(host, i, rng.choice(list(bits(host.elems[i]))))
        assert (not difference_adjunction_violations(broken)) == (not scan_prime_set_order(broken))
    assert seen == {True, False}


def test_pairwise_meet_joins_match_the_closure_of_union(hosts):
    """Both hosts pass the cover check and the oracle's tables; one dropped
    member fails both, and the check names its index."""
    rng = random.Random(0)
    seen = set()
    for host in hosts:
        got, want = host_law_violations(host), scan_host_laws(host)
        assert got == [] and want == []
        seen.add(True)
        if host.size < 3:
            continue
        i = rng.randrange(host.size)
        broken = _dropped(host, i, rng.choice(list(bits(host.elems[i]))))
        got, want = host_law_violations(broken), scan_host_laws(broken)
        assert got != [] and want != []
        assert any(i in v[2:] for v in got)
        assert {v[0] for v in got} == {"SoL" if host.fitted else "SL"}
        seen.add(False)
    assert seen == {True, False}


def test_full_host_laws_catch_every_member_slip(hosts):
    """Every single dropped member of either host, on every fitted host and
    on the full hosts of at most 16 sublocales, and one swap of two member
    masks per host, is caught and named by its index."""
    rng = random.Random(5)
    cases = Counter()
    for host in hosts:
        if not host.fitted and host.size > 16:
            continue
        for i, m in enumerate(host.elems):
            for t in bits(m):
                got = host_law_violations(_dropped(host, i, t))
                assert any(i in v[2:] for v in got), (i, t)
                cases[host.fitted] += 1
        if host.size > 1:
            broken, (i, j) = _swapped(host, rng)
            got = host_law_violations(broken)
            label = "SoL" if host.fitted else "SL"
            assert (label, "primes", i) in got and (label, "primes", j) in got
            cases[host.fitted] += 1
    assert cases[False] > 500 and cases[True] > 1000


def test_only_the_fittedness_test_catches_an_unfitted_index():
    """A fitted host on chain3 that also holds the prime set ``{1}``, not
    down-closed: its members are a true sublocale, ``{1, 2}``, so the prime
    parts and the covers hold, and only the fittedness test names it; the
    oracle's fitted join of it with itself fails too."""
    sl = enumerate_sublocales(FrameWitness.of(gen_chain(3)))
    planted = SublocaleCoframe(sl.ambient, sl.points, fitted=True, parent=sl)
    i = planted.point_index[0b10]
    assert planted.elems[i] == 0b110 and sl.fit(sl.point_index[0b10]) != sl.point_index[0b10]
    assert host_law_violations(planted) == [("SoL", "fitted", i)]
    assert scan_host_laws(planted) != []
    assert host_law_violations(sl) == []


def test_inclusion_identity_matches_the_triple_scan(hosts):
    rng = random.Random(12)
    seen = set()
    for host in hosts:
        if host.fitted:
            continue
        assert inclusion_identity_violations(host) == scan_inclusion_identity(host) == []
        seen.add(True)
        # drop one member of one sublocale: only that index may be named
        s = rng.randrange(host.size)
        broken = _dropped(host, s, rng.choice(list(bits(host.elems[s]))))
        got = inclusion_identity_violations(broken)
        assert got == scan_inclusion_identity(broken)
        assert {vs for vs, _, _ in got} <= {s}
        seen.add(not got)
    assert seen == {True, False}


def _moved_fit(host, s, to):
    """A copy of the host, with a memo of its own, whose fit sends ``s`` to
    ``to``."""
    broken = copy.copy(host)
    broken.memo = {}
    fit = list(host.fit_index)
    fit[s] = to
    broken.fit_index = tuple(fit)
    return broken


def _fit_plants(hosts, rng, onto_fitted=False):
    """Each full host, and a copy with one fit entry moved to another index,
    or to another fitted one."""
    for host in hosts:
        if host.fitted:
            continue
        yield host
        if host.size > 1:
            s = rng.randrange(host.size)
            targets = set(host.fit_index) if onto_fitted else range(host.size)
            others = sorted(i for i in targets if i != host.fit_index[s])
            if others:
                yield _moved_fit(host, s, rng.choice(others))


def test_fit_monotone_on_covers_matches_every_pair(hosts):
    """The covers half of ``fit-is-a-closure-operator`` against all ``k^2``
    pairs, on the hosts and with one fit entry moved to another index."""
    rng = random.Random(7)
    seen = set()
    for sl in _fit_plants(hosts, rng):
        covers_bad = [v for v in fit_closure_violations(sl) if isinstance(v, tuple)]
        ok = not covers_bad
        assert ok == (not scan_fit_monotone(sl))
        seen.add(ok)
    assert seen == {True, False}


def test_fit_closure_rows_match_the_definition(hosts):
    """The index rows of ``fit-is-a-closure-operator`` are the ``s`` with
    ``s <= fit(s)`` or ``fit(fit(s)) = fit(s)`` failing, on the hosts and
    with one fit entry moved."""
    rng = random.Random(13)
    seen = set()
    for sl in _fit_plants(hosts, rng):
        got = [v for v in fit_closure_violations(sl) if isinstance(v, int)]
        assert got == [s for s in range(sl.size)
                       if not sl.leq(s, sl.fit(s)) or sl.fit(sl.fit(s)) != sl.fit(s)]
        seen.add(not got)
    assert seen == {True, False}


def test_fit_of_closed_trim_on_prime_sets_matches_the_member_masks(hosts):
    """``fit-of-closed-trim-depends-only-on-fit`` read on prime sets lists
    the same pairs as on member masks, on the hosts and with one fit entry
    moved."""
    rng = random.Random(8)
    seen = set()
    for sl in _fit_plants(hosts, rng):
        got = fit_closed_trim_violations(sl)
        assert got == scan_fit_closed_trim(sl)
        seen.add(not got)
    assert seen == {True, False}


def test_kernels_on_prime_sets_match_ker_on_member_masks(hosts):
    """``ker-is-phi-after-fit-and-hits-exact-filters`` with the kernels read
    on prime sets lists the same rows as with ``ker`` on member masks, on
    the hosts and with one fit entry moved to another fitted index."""
    rng = random.Random(9)
    seen = set()
    for sl in _fit_plants(hosts, rng, onto_fitted=True):
        sl_o = sl.fitted_subcoframe()
        phis = [phi(sl_o, i) for i in range(sl_o.size)]
        got = ker_violations(sl, sl_o, phis)
        assert got == scan_ker_phi(sl, sl_o, phis)
        seen.add(not got)
    assert seen == {True, False}


def test_prime_parts_match_the_fold(hosts):
    """The subset-recurrence table of prime parts names the same indices as
    a fold of each index's primes, on both hosts and with two member masks
    swapped or one member dropped."""
    rng = random.Random(10)
    seen = set()
    for host in hosts:
        plants = [host]
        if host.size > 1:
            plants.append(_swapped(host, rng)[0])
            i = rng.randrange(host.size)
            plants.append(_dropped(host, i, rng.choice(list(bits(host.elems[i])))))
        for h in plants:
            got = _prime_part_violations(h)
            assert got == scan_prime_parts(h)
            seen.add(not got)
    assert seen == {True, False}


def test_cover_joins_on_lanes_match_the_member_fold(hosts):
    """The join rows of ``host_law_violations``, one OR per index over its
    members' packed meets, are the rows of a fold per cover, on both hosts
    and with one member dropped."""
    rng = random.Random(11)
    seen = set()
    for host in hosts:
        plants = [host]
        if host.size > 1:
            i = rng.randrange(host.size)
            plants.append(_dropped(host, i, rng.choice(list(bits(host.elems[i])))))
        for h in plants:
            got = [v for v in host_law_violations(h) if v[1] == "join"]
            assert got == scan_cover_joins(h)
            seen.add(not got)
    assert seen == {True, False}


def test_phi_order_on_irreducibles_matches_every_pair(hosts):
    """``phi`` injective and sending joins with the join-irreducibles to
    intersections, against ``phi`` reversing inclusion on every pair, on
    each fitted host's ``phi`` and with two of its values swapped or one
    repeated.  Every ``(x, j)`` named fails the join law."""
    rng = random.Random(12)
    seen = set()
    for sl_o in hosts:
        if not sl_o.fitted:
            continue
        phis = [phi(sl_o, i) for i in range(sl_o.size)]
        plants = [phis]
        if sl_o.size > 1:
            i, j = rng.sample(range(sl_o.size), 2)
            swapped, repeated = list(phis), list(phis)
            swapped[i], swapped[j] = phis[j], phis[i]
            repeated[i] = phis[j]
            plants += [swapped, repeated]
        for t in plants:
            got = phi_order_violations(sl_o, t)
            injective = len(set(t)) == len(t)
            assert (not got) == (injective and not scan_phi_order(sl_o, t))
            assert ("phi not injective" in got) == (not injective)
            for x, j in got[not injective:]:
                assert t[sl_o.join(x, j)] != t[x] & t[j]
            seen.add(not got)
    assert seen == {True, False}


def _plant_point_fit(sl, monkeypatch):
    # b(p) = {p, top}; the prime with the largest up-set has more above it
    fw = sl.ambient
    p = max(bits(fw.primes), key=lambda q: bin(fw.lattice.up[q]).count("1"))
    assert fw.lattice.up[p] != b_mask(fw, p)
    return _moved_fit(sl, sl.index[b_mask(fw, p)], sl.size - 1)


def _plant_swapped_opens(sl, monkeypatch):
    lat = sl.ambient.lattice
    opens = list(sl.open_index)
    opens[lat.bottom], opens[lat.top] = opens[lat.top], opens[lat.bottom]
    sl.open_index = tuple(opens)
    return sl


def _plant_open_difference(sl, monkeypatch):
    # the fitted host forgets to down-close a difference
    sl_o = sl.fitted_subcoframe()
    sl_o._close = range(len(sl_o._close))
    return sl


def _plant_covered_primes(sl, monkeypatch):
    monkeypatch.setattr(report, "covered_primes", lambda fw: fw.primes & (fw.primes - 1))
    return sl


# for each laws check no other test plants, a fault under which it must fail
LAWS_PLANTS = {
    "fit-of-closed-trim-depends-only-on-fit": lambda sl, mp: _moved_fit(sl, sl.size - 1, 0),
    "fitted-difference-is-fit-of-closed-trim": _plant_open_difference,
    "ker-is-phi-after-fit-and-hits-exact-filters": _plant_swapped_opens,
    "point-sublocale-identity": _plant_point_fit,
    "covered-primes-equal-primes": _plant_covered_primes,
}


@pytest.mark.parametrize("lat", [gen_chain(4), gen_product(gen_chain(2), gen_chain(3))],
                         ids=["chain4", "c2xc3"])
def test_each_planted_fault_fails_its_laws_check(lat, monkeypatch):
    """The laws suite passes unplanted, and each plant of ``LAWS_PLANTS``
    fails the check it is listed under."""
    fw = FrameWitness.of(lat)
    assert laws_suite("", fw)["ok"]
    for name, plant in LAWS_PLANTS.items():
        with monkeypatch.context() as mp:
            sl = plant(fresh_sublocales(fw), mp)
            mp.setattr(report, "enumerate_sublocales", lambda fw, limits: sl)
            checks = {c["check"]: c for c in laws_suite("", fw)["checks"]}
            assert not checks[name]["ok"], name


def test_laws_checks_build_no_table_on_sl(monkeypatch):
    """The laws suite and its host checks leave ``as_lattice`` unbuilt on
    both hosts: nothing of size ``k^2`` enters either ``__dict__``."""
    fw = FrameWitness.of(gen_chain(8))
    sl = enumerate_sublocales(fw)
    sl_o = sl.fitted_subcoframe()
    assert host_law_violations(sl) == host_law_violations(sl_o) == []
    assert difference_adjunction_violations(sl) == fit_closure_violations(sl) == []
    assert inclusion_identity_violations(sl) == []
    assert not {"as_lattice", "coframe"} & (set(vars(sl)) | set(vars(sl_o)))
    assert not hasattr(sl, "coframe")
    built = []

    def build(*args):
        built.append(enumerate_sublocales(*args))
        return built[-1]

    monkeypatch.setattr(report, "enumerate_sublocales", build)
    assert laws_suite("chain8", fw)["ok"]
    assert len(built) == 1
    for host in (built[0], built[0].fitted_subcoframe()):
        assert not {"as_lattice", "coframe"} & set(vars(host))


def test_laws_suite_lists_each_hosts_covers_once(monkeypatch):
    """Three checks walk the covers of ``S(L)`` and two its prime parts; the
    suite lists each once per host and hands them on, keeping nothing on
    the host."""
    calls, listed = Counter(), []
    real_covers, real_primes = SublocaleCoframe.covers, report._prime_part_violations

    def covers(host):
        calls["covers", host.fitted] += 1
        listed.append(real_covers(host))
        return listed[-1]

    def prime_parts(host):
        calls["primes", host.fitted] += 1
        return real_primes(host)

    monkeypatch.setattr(SublocaleCoframe, "covers", covers)
    monkeypatch.setattr(report, "_prime_part_violations", prime_parts)
    built = []

    def build(*args):
        built.append(enumerate_sublocales(*args))
        return built[-1]

    monkeypatch.setattr(report, "enumerate_sublocales", build)
    assert laws_suite("chain6", FrameWitness.of(gen_chain(6)))["ok"]
    assert calls == Counter({("covers", False): 1, ("covers", True): 1,
                             ("primes", False): 1, ("primes", True): 1})
    for host in (built[0], built[0].fitted_subcoframe()):
        assert not any(v is c for v in vars(host).values() for c in listed)
