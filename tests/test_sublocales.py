import random

import pytest

from subloc import (DEFAULT_LIMITS, SizeLimit, enumerate_sublocales,
                    exact_filters, is_exact_sublocale, ker, phi, strongly_exact_filters)
from subloc.bits import bit, bits
from subloc import sublocales
from subloc.corpus import gen_boolean, gen_chain, gen_opens_of_topology, gen_product
from subloc.report import laws_suite
from subloc.subcolocales import enumerate_subcolocales, least_related, leq_f
from subloc.lattice import FrameWitness
from subloc.sublocales import (all_filters, are_principal_precongruences, b_mask, closed_mask,
                               nucleus_element, open_mask)

from oracles import (NaiveOps, Precongruence, fit_mask, generate_sublocales, host_mismatches,
                     is_precongruence, is_sublocale, precongruence_to_sublocale, scan_filters,
                     sublocale_closure,
                     sublocale_join, sublocale_to_precongruence,
                     scan_precongruence, scan_sublocales, table_hosts)


def members_set(mask: int) -> frozenset:
    return frozenset(bits(mask))


def test_chain3_sublocales_frozen(hosts):
    sl = hosts["chain3"]
    assert sl.elems == (4, 5, 6, 7)
    assert sl.open_index == (0, 1, 3)
    assert sl.closed_index == (3, 2, 0)
    slo = sl.fitted_subcoframe()
    assert slo.elems == (4, 5, 7)


def test_boolean2_sublocales_are_upsets(hosts):
    assert hosts["bool2"].elems == (8, 10, 12, 15)


def test_open_closed_b_masks_frozen(c3):
    assert [open_mask(c3, a) for a in range(3)] == [4, 5, 7]
    assert [closed_mask(c3, a) for a in range(3)] == [7, 6, 4]
    assert b_mask(c3, 0) == 5
    assert b_mask(c3, 2) == 4


def test_sublocale_counts_on_chains_and_booleans(hosts):
    for n in range(1, 7):
        assert hosts[f"chain{n}"].size == 1 << (n - 1)
    for k in range(4):
        assert hosts[f"bool{k}"].size == 1 << k


def test_enumeration_matches_naive_oracle(corpus, hosts):
    for cf in corpus:
        ops = NaiveOps(cf.frame.lattice.up)
        got = {members_set(m) for m in hosts[cf.name].elems}
        assert got == ops.sublocales(), cf.name


def oracle_frames(corpus):
    """The corpus, chain7, chain8, the grids 3x3 and 3x4, and three frames
    of 16 and 32 elements (c2 x c2 x c4, bool4 and bool5) that the table
    oracle reaches by generation."""
    extra = {"chain7": gen_chain(7),
             "chain8": gen_chain(8),
             "grid3x3": gen_product(gen_chain(3), gen_chain(3)),
             "grid3x4": gen_product(gen_chain(3), gen_chain(4)),
             "c2xc2xc4": gen_product(gen_boolean(2), gen_chain(4)),
             "bool4": gen_boolean(4),
             "bool5": gen_boolean(5)}
    return ([(cf.name, cf.frame) for cf in corpus]
            + [(name, FrameWitness.of(lat)) for name, lat in extra.items()])


def test_prime_set_hosts_match_table_oracle(corpus):
    """Both hosts' indices, lazily built lattices and covers, and their
    ``meet``, ``join``, ``diff`` and ``leq`` on every pair of indices, against
    the tables of :class:`oracles.TableHost` (``host_mismatches``)."""
    for name, fw in oracle_frames(corpus):
        sl = enumerate_sublocales(fw)
        table_sl, table_slo = table_hosts(fw)
        assert host_mismatches(sl, table_sl) == [], name
        assert host_mismatches(sl.fitted_subcoframe(), table_slo) == [], name


def test_generation_oracle_agrees_with_scan_oracle(corpus):
    for cf in corpus:
        if cf.frame.lattice.n <= 6:
            assert generate_sublocales(cf.frame) == scan_sublocales(cf.frame), cf.name


def test_max_sublocales_bound_refuses_before_building(monkeypatch):
    fw = FrameWitness.of(gen_chain(5))  # 4 primes, 16 sublocales
    assert enumerate_sublocales(fw, DEFAULT_LIMITS.with_(max_sublocales=16)).size == 16

    def build(*args, **kwargs):
        raise AssertionError("S(L) was built past its bound")

    monkeypatch.setattr(sublocales, "SublocaleCoframe", build)
    with pytest.raises(SizeLimit):
        enumerate_sublocales(fw, DEFAULT_LIMITS.with_(max_sublocales=15))


def test_nucleus_of_closed_is_join(corpus):
    for cf in corpus:
        lat = cf.frame.lattice
        for a in range(lat.n):
            cm = closed_mask(cf.frame, a)
            om = open_mask(cf.frame, a)
            for x in range(lat.n):
                assert nucleus_element(cf.frame, cm, x) == lat.join_table[x][a]
                assert nucleus_element(cf.frame, om, x) == cf.frame.heyting_table[a][x]


def test_host_nucleus_matches_the_meet_of_members_above(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        for host in (sl, sl.fitted_subcoframe()):
            for i, m in enumerate(host.elems):
                assert host.nucleus(i) == tuple(nucleus_element(cf.frame, m, a)
                                                for a in range(cf.frame.lattice.n))


def test_closure_is_least_sublocale_around(corpus, hosts):
    for cf in corpus:
        lat = cf.frame.lattice
        if lat.n > 5:
            continue
        sl = hosts[cf.name]
        for m in range(1 << lat.n):
            closed = sublocale_closure(cf.frame, m)
            assert is_sublocale(cf.frame, closed)
            assert m & ~closed == 0
            least = lat.full_mask
            for t in sl.elems:
                if m & ~t == 0:
                    least &= t
            assert closed == least


def test_fit_matches_naive_oracle(corpus, hosts):
    for cf in corpus:
        ops = NaiveOps(cf.frame.lattice.up)
        sl = hosts[cf.name]
        for i, m in enumerate(sl.elems):
            assert members_set(sl.elems[sl.fit(i)]) == ops.fit(members_set(m))
            assert fit_mask(cf.frame, m) == sl.elems[sl.fit(i)]


def test_sublocale_join_is_least_upper_bound(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        if sl.size > 8:
            continue
        for i in range(sl.size):
            for j in range(sl.size):
                got = sublocale_join(sl, [i, j])
                union = sl.elems[i] | sl.elems[j]
                least = sl.ambient.lattice.full_mask
                for t in sl.elems:
                    if union & ~t == 0:
                        least &= t
                assert sl.elems[got] == least


def test_fitted_subcoframe_is_meet_closed_opens(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        slo = sl.fitted_subcoframe()
        opens = {sl.elems[sl.open_index[a]] for a in range(cf.frame.lattice.n)}
        expect = set(opens)
        for a in opens:
            for b in opens:
                expect.add(a & b)
        assert set(slo.elems) == expect


def test_all_filters_are_principal(corpus):
    for cf in corpus:
        lat = cf.frame.lattice
        filters = all_filters(cf.frame)
        assert filters == scan_filters(lat)
        assert len(filters) == lat.n
        assert set(filters) == {lat.up[a] for a in range(lat.n)}


def test_laws_suite_ok_on_discrete_four_point_topology():
    # 16 elements: above the subset-scan bound, which the filter scan used
    # to refuse with SizeLimit
    fw = FrameWitness.of(gen_opens_of_topology(4, range(16)))
    assert fw.lattice.n > 12
    assert len(all_filters(fw)) == 16
    result = laws_suite("top4-discrete", fw)
    assert result["ok"], [c for c in result["checks"] if not c["ok"]]


def test_exact_and_strongly_exact_filters_collapse(corpus):
    # finite scale: every meet is (strongly) exact, so no filter is excluded
    for cf in corpus:
        allf = set(all_filters(cf.frame))
        assert set(strongly_exact_filters(cf.frame)) == allf
        assert set(exact_filters(cf.frame)) == allf


def test_phi_sends_opens_to_principal_filters(corpus, hosts):
    for cf in corpus:
        lat = cf.frame.lattice
        slo = hosts[cf.name].fitted_subcoframe()
        for a in range(lat.n):
            assert phi(slo, slo.open_index[a]) == lat.up[a]


def test_phi_is_a_bijection_onto_strongly_exact_filters(corpus, hosts):
    for cf in corpus:
        slo = hosts[cf.name].fitted_subcoframe()
        phis = [phi(slo, i) for i in range(slo.size)]
        assert len(set(phis)) == slo.size
        assert sorted(phis) == sorted(strongly_exact_filters(cf.frame))
        for i in range(slo.size):
            for j in range(slo.size):
                assert slo.leq(i, j) == (phis[j] & ~phis[i] == 0)


def test_ker_is_phi_after_fit(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        slo = sl.fitted_subcoframe()
        for i in range(sl.size):
            assert ker(sl, i) == phi(slo, slo.index[sl.elems[sl.fit(i)]])


def test_kernels_of_smallest_codense_are_exact_filters(corpus, hosts):
    from subloc.subcolocales import sb
    for cf in corpus:
        sl = hosts[cf.name]
        kers = {ker(sl, i) for i in bits(sb(sl))}
        assert kers == set(exact_filters(cf.frame))


def test_precongruence_roundtrip_is_identity(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        for m in sl.elems:
            r = sublocale_to_precongruence(cf.frame, m)
            assert precongruence_to_sublocale(cf.frame, r) == m


def test_all_precongruences_on_tiny_frames_come_from_sublocales(hosts):
    for name in ("chain2", "chain3"):
        sl = hosts[name]
        fw = sl.ambient
        n = fw.lattice.n
        found = []
        for pick in range(1 << (n * n)):
            rel = tuple((pick >> (n * x)) & ((1 << n) - 1) for x in range(n))
            if is_precongruence(fw, rel):
                found.append(rel)
        expected = {sublocale_to_precongruence(fw, m).rel for m in sl.elems}
        assert set(found) == expected
        assert len(found) == sl.size


def collapsed(lat, keep: int) -> tuple[int, ...]:
    """The preorder ``x <= y``, or ``x`` and ``y`` both outside ``keep``."""
    rest = lat.full_mask & ~keep
    return tuple(lat.up[x] | (rest if (rest >> x) & 1 else 0) for x in range(lat.n))


def test_precongruence_matches_the_pairwise_scan(corpus):
    # leq_f of every subcolocale of a corpus fitted host is a precongruence;
    # random masks of the host, which need not be subcolocales, give the rest.
    # Its rows are the up-sets of least_related's entries, which the principal
    # check reads, one map at a time here; that check also meets random maps
    # and maps x -> x ^ c (which pass) with one entry moved
    rng = random.Random(3307)
    verdicts = {"row": [], "column": [], "leq_f": [], "map": []}
    for cf in corpus:
        fw = cf.frame
        lat = fw.lattice
        # collapsing every element above the bottom leaves a relation whose
        # rows and columns pass every closure test; its one row {x > bottom}
        # is meet-stable iff no two such x meet to the bottom.  Collapsing
        # every element below the top is the dual, with the column {x < top}
        for kind, keep in (("row", bit(lat.bottom)), ("column", bit(lat.top))):
            rel = collapsed(lat, keep)
            got = is_precongruence(fw, rel)
            assert got == scan_precongruence(fw, rel), (cf.name, kind)
            verdicts[kind].append(got)
        sl_o = enumerate_sublocales(fw).fitted_subcoframe()
        masks = list(enumerate_subcolocales(sl_o))
        masks += [rng.randrange(1 << sl_o.size) for _ in range(4)]
        maps = []
        for members in masks:
            rows = least_related(sl_o, members, members)
            for k, f in enumerate(bits(members)):
                g = [row[k] for row in rows]
                assert leq_f(sl_o, members, f) == tuple(lat.up[y] for y in g)
                maps.append(("leq_f", g))
        n = lat.n
        for _ in range(8):
            g = list(lat.meet_table[rng.randrange(n)])
            g2 = g[:]
            g2[rng.randrange(n)] = rng.randrange(n)
            maps += [("map", g), ("map", g2), ("map", [rng.randrange(n) for _ in range(n)])]
        for kind, g in maps:
            rel = tuple(lat.up[y] for y in g)
            got = is_precongruence(fw, rel)
            assert got == scan_precongruence(fw, rel) == are_principal_precongruences(
                fw, [[y] for y in g]), (cf.name, g)
            verdicts[kind].append(got)
    assert all(set(v) == {True, False} for v in verdicts.values())


def test_batched_precongruence_matches_the_scan_of_each_map(corpus):
    # are_principal_precongruences decides every column of its rows at once.
    # The least_related maps of the full fitted collection all pass; one
    # column replaced by a map that breaks that member only must fail the
    # batch iff the scan fails that map.  The map that keeps every element
    # but sends the top to the bottom meets clauses (i) and (ii), so on a
    # frame of three or more elements it fails by clause (iii) alone
    rng = random.Random(4409)
    verdicts = []
    for cf in corpus:
        fw = cf.frame
        lat = fw.lattice
        n = lat.n
        sl_o = enumerate_sublocales(fw).fitted_subcoframe()
        full = (1 << sl_o.size) - 1
        columns = [list(c) for c in zip(*least_related(sl_o, full, full))]
        dropped = list(range(n))
        dropped[lat.top] = lat.bottom
        moved = columns[rng.randrange(len(columns))][:]
        moved[rng.randrange(n)] = rng.randrange(n)
        for g in (columns[0], dropped, moved):
            k = rng.randrange(len(columns))
            batch = columns[:k] + [g] + columns[k + 1:]
            got = are_principal_precongruences(fw, [list(r) for r in zip(*batch)])
            assert got == all(scan_precongruence(fw, tuple(lat.up[y] for y in c))
                              for c in batch), (cf.name, g)
            assert got == scan_precongruence(fw, tuple(lat.up[y] for y in g)), (cf.name, g)
            verdicts.append(got)
        if n >= 3:
            assert not are_principal_precongruences(fw, [[y] for y in dropped])
    assert set(verdicts) == {True, False}


def test_precongruence_matches_the_pairwise_scan_on_every_relation_of_bool2():
    fw = FrameWitness.of(gen_boolean(2))
    n = fw.lattice.n
    found = []
    for pick in range(1 << (n * n)):
        rel = tuple((pick >> (n * x)) & ((1 << n) - 1) for x in range(n))
        got = is_precongruence(fw, rel)
        assert got == scan_precongruence(fw, rel), rel
        found.append(got)
    assert found.count(True) == 4


def test_precongruence_constructor_validates(c3):
    with pytest.raises(ValueError):
        Precongruence.of(c3, (0, 0, 0))
    r = sublocale_to_precongruence(c3, 5)
    assert Precongruence.of(c3, r.rel) == r


def test_roundtrip_from_precongruence_side(hosts):
    # every precongruence on these frames arises from a sublocale, so the
    # opposite composition is the identity as well
    for name in ("chain3", "bool2"):
        sl = hosts[name]
        fw = sl.ambient
        for m in sl.elems:
            r = sublocale_to_precongruence(fw, m)
            again = sublocale_to_precongruence(
                fw, precongruence_to_sublocale(fw, r))
            assert again == r


def test_every_sublocale_is_exact_at_finite_scale(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        for m in sl.elems:
            assert is_exact_sublocale(cf.frame, m)


def test_scan_size_limit():
    fw = FrameWitness.of(gen_chain(13))
    with pytest.raises(SizeLimit):
        enumerate_sublocales(fw, DEFAULT_LIMITS.with_(max_sublocales=64))
