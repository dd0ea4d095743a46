import gc
import sys
import weakref

import pytest

from subloc import (FrameWitness, NotProper,
                    Subcolocale, adjunction_check, conucleus, delta,
                    enumerate_subcolocales, enumerate_sublocales, fit_image,
                    generated_subcolocale,
                    is_codense, is_essential, is_proper, is_subcolocale,
                    join_closure, leq_f, saturated_elements, sb, se, sigma, ssp)
from subloc.bits import bits, mask_of
from subloc.corpus import gen_chain, gen_product, standard_corpus
from subloc.subcolocales import generated_closed_form

from oracles import NaiveOps, host_read_mismatches, scan_subcolocales


def host_naive_ops(host):
    """Rebuild the host order from raw member-mask inclusion."""
    up = [mask_of(j for j, mj in enumerate(host.elems) if mi & ~mj == 0)
          for mi in host.elems]
    return NaiveOps(up)


def idx_set(mask: int) -> frozenset:
    return frozenset(bits(mask))


def test_subcolocales_of_chain_coframe(hosts):
    # the fitted host of chain3 is a 3-chain
    host = hosts["chain3"].fitted_subcoframe()
    assert host.as_lattice == gen_chain(3)
    found = enumerate_subcolocales(host)
    # any subset containing the bottom works on a chain
    assert len(found) == 4
    assert all(m & 1 for m in found)
    assert len(enumerate_subcolocales(host, "codense")) == 2


def test_subcolocale_counts_on_boolean_hosts(hosts):
    # hosts shaped like Boolean algebras admit exactly the principal
    # down-intervals as subcolocales
    for name, k in (("chain3", 4), ("chain4", 8), ("chain5", 16)):
        host = hosts[name]
        found = enumerate_subcolocales(host)
        assert len(found) == k
        for m in found:
            top_idx = max(bits(m))
            assert m == mask_of(i for i in range(host.size)
                                if host.leq(i, top_idx))
        assert enumerate_subcolocales(host, "codense") == ((1 << k) - 1,)


def test_membership_matches_naive_oracle(hosts):
    for name in ("chain3", "chain4", "bool2", "bool3"):
        host = hosts[name]
        ops = host_naive_ops(host)
        naive = {m for m in range(1 << host.size)
                 if ops.is_subcolocale(idx_set(m))}
        got = {m for m in range(1 << host.size) if is_subcolocale(host, m)}
        assert got == naive
        assert set(enumerate_subcolocales(host)) == naive


def test_membership_on_fitted_hosts(hosts):
    for name in ("chain4", "bool2", "top3-00"):
        host = hosts[name].fitted_subcoframe()
        ops = host_naive_ops(host)
        for m in range(1 << host.size):
            assert is_subcolocale(host, m) == ops.is_subcolocale(idx_set(m))


def test_codense_means_containing_the_top(hosts):
    host = hosts["chain4"]
    for m in enumerate_subcolocales(host):
        assert is_codense(host, m) == bool((m >> (host.size - 1)) & 1)
    assert enumerate_subcolocales(host, "codense") == ((1 << host.size) - 1,)


def test_conucleus_is_largest_member_below(hosts):
    host = hosts["chain4"]
    for d in enumerate_subcolocales(host):
        for c in range(host.size):
            below = [i for i in bits(d) if host.leq(i, c)]
            best = max(below, key=lambda i: bin(host.elems[i]).count("1"))
            assert conucleus(host, d, c) == best
            assert host.leq(conucleus(host, d, c), c)


def test_join_closure_and_generated_subcolocale(hosts):
    for name in ("chain3", "chain4", "bool2"):
        host = hosts[name]
        all_subs = set(enumerate_subcolocales(host))
        for seed in range(1 << host.size):
            jc = join_closure(host, seed)
            assert seed & ~jc == 0 and (jc & 1 or host.size == 0)
            gen = generated_subcolocale(host, seed)
            assert gen in all_subs and seed & ~gen == 0
            least = (1 << host.size) - 1
            for t in all_subs:
                if seed & ~t == 0:
                    least &= t
            assert gen == least


def test_generated_closed_form_double_entry(hosts):
    # the rectangle closed form and the generic fixpoint must agree
    for name in ("chain3", "chain4", "bool2", "bool3"):
        host = hosts[name]
        for seed in range(1 << host.size):
            assert generated_closed_form(host, seed) == \
                generated_subcolocale(host, seed)


def test_distinguished_subcolocales_fill_everything(corpus, hosts):
    for cf in corpus:
        host = hosts[cf.name]
        full = (1 << host.size) - 1
        assert sb(host) == full
        assert ssp(host) == full
        assert se(host) == full


def test_sb_is_smallest_codense(hosts):
    for name in ("chain4", "bool2", "bool3"):
        host = hosts[name]
        for m in enumerate_subcolocales(host, "codense"):
            assert sb(host) & ~m == 0


def test_fit_image_of_full_is_full(corpus, hosts):
    for cf in corpus:
        host = hosts[cf.name]
        slo = host.fitted_subcoframe()
        full = (1 << host.size) - 1
        assert fit_image(host, slo, full) == (1 << slo.size) - 1


def test_leq_f_of_an_open_is_its_preorder(hosts):
    for name in ("chain3", "bool2"):
        host = hosts[name]
        slo = host.fitted_subcoframe()
        lat = host.ambient.lattice
        full = (1 << slo.size) - 1
        for a in range(lat.n):
            rel = leq_f(slo, full, slo.open_index[a])
            for y in range(lat.n):
                assert rel[y] == lat.up[lat.meet_table[a][y]]


def test_leq_f_matches_the_pairwise_definition(corpus, hosts):
    cases = 0
    for cf in corpus:
        slo = hosts[cf.name].fitted_subcoframe()
        n = slo.ambient.lattice.n
        for members in enumerate_subcolocales(slo):
            for f in bits(members):
                rel = leq_f(slo, members, f)
                for x in range(n):
                    fx = conucleus(slo, members, slo.meet(f, slo.open_of(x)))
                    assert rel[x] == mask_of(y for y in range(n)
                                             if slo.leq(fx, slo.open_of(y))), (cf.name, f, x)
                    cases += 1
    assert cases > 1000


def test_opens_above_dies_with_its_host():
    slo = enumerate_sublocales(FrameWitness.of(gen_product(gen_chain(2), gen_chain(3)))
                               ).fitted_subcoframe()
    assert is_proper(slo, (1 << slo.size) - 1)
    table = slo.opens_above
    assert table is slo.opens_above
    host = weakref.ref(slo)
    held = sys.getrefcount(table)
    del slo
    gc.collect()
    assert host() is None
    # left are the name ``table`` and getrefcount's argument: the host held
    # the only other reference, so no cache outside it keeps the table
    assert sys.getrefcount(table) == held - 1 == 2


def test_full_fitted_collection_is_proper(corpus, hosts):
    for cf in corpus:
        slo = hosts[cf.name].fitted_subcoframe()
        assert is_proper(slo, (1 << slo.size) - 1)


def test_improper_collection_detected():
    from subloc import FrameWitness, enumerate_sublocales
    fw = FrameWitness.of(gen_chain(4))
    sl = enumerate_sublocales(fw)
    slo = sl.fitted_subcoframe()
    assert slo.size == 4
    # drop the open of element 2: still a codense subcolocale of the
    # fitted chain, but no longer contains every open, hence not proper
    members = 0b1011
    assert is_subcolocale(slo, members)
    assert is_codense(slo, members)
    assert not is_proper(slo, members)
    # the intersection formula still happens to validate here: on a chain
    # every member set passes the pointwise identity, so no exception
    for f in bits(members):
        s = sigma(sl, slo, members, f)
        assert is_subcolocale(slo, members)
        assert sl.elems[s] in {sl.elems[i] for i in range(sl.size)}


def test_sigma_raises_loudly_on_invalid_collections(hosts):
    # a collection that is not join-closed fails the pointwise validation
    sl = hosts["bool2"]
    slo = sl.fitted_subcoframe()
    members = 0b1000
    assert not is_subcolocale(slo, members)
    with pytest.raises(NotProper):
        sigma(sl, slo, members, 3)


def test_sigma_fixes_opens_and_fit_inverts_it(corpus, hosts):
    for cf in corpus:
        host = hosts[cf.name]
        slo = host.fitted_subcoframe()
        full = (1 << slo.size) - 1
        for a in range(cf.frame.lattice.n):
            assert sigma(host, slo, full, slo.open_index[a]) == host.open_index[a]
        for f in range(slo.size):
            s = sigma(host, slo, full, f)
            assert slo.index[host.elems[host.fit(s)]] == f


def test_delta_of_full_proper_is_full_host(corpus, hosts):
    for cf in corpus:
        host = hosts[cf.name]
        slo = host.fitted_subcoframe()
        assert delta(host, slo, (1 << slo.size) - 1) == (1 << host.size) - 1


def test_saturated_elements_of_full_are_the_fitted_part(hosts):
    # with the identity conucleus, saturation picks out exactly the meets
    # of opens, which at this scale are the opens themselves
    for name in ("chain4", "bool2", "bool3", "top3-05"):
        host = hosts[name]
        full = (1 << host.size) - 1
        fitted = mask_of(i for i in range(host.size) if host.fit(i) == i)
        opens = mask_of(host.open_index)
        assert saturated_elements(host, full) == fitted == opens


def test_saturation_equals_sigma_image(hosts):
    for name in ("chain4", "bool2", "bool3"):
        host = hosts[name]
        slo = host.fitted_subcoframe()
        for dm in enumerate_subcolocales(host, "codense"):
            fm = fit_image(host, slo, dm)
            sigmas = mask_of(sigma(host, slo, fm, f) for f in bits(fm))
            assert saturated_elements(host, dm) == sigmas


def test_codense_subcolocales_essential_here(hosts):
    for name in ("chain4", "bool2", "bool3"):
        host = hosts[name]
        for dm in enumerate_subcolocales(host, "codense"):
            assert is_essential(host, dm)


def test_adjunction_check_bidirectional(hosts):
    for name in ("chain4", "bool2"):
        host = hosts[name]
        slo = host.fitted_subcoframe()
        for fm in enumerate_subcolocales(slo):
            if not is_proper(slo, fm):
                continue
            for dm in enumerate_subcolocales(host, "codense"):
                assert adjunction_check(host, slo, fm, dm)


def test_subcolocale_wrapper_validates(hosts):
    host = hosts["chain3"]
    d = Subcolocale(host, 0b1111)
    assert d.contains(0) and d.conucleus(2) == 2
    with pytest.raises(ValueError):
        Subcolocale(host, 0b0110)


def test_enumeration_matches_the_scan():
    # both hosts of every frame up to 16 elements, order included
    cases = 0
    for cf in standard_corpus(20, 0):
        sl = enumerate_sublocales(cf.frame)
        for host in (sl, sl.fitted_subcoframe()):
            if host.size > 16:
                continue
            for which in ("all", "codense", "proper") if host.fitted else ("all", "codense"):
                assert enumerate_subcolocales(host, which) == scan_subcolocales(host, which), \
                    (cf.name, host.fitted, which)
                cases += 1
    # 59 frames; chain6 has the one full host above 16 (32 sublocales)
    assert cases == 2 * 58 + 3 * 59


def test_enumeration_above_sixteen():
    # hosts the 2^k scan could not reach: each has 2^p subcolocales
    for lat in (gen_chain(6), gen_chain(8), gen_product(gen_chain(3), gen_chain(4))):
        fw = FrameWitness.of(lat)
        p = bin(fw.primes).count("1")
        sl = enumerate_sublocales(fw)
        sl_o = sl.fitted_subcoframe()
        assert sl.size > 16
        for host in (sl, sl_o):
            found = enumerate_subcolocales(host)
            assert len(found) == 2 ** p
            assert all(is_subcolocale(host, m) for m in found)
        assert enumerate_subcolocales(sl, "codense") == (sl.as_lattice.full_mask,)
        assert enumerate_subcolocales(sl_o, "codense") == scan_subcolocales(sl_o, "codense")


def test_host_reads_match_the_member_masks(corpus, hosts):
    total = 0
    for cf in corpus:
        bad, cases = host_read_mismatches(hosts[cf.name])
        assert bad == [], cf.name
        total += cases
    assert total > 1000
