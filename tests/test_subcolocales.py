import gc
import random
import sys
import weakref
from collections import Counter

import pytest

import subloc.subcolocales as subcolocales
from subloc import (CoframeWitness, FrameWitness, InternalInconsistency, NotProper,
                    SizeLimit, Subcolocale, adjunction_check, conuclei, delta,
                    enumerate_subcolocales, enumerate_sublocales, fit_image,
                    generated_subcolocale,
                    is_codense, is_essential, is_proper, is_subcolocale,
                    join_closure, leq_f, saturated_elements, sb, se, sigma, ssp)
from subloc.subcolocales import closed_trims, point_sublocales
from subloc.sublocales import is_exact_sublocale
from subloc.bits import bit, bits, mask_of
from subloc.config import DEFAULT_LIMITS
from subloc.corpus import gen_boolean, gen_chain, gen_product, standard_corpus
from subloc.latfile import serialize_lattice
from subloc import report
from subloc.report import adjunction_suite, correspondence_suite

from oracles import (NaiveOps, closure_is_subcolocale, filtered_fitted_host,
                     fixpoint_generated_subcolocale, fresh_sublocales, generated_closed_form,
                     host_read_mismatches, scan_conucleus, scan_fit_of,
                     scan_generated_subcolocale, scan_is_subcolocale, scan_join_closure,
                     scan_least_open_above, scan_se, scan_sigma, scan_subcolocales)


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
            assert conuclei(host, d)[c] == best
            assert host.leq(conuclei(host, d)[c], c)


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


def test_prime_set_closures_match_the_table_scans(hosts):
    """``conuclei``, the join closure, the subcolocale test and the
    generated subcolocale, all on prime sets, against the same operations
    on the host's lattice and its ``CoframeWitness`` difference table, on
    both hosts of the corpus frames and of the 3x3 grid, for every
    subcolocale and for random masks; both verdicts of the test occur."""
    rng = random.Random(4)
    extra = enumerate_sublocales(FrameWitness.of(gen_product(gen_chain(3), gen_chain(3))))
    seen, cases = set(), 0
    for sl in list(hosts.values()) + [extra]:
        for host in (sl, sl.fitted_subcoframe()):
            lat = host.as_lattice
            diff = CoframeWitness.of(lat).difference_table
            masks = list(enumerate_subcolocales(host))
            masks += [rng.getrandbits(host.size) for _ in range(12)]
            for m in masks:
                assert conuclei(host, m) == tuple(scan_conucleus(host, m, c)
                                                 for c in range(host.size))
                assert join_closure(host, m) == scan_join_closure(lat, m)
                assert generated_subcolocale(host, m) == scan_generated_subcolocale(lat, diff, m)
                ok = is_subcolocale(host, m)
                assert ok == scan_is_subcolocale(lat, diff, m)
                seen.add(ok)
                cases += 1
    assert seen == {True, False} and cases > 1000


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
        assert ssp(host) == join_closure(host, subcolocales.point_sublocales(host)) == full
        assert se(host) == full


def planted_above(fw, a: int, b: int):
    """A fresh host that takes the primes above ``b`` for those above ``a``,
    both in its nuclei and in ``se``'s identity."""
    host = fresh_sublocales(fw)
    members, down, meet_of, above = host._prime_tables
    host._prime_tables = members, down, meet_of, above[:a] + (above[b],) + above[a + 1:]
    return host


def test_se_matches_the_per_sublocale_scan(corpus):
    # se reads one identity of the frame, the scan each sublocale's nucleus;
    # a planted row of primes gives wrong nuclei, some of them inexact, and
    # then se must raise, since the identity alone makes every one exact
    verdicts, raised = set(), 0
    for cf in corpus:
        fw = cf.frame
        n = fw.lattice.n
        host = fresh_sublocales(fw)
        assert se(host) == scan_se(host) == (1 << host.size) - 1
        if n > 5:
            continue
        for a in range(n):
            for b in range(n):
                host = planted_above(fw, a, b)
                want = scan_se(host)
                verdicts.add(want == (1 << host.size) - 1)
                try:
                    got = se(host)
                except InternalInconsistency:
                    raised += 1
                    continue
                assert got == want, (cf.name, a, b)
    assert verdicts == {True, False} and raised


def test_se_cross_check_reads_every_pair_on_planted_point_sublocales(corpus):
    # one point sublocale's members planted as a mask holding the top, so
    # that its nucleus need not keep meets while the identity still holds:
    # se must return every index iff each point sublocale keeps every pair's
    # meet (full rows), and raise the disagreement otherwise
    verdicts = []
    for cf in corpus:
        fw = cf.frame
        lat = fw.lattice
        if lat.n > 5:
            continue
        every_pair = (lat.full_mask,) * lat.n
        for i in bits(point_sublocales(fresh_sublocales(fw))):
            for m in range(1 << lat.n):
                if not m >> lat.top & 1:
                    continue
                host = fresh_sublocales(fw)
                host.elems = host.elems[:i] + (m,) + host.elems[i + 1:]
                want = all(is_exact_sublocale(fw, host.elems[j], pairs=every_pair)
                           for j in bits(point_sublocales(host)))
                if want:
                    assert se(host) == (1 << host.size) - 1, (cf.name, i, m)
                else:
                    with pytest.raises(InternalInconsistency, match="exactness criteria disagree"):
                        se(host)
                verdicts.append(want)
    assert set(verdicts) == {True, False}


def test_closed_trims_match_the_join_closure_of_the_trims(corpus, hosts):
    # closed_trims closes the distinct prime sets of the trims; the mask
    # form closes the trims' indices
    rng = random.Random(5021)
    results = set()
    for cf in corpus:
        sl = hosts[cf.name]
        closeds = [sl.points[c] for c in sl.closed_index]
        masks = [0, 1, sb(sl), mask_of(sl.open_index)]
        masks += [rng.randrange(1 << sl.size) for _ in range(6)]
        for m in masks:
            got = closed_trims(sl, m)
            assert got == join_closure(sl, subcolocales._trims(sl, m, closeds)), (cf.name, m)
            results.add(got == (1 << sl.size) - 1)
    assert results == {True, False}


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
                    fx = conuclei(slo, members)[slo.meet(f, slo.open_of(x))]
                    assert rel[x] == mask_of(y for y in range(n)
                                             if slo.leq(fx, slo.open_of(y))), (cf.name, f, x)
                    cases += 1
    assert cases > 1000


def test_element_of_dies_with_its_host():
    slo = enumerate_sublocales(FrameWitness.of(gen_product(gen_chain(2), gen_chain(3)))
                               ).fitted_subcoframe()
    assert is_proper(slo, (1 << slo.size) - 1)
    table = slo.element_of
    assert table is slo.element_of
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


def test_a_non_bijective_open_index_raises(hosts):
    # open is a bijection onto the fitted host on a frame; an open_index
    # that sends one element to another's open misses an index, wherever it
    # is planted.  Properness first checks that open keeps binary joins,
    # then reads the inverse, as least_related does
    planted, messages = 0, Counter()
    for name in ("chain3", "bool2", "top3-00"):
        fw = hosts[name].ambient
        n, join = fw.lattice.n, fw.lattice.join_table
        for x in range(n):
            sl_o = fresh_sublocales(fw).fitted_subcoframe()
            opens = list(sl_o.open_index)
            opens[x] = opens[(x + 1) % n]
            sl_o.open_index = tuple(opens)
            full = (1 << sl_o.size) - 1
            keeps_joins = all(sl_o.join(opens[a], opens[b]) == opens[join[a][b]]
                              for a in range(n) for b in range(n))
            message = "bijection" if keeps_joins else "binary join"
            with pytest.raises(InternalInconsistency, match=message):
                is_proper(sl_o, full)
            with pytest.raises(InternalInconsistency, match="bijection"):
                subcolocales.least_related(sl_o, full, 1)
            planted += 1
            messages[message] += 1
    assert planted > 3 and messages["binary join"] and messages["bijection"], messages


def test_fitted_host_matches_the_filtered_build(hosts):
    """The fitted host built from the frame's opens has the prime sets,
    member masks, index order and ``fit_of`` of the host filtered from the
    ``2^p`` prime sets of ``S(L)`` for fixpoints of ``fit``, whose ``fit_of``
    is scanned as the least fitted prime set above each one; and its
    ``element_of`` is the meet of the elements whose opens lie above each
    index.  On every distinct frame of the standard and ``--points4 20``
    corpora, and on chain12."""
    frames = {serialize_lattice(cf.frame.lattice): cf.frame for cf in standard_corpus(20, 0)}
    checked = 0
    for fw in [*frames.values(), FrameWitness.of(gen_chain(12))]:
        sl = fresh_sublocales(fw)
        sl_o, oracle = sl.fitted_subcoframe(), filtered_fitted_host(sl)
        assert sl_o.points == oracle.points and sl_o.elems == oracle.elems
        assert sl_o.index == oracle.index and sl_o.point_index == oracle.point_index
        assert sl_o.fit_of == oracle.fit_of == scan_fit_of(sl, oracle)
        assert sl_o.element_of == scan_least_open_above(oracle)
        checked += sl_o.size
    assert len(frames) == 28 and checked == 186


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


def test_sigma_matches_the_pairwise_meet(hosts):
    # each host has one proper collection (all of S_o(L)); every member of
    # every subcolocale also passes sigma's validation on these hosts, so
    # all of them are held to the pairwise meet
    c3xc3 = enumerate_sublocales(FrameWitness.of(gen_product(gen_chain(3), gen_chain(3))))
    checked = []
    for sl in (hosts["chain5"], hosts["bool3"], c3xc3):
        slo = sl.fitted_subcoframe()
        proper = enumerate_subcolocales(slo, "proper")
        assert proper
        for members in enumerate_subcolocales(slo):
            for f in bits(members):
                assert sigma(sl, slo, members, f) == scan_sigma(sl, slo, members, f)
                checked.append(members in proper)
    assert checked.count(True) == 22 and checked.count(False) == 117


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


def _outcome(fn, *args):
    """The value of a call, or the type of the ``NotProper`` it raised."""
    try:
        return fn(*args)
    except NotProper as exc:
        return type(exc)


def test_memoised_functions_return_their_bodies_on_a_fresh_host(corpus):
    """Each memoised function, called twice on the hosts a witness keeps,
    gives what its body gives on hosts built afresh: on both hosts of every
    corpus frame, chain7 and bool4, over every subcolocale and a few random
    masks, on which ``sigma`` and ``delta`` raise ``NotProper``."""
    rng = random.Random(18)
    frames = [cf.frame for cf in corpus] + [FrameWitness.of(gen_chain(7)),
                                            FrameWitness.of(gen_boolean(4))]
    outcomes, proper = Counter(), set()
    for fw in frames:
        kept, fresh = enumerate_sublocales(fw), fresh_sublocales(fw)
        kept_o, fresh_o = kept.fitted_subcoframe(), fresh.fitted_subcoframe()
        assert fresh is not kept and fresh_o is not kept_o and not fresh.memo
        for held, new in ((kept, fresh), (kept_o, fresh_o)):
            subs = enumerate_subcolocales(held)
            masks = subs + tuple(rng.randrange(1 << held.size) for _ in range(4))
            calls = [(fn, (m,)) for m in masks
                      for fn in (conuclei, generated_subcolocale, is_subcolocale)]
            if held.fitted:
                calls += [(is_proper, (m,)) for m in masks]
                calls += [(delta, (m,)) for m in masks]
                calls += [(sigma, (m, f)) for m in masks for f in bits(m)]
            else:
                calls += [(fn, ()) for fn in (sb, ssp, se)]
                calls += [(is_essential, (m,)) for m in subs]
            for fn, args in calls:
                # sigma and delta are kept on the fitted host, their second argument
                pre, pre_new = ((kept,), (fresh,)) if fn in (sigma, delta) else ((), ())
                want = _outcome(fn.__wrapped__, *pre_new, new, *args)
                got = [_outcome(fn, *pre, held, *args) for _ in range(2)]
                assert got == [want, want], (fn.__name__, args)
                outcomes[fn.__name__, want is NotProper] += 1
                if fn is is_proper:
                    proper.add(want)
    assert {name for name, _ in outcomes} == {
        "conuclei", "generated_subcolocale", "is_subcolocale",
        "is_proper", "sb", "ssp", "se", "is_essential", "delta", "sigma"}
    # sigma and delta both raised and returned, and is_proper gave both verdicts
    assert all(outcomes[name, raised] for name in ("sigma", "delta") for raised in (False, True))
    assert proper == {True, False}


def test_memo_and_kept_host_die_with_their_witness():
    fw = FrameWitness.of(gen_chain(4))
    sl = enumerate_sublocales(fw)
    sl_o = sl.fitted_subcoframe()
    assert adjunction_suite("chain4", fw)["ok"]
    assert enumerate_sublocales(fw) is sl and sl.memo and sl_o.memo
    # the memo is the host's own: an equal witness gets a host with none
    assert not enumerate_sublocales(FrameWitness.of(gen_chain(4))).memo

    class Probe:
        pass

    probes = [Probe(), Probe()]
    sl.memo["probe"], sl_o.memo["probe"] = probes
    refs = [weakref.ref(x) for x in (fw, sl, sl_o, *probes)]
    del sl, sl_o, probes
    gc.collect()
    # the witness keeps its host, and the host its memo
    assert [r() is None for r in refs] == [False] * 5
    del fw
    gc.collect()
    assert [r() for r in refs] == [None] * 5


def test_a_planted_delta_disagreement_raises_on_every_call(monkeypatch):
    fw = FrameWitness.of(gen_chain(3))
    sl = enumerate_sublocales(fw)
    sl_o = sl.fitted_subcoframe()
    full_o = (1 << sl_o.size) - 1
    monkeypatch.setattr(subcolocales, "generated_subcolocale", lambda host, m: 0)
    for _ in range(3):
        with pytest.raises(InternalInconsistency, match="closed-form delta"):
            delta(sl, sl_o, full_o)
    assert ("delta", full_o) not in sl_o.memo
    monkeypatch.undo()
    assert delta(sl, sl_o, full_o) == (1 << sl.size) - 1
    assert sl_o.memo["delta", full_o] == (1 << sl.size) - 1


def test_a_kept_host_still_checks_max_sublocales():
    fw = FrameWitness.of(gen_chain(5))
    sl = enumerate_sublocales(fw)
    assert sl.size == 16
    with pytest.raises(SizeLimit, match="16 sublocales exceed max_sublocales=8"):
        enumerate_sublocales(fw, DEFAULT_LIMITS.with_(max_sublocales=8))
    assert enumerate_sublocales(fw, DEFAULT_LIMITS.with_(max_sublocales=16)) is sl


def test_adjunction_suite_generates_each_subcolocale_once(monkeypatch):
    """The body of ``generated_subcolocale`` runs once per distinct
    ``(host, members)`` that the adjunction suite asks for, on chain6 (no
    enumeration) and bool3 (enumerated)."""
    body = generated_subcolocale.__wrapped__.__code__
    for lat in (gen_chain(6), gen_boolean(3)):
        asked, ran = [], []

        def asking(host, members):
            asked.append((id(host), members))
            return generated_subcolocale(host, members)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is body:
                ran.append((id(frame.f_locals["host"]), frame.f_locals["members"]))

        monkeypatch.setattr(subcolocales, "generated_subcolocale", asking)
        sys.setprofile(profile)
        try:
            result = adjunction_suite("", FrameWitness.of(lat))
        finally:
            sys.setprofile(None)
            monkeypatch.undo()
        assert result["ok"]
        assert ran and sorted(ran) == sorted(set(asked))


def test_suites_decide_each_subcolocale_once(monkeypatch):
    """Every mask that the adjunction and correspondence suites hand to
    ``is_subcolocale`` on chain6 is a whole host, full or fitted: ``sb``,
    ``ssp`` and ``se``, one full mask on a finite frame, then ``sb`` twice
    more through ``Subcolocale`` (itself, and the codense subcolocale of
    its round trip), and whole hosts of the quotients.  Neither side of the
    double entry runs for those.  Asked twice about other masks, the
    closed form and the characterization each run once per distinct
    ``(host, members)``."""
    fw = FrameWitness.of(gen_chain(6))
    asked, closed, characterized = [], [], []

    def logged(log, fn):
        return lambda host, m: log.append((id(host), m)) or fn(host, m)

    monkeypatch.setattr(subcolocales, "generated_subcolocale",
                        logged(closed, generated_subcolocale))
    monkeypatch.setattr(subcolocales, "_is_subcolocale_characterized",
                        logged(characterized, subcolocales._is_subcolocale_characterized))
    whole = []

    def asking(host, m):
        asked.append((id(host), m))
        whole.append(m == (1 << host.size) - 1)
        return is_subcolocale(host, m)

    for module in (subcolocales, report):
        monkeypatch.setattr(module, "is_subcolocale", asking)
    assert adjunction_suite("chain6", fw)["ok"]
    assert correspondence_suite("chain6", fw)["ok"]
    sl = enumerate_sublocales(fw)
    assert asked.count((id(sl), (1 << sl.size) - 1)) == 5
    assert len(whole) > 5 and all(whole) and characterized == []

    rng = random.Random(26)
    others = [(host, m) for host in (sl, sl.fitted_subcoframe())
              for m in enumerate_subcolocales(host)[:-1:3] + tuple(
                  rng.getrandbits(host.size) for _ in range(4))]
    closed.clear()
    verdicts = [subcolocales.is_subcolocale(host, m) for host, m in others + others]
    assert verdicts[:len(others)] == verdicts[len(others):] and len(set(verdicts)) == 2
    distinct = sorted({(id(host), m) for host, m in others})
    assert sorted(closed) == sorted(characterized) == distinct


def test_closed_form_matches_the_generic_closures():
    """``is_subcolocale``, ``generated_subcolocale`` and
    ``enumerate_subcolocales`` read ``C_R`` off the host's ``tops``; here
    they face the scans on the host's lattice and its ``CoframeWitness``
    difference table and the join/difference closures on prime sets, on
    both hosts of every distinct frame of the standard corpus and of 20
    sampled 4-point topologies.  The masks are random, every subcolocale,
    and every subcolocale with one index toggled; the enumeration faces the
    2^k scan on hosts of at most 16 indices and the closure test above."""
    rng = random.Random(26)
    seen, verdicts, listed = set(), Counter(), 0
    for cf in standard_corpus(20, 0):
        if cf.frame.lattice.up in seen:
            continue
        seen.add(cf.frame.lattice.up)
        sl = enumerate_sublocales(cf.frame)
        for host in (sl, sl.fitted_subcoframe()):
            lat = host.as_lattice
            diff = CoframeWitness.of(lat).difference_table
            subs = enumerate_subcolocales(host)
            p = len(host.tops)
            assert len(subs) == len(set(subs)) == 2 ** p
            if host.size <= 16:
                assert subs == scan_subcolocales(host)
            else:
                assert all(closure_is_subcolocale(host, m) for m in subs)
            listed += len(subs)
            masks = [rng.getrandbits(host.size) for _ in range(8)]
            masks += [m ^ 1 << rng.randrange(host.size) for m in subs[:8]] + list(subs[:8])
            for m in masks:
                ok = is_subcolocale(host, m)
                assert ok == scan_is_subcolocale(lat, diff, m) == closure_is_subcolocale(host, m)
                gen = generated_subcolocale(host, m)
                assert gen == scan_generated_subcolocale(lat, diff, m)
                assert gen == fixpoint_generated_subcolocale(host, m)
                verdicts[host.fitted, ok] += 1
    assert len(seen) == 28 and listed == 662
    # (fitted host, verdict): both verdicts on both hosts, 1,260 masks
    assert verdicts == {(False, False): 397, (False, True): 233,
                        (True, False): 313, (True, True): 317}


def test_adjunction_suite_leaves_both_host_lattices_unbuilt():
    """The adjunction suite decides, generates and lists subcolocales from
    ``tops`` and reads properness on prime sets: neither host builds
    ``as_lattice``, on chain6 (no enumeration) and bool3 (enumerated)."""
    for lat in (gen_chain(6), gen_boolean(3)):
        fw = FrameWitness.of(lat)
        assert adjunction_suite("", fw)["ok"]
        sl = enumerate_sublocales(fw)
        for host in (sl, sl.fitted_subcoframe()):
            assert "as_lattice" not in vars(host)
