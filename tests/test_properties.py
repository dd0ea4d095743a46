"""Property-based checks over randomly generated down-set frames.

Down-sets of an arbitrary finite poset always form a distributive
lattice, so they make a good randomized frame source beyond the fixed
corpus.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from subloc import (CoframeWitness, FrameWitness, enumerate_sublocales,
                    parse_lattice, serialize_lattice)
from subloc.bits import mask_of
from subloc.correspondence import subcolocale_lattice, surjection_of
from subloc.corpus import gen_downsets_of_poset
from subloc.subcolocales import (enumerate_subcolocales, generated_subcolocale,
                                 is_subcolocale)
from subloc.sublocales import nucleus_element

from oracles import (fit_mask, generated_closed_form, host_mismatches, host_read_mismatches,
                     is_exact_meet, is_sublocale, precongruence_to_sublocale, sublocale_closure,
                     sublocale_to_precongruence,
                     is_strongly_exact_meet, naive_difference,
                     naive_heyting, naive_primes, quotient_map, quotient_order,
                     scan_subcolocales, table_hosts,
                     table_sublocale_frame, table_subcolocale_lattice)


@st.composite
def posets(draw, max_points=4):
    """Up-set rows of a random poset; index order is a topological order."""
    n = draw(st.integers(1, max_points))
    up = [1 << i for i in range(n)]
    for a, b in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=8)):
        if a < b:
            up[a] |= 1 << b
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if (up[i] >> j) & 1:
                up[i] |= up[j]
    return tuple(up)


def frame_of(up_rows) -> FrameWitness:
    return FrameWitness.of(gen_downsets_of_poset(up_rows))


@given(posets())
@settings(max_examples=60, deadline=None)
def test_downsets_form_a_frame_with_adjoint_arrow(up_rows):
    fw = frame_of(up_rows)
    lat = fw.lattice
    for x in range(lat.n):
        for y in range(lat.n):
            for z in range(lat.n):
                assert lat.leq(lat.meet_table[z][x], y) == \
                    lat.leq(z, fw.heyting_table[x][y])
    assert fw.primes == mask_of(naive_primes(lat.up))


@given(posets())
@settings(max_examples=60, deadline=None)
def test_difference_is_adjoint_to_join(up_rows):
    lat = frame_of(up_rows).lattice
    cw = CoframeWitness.of(lat)
    for x in range(lat.n):
        for y in range(lat.n):
            for z in range(lat.n):
                assert lat.leq(cw.difference_table[x][y], z) == \
                    lat.leq(x, lat.join_table[y][z])


@given(posets())
@settings(max_examples=40, deadline=None)
def test_duality_of_arrow_and_difference(up_rows):
    # each table against its own oracle: the difference table is built as
    # the transposed arrow table of the dual, so comparing the two is vacuous
    lat = frame_of(up_rows).lattice
    cw = CoframeWitness.of(lat)
    dual = FrameWitness.of(lat.dual())
    for x in range(lat.n):
        for y in range(lat.n):
            diff = naive_difference(lat.up, y, x)
            assert cw.difference_table[y][x] == diff
            assert dual.heyting_table[x][y] == naive_heyting(lat.dual().up, x, y) == diff


@given(posets(), st.integers(0, (1 << 16) - 1))
@settings(max_examples=80, deadline=None)
def test_every_meet_is_exact_and_strongly_exact(up_rows, fam_bits):
    fw = frame_of(up_rows)
    fam = fam_bits & fw.lattice.full_mask
    assert is_exact_meet(fw.lattice, fam)
    assert is_strongly_exact_meet(fw, fam)


@given(posets())
@settings(max_examples=60, deadline=None)
def test_file_roundtrip(up_rows):
    lat = frame_of(up_rows).lattice
    assert parse_lattice(serialize_lattice(lat), strict=True) == lat


@given(posets(max_points=3), st.integers(0, (1 << 8) - 1))
@settings(max_examples=80, deadline=None)
def test_sublocale_closure_properties(up_rows, seed_bits):
    fw = frame_of(up_rows)
    seed = seed_bits & fw.lattice.full_mask
    closed = sublocale_closure(fw, seed)
    assert seed & ~closed == 0
    assert is_sublocale(fw, closed)
    assert sublocale_closure(fw, closed) == closed


@given(posets(max_points=3), st.integers(0, (1 << 8) - 1))
@settings(max_examples=60, deadline=None)
def test_fit_is_a_closure_on_sublocales(up_rows, seed_bits):
    fw = frame_of(up_rows)
    s = sublocale_closure(fw, seed_bits & fw.lattice.full_mask)
    f = fit_mask(fw, s)
    assert s & ~f == 0
    assert fit_mask(fw, f) == f
    assert is_sublocale(fw, f)


@given(posets(max_points=3), st.data())
@settings(max_examples=60, deadline=None)
def test_generated_subcolocale_double_entry(up_rows, data):
    fw = frame_of(up_rows)
    host = enumerate_sublocales(fw)
    seed = data.draw(st.integers(0, (1 << host.size) - 1))
    gen = generated_subcolocale(host, seed)
    assert gen == generated_closed_form(host, seed)
    assert is_subcolocale(host, gen)
    assert seed & ~gen == 0


@given(posets(max_points=3), st.integers(0, (1 << 8) - 1))
@settings(max_examples=60, deadline=None)
def test_precongruence_roundtrip(up_rows, seed_bits):
    fw = frame_of(up_rows)
    s = sublocale_closure(fw, seed_bits & fw.lattice.full_mask)
    r = sublocale_to_precongruence(fw, s)
    assert precongruence_to_sublocale(fw, r) == s


@given(posets())
@settings(max_examples=30, deadline=None)
def test_prime_set_hosts_match_table_oracle(up_rows):
    fw = frame_of(up_rows)
    sl = enumerate_sublocales(fw)
    table_sl, table_slo = table_hosts(fw)
    assert host_mismatches(sl, table_sl) == []
    assert host_mismatches(sl.fitted_subcoframe(), table_slo) == []


@given(posets())
@settings(max_examples=30, deadline=None)
def test_host_reads_match_the_member_masks(up_rows):
    bad, cases = host_read_mismatches(enumerate_sublocales(frame_of(up_rows)))
    assert bad == [] and cases > 0


@given(posets())
@settings(max_examples=20, deadline=None)
def test_enumeration_matches_the_scan(up_rows):
    # at most four points, so both hosts have at most 16 elements; a
    # 16-element host costs the scan 65,536 masks
    sl = enumerate_sublocales(frame_of(up_rows))
    for host in (sl, sl.fitted_subcoframe()):
        for which in ("all", "codense", "proper") if host.fitted else ("all", "codense"):
            assert enumerate_subcolocales(host, which) == scan_subcolocales(host, which)


@given(posets(), st.data())
@settings(max_examples=40, deadline=None)
def test_subcolocale_lattice_matches_table_oracle(up_rows, data):
    fw = frame_of(up_rows)
    sl = enumerate_sublocales(fw)
    for host in (sl, sl.fitted_subcoframe()):
        if host.size <= 10:
            subs = enumerate_subcolocales(host)
        else:   # few generators, so that most draws are proper subcolocales
            gens = data.draw(st.sets(st.integers(0, host.size - 1), max_size=2))
            subs = (generated_subcolocale(host, sum(1 << g for g in gens)),)
        for m in subs:
            assert subcolocale_lattice(host, m) == table_subcolocale_lattice(host, m)


@given(posets())
@settings(max_examples=100, deadline=None)
def test_host_nucleus_matches_the_meet_of_members_above(up_rows):
    fw = frame_of(up_rows)
    sl = enumerate_sublocales(fw)
    for host in (sl, sl.fitted_subcoframe()):
        for i, m in enumerate(host.elems):
            assert host.nucleus(i) == tuple(nucleus_element(fw, m, a)
                                            for a in range(fw.lattice.n))


@given(posets())
@settings(max_examples=100, deadline=None)
def test_quotients_of_equal_order_share_one_target(up_rows):
    sl = enumerate_sublocales(frame_of(up_rows))
    shared = {}
    for i in range(sl.size):
        want = surjection_of(sl, i)
        key = quotient_order(sl, i)
        assert key == want.target.lattice.up
        target = shared.setdefault(key, want.target)
        got = quotient_map(sl, i, target)
        assert got.target == want.target and got.mapping == want.mapping


@given(posets())
@settings(max_examples=150, deadline=None)
def test_surjection_targets_match_the_table_oracle(up_rows):
    sl = enumerate_sublocales(frame_of(up_rows))
    for i in range(sl.size):
        got = surjection_of(sl, i).target
        want, _ = table_sublocale_frame(sl, i)
        assert (got.lattice, got.heyting_table, got.primes) == \
            (want.lattice, want.heyting_table, want.primes)
