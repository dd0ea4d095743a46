"""The family kernel against the family-at-a-time scans in ``oracles``.

Each consumer of :func:`subloc.lattice.fold_families` is compared with the
scan it replaced on inputs chosen so that both verdicts occur: random
masks that need not be sublocales, every subcolocale of small fitted
hosts, and frame maps built through the raw dataclass without validation.
The binary family rule is the default; the exhaustive rule is exercised
by raising ``exhaustive_family_elements`` on the same inputs.
"""

import gc
import random
import weakref

from subloc import (DEFAULT_LIMITS, FrameMap, FrameWitness, Lattice,
                    enumerate_subcolocales, enumerate_sublocales, exact_filters,
                    is_exact_map, is_exact_meet, is_exact_sublocale, is_proper,
                    is_strongly_exact_meet, strongly_exact_filters,
                    surjection_of)
from subloc.bits import mask_of
from subloc.corpus import gen_boolean, gen_chain, gen_product
from subloc.report import run_suite
from subloc.lattice import FamilyTable, families, family_tree, fold_families, prime_mask
from subloc.subcolocales import _open_joins_exact

from oracles import (scan_exact_map, scan_exact_sublocale, scan_meet_stable_filters,
                     scan_open_joins_exact)

EXHAUSTIVE = DEFAULT_LIMITS.with_(exhaustive_family_elements=12)
BOTH_RULES = (DEFAULT_LIMITS, EXHAUSTIVE)


def raw_witness(lat: Lattice) -> FrameWitness:
    """A witness of a lattice that need not be a frame, bypassing ``FrameWitness.of``.

    The arrow table is the join of every ``z`` with ``z ^ x <= y``, which is
    the Heyting arrow only when the lattice is distributive.
    """
    n = lat.n
    hey = tuple(tuple(lat.big_join(mask_of(z for z in range(n)
                                           if lat.leq(lat.meet_table[z][x], y)))
                      for y in range(n)) for x in range(n))
    return FrameWitness(lat, hey, prime_mask(lat))


M3 = Lattice.from_up([0b11111, 0b10010, 0b10100, 0b11000, 0b10000])
N5 = Lattice.from_up([0b11111, 0b10110, 0b10100, 0b11000, 0b10000])


def non_frames() -> list[FrameWitness]:
    """M3 and N5 with their would-be arrows, and M3 with made-up arrows
    (out of the bottom to the top, out of the rest to their target), so
    that every combination of inexact and strongly inexact occurs."""
    made_up = tuple(tuple(M3.top if x == M3.bottom else y for y in range(M3.n))
                    for x in range(M3.n))
    return [raw_witness(M3), raw_witness(N5), FrameWitness(M3, made_up, prime_mask(M3))]


def test_family_rule():
    assert families(3) == (0, 0b001, 0b011, 0b101, 0b011, 0b010, 0b110,
                           0b101, 0b110, 0b100)
    assert len(families(12)) == 12 * 12 + 1
    assert families(3, EXHAUSTIVE) == range(8)
    assert families(12, EXHAUSTIVE) == range(1 << 12)
    assert len(families(13, EXHAUSTIVE)) == 13 * 13 + 1


def test_fold_visits_each_family_once_from_its_rest():
    for fams in (families(5), families(5, EXHAUSTIVE)):
        seen = dict(fold_families(family_tree(fams), 0, lambda v, x: v | (1 << x)))
        assert sorted(seen) == sorted(set(fams))
        assert all(value == fam for fam, value in seen.items())


def test_family_table_matches_the_direct_tests(corpus):
    frames = [cf.frame for cf in corpus] + non_frames()
    flags = {limits: set() for limits in BOTH_RULES}
    for fw in frames:
        lat = fw.lattice
        for limits in BOTH_RULES:
            tab = fw.family_table(limits)
            assert tab is fw.family_table(limits)
            assert tab.fams == families(lat.n, limits)
            for fam in set(tab.fams):
                assert tab.meet[fam] == lat.big_meet(fam)
                assert tab.exact[fam] == is_exact_meet(lat, fam)
                assert tab.strongly_exact[fam] == is_strongly_exact_meet(fw, fam)
                flags[limits].add((tab.exact[fam], tab.strongly_exact[fam]))
    assert flags[EXHAUSTIVE] == {(True, True), (True, False), (False, True), (False, False)}


def test_family_table_dies_with_its_witness():
    fw = FrameWitness.of(gen_product(gen_chain(2), gen_chain(3)))
    for suite in ("laws", "adjunction", "correspondence"):
        assert run_suite(suite, "c2xc3", fw)["ok"]
    table = weakref.ref(fw.family_table())
    del fw
    gc.collect()
    assert table() is None


def test_family_table_answers_families_outside_it():
    fw = non_frames()[0]
    tab = FamilyTable(fw, families(fw.lattice.n))
    assert 0b01110 not in tab.exact
    for fam in range(1 << fw.lattice.n):
        assert tab.is_exact(fam) == is_exact_meet(fw.lattice, fam)


def test_meet_stable_filters_match_the_subset_scan(corpus):
    frames = [cf.frame for cf in corpus] + non_frames()
    for fw in frames:
        lat = fw.lattice
        assert exact_filters(fw).filters == scan_meet_stable_filters(
            lat, lambda f: is_exact_meet(lat, f))
        assert strongly_exact_filters(fw).filters == scan_meet_stable_filters(
            lat, lambda f: is_strongly_exact_meet(fw, f))


def test_exact_sublocale_matches_the_scan_on_arbitrary_masks(corpus):
    # every mask of the small frames, the sublocales and random masks of the rest
    rng = random.Random(2509)
    verdicts = []
    for cf in corpus:
        fw = cf.frame
        n = fw.lattice.n
        if n <= 4:
            masks = list(range(1 << n))
        else:
            masks = list(enumerate_sublocales(fw).elems)
            masks += [rng.randrange(1 << n) for _ in range(8)]
        for members in masks:
            for limits in BOTH_RULES:
                got = is_exact_sublocale(fw, members, limits)
                assert got == scan_exact_sublocale(fw, members, limits), (cf.name, members)
                verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_open_joins_exact_matches_the_scan():
    frames = [FrameWitness.of(gen_chain(4)), FrameWitness.of(gen_product(gen_chain(2), gen_chain(3))),
              FrameWitness.of(gen_product(gen_chain(3), gen_chain(3)))]
    rng = random.Random(20821)
    proper = []
    inner = []
    for fw in frames:
        sl_o = enumerate_sublocales(fw).fitted_subcoframe()
        assert sl_o.size <= 16
        for members in enumerate_subcolocales(sl_o):
            proper.append(is_proper(sl_o, members))
        masks = list(enumerate_subcolocales(sl_o))
        masks += [rng.randrange(1 << sl_o.size) for _ in range(40)]
        for members in masks:
            for limits in BOTH_RULES:
                got = _open_joins_exact(sl_o, members, limits)
                assert got == scan_open_joins_exact(sl_o, members, limits)
                inner.append(got)
    assert set(proper) == {True, False}
    assert set(inner) == {True, False}


def test_proper_matches_the_scan_on_every_subcolocale(corpus, hosts):
    for cf in corpus:
        sl_o = hosts[cf.name].fitted_subcoframe()
        opens = mask_of(sl_o.open_index)
        for members in enumerate_subcolocales(sl_o):
            want = opens & ~members == 0 and scan_open_joins_exact(sl_o, members)
            assert is_proper(sl_o, members) == want


def test_exact_map_matches_the_scan(corpus, hosts):
    rng = random.Random(9)
    small = [cf.frame for cf in corpus if cf.frame.lattice.n <= 6]
    maps = []
    for cf in corpus:
        sl = hosts[cf.name]
        maps += [surjection_of(sl, i) for i in range(sl.size)]
    for _ in range(60):
        src, dst = rng.choice(small), rng.choice(small + non_frames())
        mapping = tuple(rng.randrange(dst.lattice.n) for _ in range(src.lattice.n))
        maps.append(FrameMap(src, dst, mapping))
    # meets preserved, but the exact pair of atoms lands on an inexact one
    atoms_apart = FrameMap(FrameWitness.of(gen_boolean(2)), raw_witness(M3), (0, 1, 2, 4))
    # the one meet not preserved is of an inexact family, which is skipped
    merge_atoms = FrameMap(raw_witness(M3), FrameWitness.of(gen_chain(2)), (0, 1, 1, 0, 1))
    assert not is_exact_map(atoms_apart) and is_exact_map(merge_atoms)
    maps += [atoms_apart, merge_atoms]
    verdicts = []
    for f in maps:
        for limits in BOTH_RULES:
            got = is_exact_map(f, limits)
            assert got == scan_exact_map(f, limits), (f.mapping, limits)
            verdicts.append(got)
    assert set(verdicts) == {True, False}
