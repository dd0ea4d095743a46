"""The pair tables and their consumers against the family scans in ``oracles``.

Every family quantifier of the package visits the empty family and the
pairs only.  Each consumer is compared with a scan that folds every
family from scratch: over all families on frames, where the two rules
agree (``FrameWitness.exact_pairs``), and over the empty family and the
pairs on the non-frames, where they need not.  The inputs are chosen so
that both verdicts occur: random masks that need not be sublocales, every
subcolocale of small fitted hosts, and frame maps built through the raw
dataclass without validation.
"""

import random

import subloc.subcolocales as subcolocales
from subloc import (FrameWitness, Lattice, enumerate_subcolocales, enumerate_sublocales,
                    exact_filters, is_exact_sublocale, is_proper, report,
                    strongly_exact_filters)
from subloc.correspondence import FrameMap, is_exact_map, surjection_of
from subloc.bits import bit, mask_of
from subloc.corpus import gen_boolean, gen_chain, gen_product
from subloc.lattice import prime_mask
from subloc.report import MAX_COUNTEREXAMPLES, laws_suite
from subloc.subcolocales import _open_joins_exact
from subloc.sublocales import nucleus_element

from oracles import (all_families, binary_families, fresh_sublocales, is_exact_meet,
                     is_strongly_exact_meet, scan_exact_map, scan_exact_sublocale,
                     scan_meet_stable_filters, scan_open_closed_laws,
                     scan_open_joins_exact)


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
    (out of the bottom to the top, out of the rest to their target).  Their
    pairs are inexact, strongly inexact or both, but never exact and
    strongly inexact."""
    made_up = tuple(tuple(M3.top if x == M3.bottom else y for y in range(M3.n))
                    for x in range(M3.n))
    return [raw_witness(M3), raw_witness(N5), FrameWitness(M3, made_up, prime_mask(M3))]


def strongly_inexact_bool2() -> FrameWitness:
    """bool2 whose atoms fix everything while the bottom fixes only the top,
    so the atoms' meet, the bottom, is exact but not strongly exact."""
    b2 = gen_boolean(2)
    made_up = tuple((b2.top,) * b2.n if x == b2.bottom else tuple(range(b2.n))
                    for x in range(b2.n))
    return FrameWitness(b2, made_up, prime_mask(b2))


def scan_families(n: int, *witnesses: FrameWitness):
    """All families of ``0..n-1`` when every witness is a frame, where the
    package's pairs must agree with them; the empty family and the pairs
    otherwise."""
    if all(fw.lattice.is_distributive() for fw in witnesses):
        return all_families(n)
    return binary_families(n)


def test_exact_pairs_match_the_direct_tests(corpus):
    flags = set()
    for fw in [cf.frame for cf in corpus] + non_frames() + [strongly_inexact_bool2()]:
        exact, strong = fw.exact_pairs
        assert fw.exact_pairs is fw.exact_pairs
        for a in range(fw.lattice.n):
            for b in range(fw.lattice.n):
                pair = (exact[a] >> b & 1, strong[a] >> b & 1)
                assert pair == (is_exact_meet(fw.lattice, bit(a) | bit(b)),
                                is_strongly_exact_meet(fw, bit(a) | bit(b)))
                flags.add(pair)
    assert flags == {(1, 1), (1, 0), (0, 1), (0, 0)}


def test_laws_meet_check_matches_the_scan(corpus):
    verdicts = []
    for fw in [cf.frame for cf in corpus] + [strongly_inexact_bool2()]:
        check = next(c for c in laws_suite("", fw)["checks"]
                     if c["check"] == "all-meets-exact-and-strongly-exact")
        want = [fam for fam in binary_families(fw.lattice.n)
                if not (is_exact_meet(fw.lattice, fam) and is_strongly_exact_meet(fw, fam))]
        assert check["counterexamples"] == want[:MAX_COUNTEREXAMPLES]
        assert check["ok"] == (not want)
        verdicts.append(check["ok"])
    assert set(verdicts) == {True, False}


def test_meet_stable_filters_match_the_subset_scan(corpus):
    frames = [cf.frame for cf in corpus] + non_frames()
    for fw in frames:
        lat = fw.lattice
        assert exact_filters(fw) == scan_meet_stable_filters(
            lat, lambda f: is_exact_meet(lat, f))
        assert strongly_exact_filters(fw) == scan_meet_stable_filters(
            lat, lambda f: is_strongly_exact_meet(fw, f))


def test_exact_sublocale_matches_the_scan_on_arbitrary_masks(corpus):
    # every mask of the small witnesses, the sublocales and random masks of the rest
    rng = random.Random(2509)
    verdicts = []
    frames = [cf.frame for cf in corpus]
    for fw in frames + non_frames() + [strongly_inexact_bool2()]:
        n = fw.lattice.n
        # on a frame every pair is exact, so full rows of pairs change nothing
        every_pair = (fw.lattice.full_mask,) * n if fw in frames else None
        if n <= 5:
            masks = list(range(1 << n))
        else:
            masks = list(enumerate_sublocales(fw).elems)
            masks += [rng.randrange(1 << n) for _ in range(8)]
        for members in masks:
            got = is_exact_sublocale(fw, members)
            assert got == scan_exact_sublocale(fw, members, scan_families(n, fw)), (fw, members)
            if every_pair:
                assert is_exact_sublocale(fw, members, pairs=every_pair) == got
            verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_exactness_on_meet_irreducible_pairs_matches_every_pair(corpus):
    # se's rows, full at the meet-irreducibles and the meet-irreducibles
    # elsewhere, decide as much as full rows wherever nu(top) is the top: on
    # every mask of frames and non-frames, and on planted nuclei, random ones
    # and true ones with one entry moved
    rng = random.Random(3511)
    verdicts = []
    for fw in [cf.frame for cf in corpus] + non_frames() + [strongly_inexact_bool2()]:
        lat = fw.lattice
        n, irr = lat.n, lat.irreducibles[1]
        every_pair = (lat.full_mask,) * n
        pairs = [lat.full_mask if irr >> a & 1 else irr for a in range(n)]
        masks = range(1 << n) if n <= 5 else [rng.randrange(1 << n) for _ in range(8)]
        for members in masks:
            got = is_exact_sublocale(fw, members, pairs=pairs)
            assert got == is_exact_sublocale(fw, members, pairs=every_pair), (fw, members)
            verdicts.append(got)
        for _ in range(8):
            moved = [nucleus_element(fw, rng.randrange(1 << n), a) for a in range(n)]
            moved[rng.randrange(n)] = rng.randrange(n)
            for nu in (moved, [rng.randrange(n) for _ in range(n)]):
                nu[lat.top] = lat.top
                got = is_exact_sublocale(fw, 0, nucleus=nu, pairs=pairs)
                assert got == is_exact_sublocale(fw, 0, nucleus=nu, pairs=every_pair), (fw, nu)
                verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_se_rows_refuse_a_plant_that_breaks_only_mixed_pairs(monkeypatch):
    """``se`` checks each point sublocale on rows that pair every element
    with every meet-irreducible, in either order.  On bool3 numbered with
    its coatoms, the meet-irreducibles, before its atoms, the map that
    keeps the bottom and the top and sends the rest to one atom breaks the
    meets of the disjoint pairs only: two atoms, or a coatom and the atom
    it misses.  The three of these with a meet-irreducible are mixed, the
    coatom first in element order, so rows that hold only the
    meet-irreducibles miss them (a row is read after its own element), and
    so do rows without the mixed pairs; the rows ``se`` passes must refuse
    the map, as full rows do.  No map that keeps the top breaks one such
    pair alone, since the other pairs with a meet-irreducible decide its
    meet by the induction of ``se``'s proof; so this plant breaks three."""
    order = (0, 7, 3, 5, 6, 1, 2, 4)   # bool3's masks: bottom, top, coatoms, atoms
    at = {m: i for i, m in enumerate(order)}
    lat = Lattice.from_up([mask_of(at[y] for y in order if x & ~y == 0) for x in order])
    fw = FrameWitness.of(lat)
    irr, n = lat.irreducibles[1], lat.n
    assert irr == 0b11100
    nu = [x if x in (lat.bottom, lat.top) else at[1] for x in range(n)]
    broken = [(a, b) for a in range(n) for b in range(a + 1, n)
              if nu[lat.meet_table[a][b]] != lat.meet_table[nu[a]][nu[b]]]
    mixed = [(a, b) for a, b in broken if (irr >> a | irr >> b) & 1]
    assert len(broken) == 6 and len(mixed) == 3
    assert all(irr >> a & 1 and not irr >> b & 1 for a, b in mixed)
    rows, real = [], subcolocales.is_exact_sublocale
    monkeypatch.setattr(subcolocales, "is_exact_sublocale",
                        lambda *args, **kw: rows.append(kw["pairs"]) or real(*args, **kw))
    subcolocales.se(fresh_sublocales(fw))
    assert len(rows) == 3
    for pairs in rows + [(lat.full_mask,) * n]:
        assert not is_exact_sublocale(fw, 0, nucleus=nu, pairs=pairs)
    for weak in ([irr] * n, [irr if irr >> a & 1 else 0 for a in range(n)]):
        assert is_exact_sublocale(fw, 0, nucleus=nu, pairs=weak)


def test_laws_open_and_closed_family_checks_match_the_scan(monkeypatch):
    # planted hosts: the open or the closed sublocale of one element is another's.
    # Each check fails iff the scan finds a failing family, and each of its
    # counterexamples is one: [] the empty join, [x, j] a join, (x, m) a meet
    verdicts = []
    for lat in (gen_chain(4), gen_boolean(2), gen_product(gen_chain(2), gen_chain(3))):
        fw = FrameWitness.of(lat)
        for which in ("open_index", "closed_index"):
            for a in range(lat.n):
                for b in range(lat.n):
                    sl = fresh_sublocales(fw)
                    planted = list(getattr(sl, which))
                    planted[a] = planted[b]
                    setattr(sl, which, tuple(planted))
                    monkeypatch.setattr(report, "enumerate_sublocales", lambda fw, limits: sl)
                    checks = {c["check"]: c for c in laws_suite("", fw)["checks"]}
                    want = scan_open_closed_laws(sl, binary_families(lat.n))
                    for name, (joins, meets) in want.items():
                        check = checks[name]
                        assert check["ok"] == (not joins and not meets), (lat, which, a, b)
                        for c in check["counterexamples"]:
                            assert sorted(set(c)) in (joins if isinstance(c, list) else meets), \
                                (lat, which, a, b, name, c)
                        verdicts.append(check["ok"])
    assert set(verdicts) == {True, False}


def test_open_joins_exact_matches_the_scan():
    # in bool2 the one incomparable pair of opens, the atoms', has adjacent indices
    frames = [FrameWitness.of(gen_chain(4)), FrameWitness.of(gen_product(gen_chain(2), gen_chain(3))),
              FrameWitness.of(gen_product(gen_chain(3), gen_chain(3))), FrameWitness.of(gen_boolean(2))]
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
            got = _open_joins_exact(sl_o, members)
            assert got == scan_open_joins_exact(sl_o, members, all_families(fw.lattice.n))
            inner.append(got)
    assert set(proper) == {True, False}
    assert set(inner) == {True, False}


def test_proper_matches_the_scan_on_every_subcolocale(corpus, hosts):
    for cf in corpus:
        sl_o = hosts[cf.name].fitted_subcoframe()
        opens = mask_of(sl_o.open_index)
        for members in enumerate_subcolocales(sl_o):
            want = opens & ~members == 0 and scan_open_joins_exact(
                sl_o, members, all_families(cf.frame.lattice.n))
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
        got = is_exact_map(f)
        assert got == scan_exact_map(f, scan_families(f.source.lattice.n, f.source, f.target)), \
            f.mapping
        verdicts.append(got)
    assert set(verdicts) == {True, False}
