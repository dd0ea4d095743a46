import random
from collections import Counter
from operator import and_, or_

import pytest

from subloc import (CoframeWitness, FrameWitness, Lattice, NotACoframe,
                    NotAFrame, covered_primes, covers, join_irreducibles,
                    primes)
from subloc.bits import bit, bits, bits_above, mask_of
from subloc.corpus import gen_boolean, gen_chain, gen_downsets_of_poset, gen_product
from subloc.lattice import intersection, join_violations, prime_mask, table_op, union

from oracles import (is_exact_meet, is_strongly_exact_meet, naive_difference,
                     naive_heyting, naive_is_exact_meet,
                     naive_join_irreducibles, naive_meet, naive_join, naive_primes)


def test_bits_of_short_and_long_masks():
    """``bits`` peels masks of up to 1,024 bits and reads longer ones off
    their binary digits; both give every set bit in increasing order, at
    the ends of the mask and around the switch, dense and sparse.  The
    switch's position only trades speed, so no test pins it."""
    rng = random.Random(26)
    masks = [0, 1, 1 << 1024, (1 << 1025) - 1, (1 << 3000) | 1]
    for length in (1, 63, 1023, 1024, 1025, 1100, 4000):
        masks += [rng.getrandbits(length) | 1 << (length - 1) for _ in range(3)]
        masks += [1 << rng.randrange(length) | 1 << (length - 1), 1 << (length - 1) | 1]
    long_ = 0
    for m in masks:
        want = [i for i in range(m.bit_length()) if m >> i & 1]
        assert list(bits(m)) == want and mask_of(bits(m)) == m
        cut = rng.randrange(m.bit_length() + 1)
        assert list(bits_above(m, cut)) == [i for i in want if i > cut]
        long_ += m.bit_length() > 1024
    assert long_ == 18


def test_chain_tables_are_min_max(c3):
    lat = c3.lattice
    for x in range(3):
        for y in range(3):
            assert lat.meet_table[x][y] == min(x, y)
            assert lat.join_table[x][y] == max(x, y)


def test_boolean_tables_are_mask_operations(b2):
    lat = b2.lattice
    for x in range(4):
        for y in range(4):
            assert lat.meet_table[x][y] == x & y
            assert lat.join_table[x][y] == x | y


def test_chain_heyting_frozen(c3):
    # x -> y is top when x <= y, else y
    expected = [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
    assert [list(row) for row in c3.heyting_table] == expected


def test_boolean_heyting_is_relative_complement(b2):
    for x in range(4):
        for y in range(4):
            assert b2.heyting_table[x][y] == (~x | y) & 3


def test_heyting_against_naive_oracle(corpus):
    for cf in corpus:
        up = cf.frame.lattice.up
        n = cf.frame.lattice.n
        for x in range(n):
            for y in range(n):
                assert cf.frame.heyting_table[x][y] == naive_heyting(up, x, y)


def test_meet_join_tables_against_naive_oracle(corpus, m3):
    """The corpus, the non-distributive M3 and N5, and the down-set
    lattices of random posets relabeled at random, so that index order is
    not a linear extension of the order the tables are looked up in."""
    rng = random.Random(34)
    n5 = Lattice.from_relation(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    lats = [cf.frame.lattice for cf in corpus] + [m3, n5]
    for points in (3, 4, 5, 5, 6):
        below = [0] * points
        for j in range(points):
            for i in range(j):
                if rng.random() < 0.4:
                    below[j] |= bit(i) | below[i]
        ds = gen_downsets_of_poset([bit(i) | mask_of(j for j in range(points) if below[j] >> i & 1)
                                    for i in range(points)])
        perm = list(range(ds.n))
        rng.shuffle(perm)
        up = [0] * ds.n
        for i, row in enumerate(ds.up):
            up[perm[i]] = mask_of(perm[j] for j in bits(row))
        lats += [ds, Lattice.from_up(up)]
    for lat in lats:
        for x in range(lat.n):
            for y in range(lat.n):
                assert lat.meet_table[x][y] == naive_meet(lat.up, x, y)
                assert lat.join_table[x][y] == naive_join(lat.up, x, y)


def test_difference_against_naive_oracle(corpus):
    for cf in corpus:
        lat = cf.frame.lattice
        cw = CoframeWitness.of(lat)
        for x in range(lat.n):
            for y in range(lat.n):
                assert cw.difference_table[x][y] == naive_difference(lat.up, x, y)


def test_duality_swaps_heyting_and_difference(corpus):
    # the difference table is the transposed arrow table of the dual, so
    # each is held to its own oracle, and the oracles to the duality
    for cf in corpus:
        lat = cf.frame.lattice
        cw = CoframeWitness.of(lat)
        dual_fw = FrameWitness.of(lat.dual())
        for x in range(lat.n):
            for y in range(lat.n):
                diff = naive_difference(lat.up, y, x)
                assert cw.difference_table[y][x] == diff
                assert dual_fw.heyting_table[x][y] == naive_heyting(lat.dual().up, x, y) == diff
        assert lat.dual().dual() == lat


def test_pseudocomplement_frozen(c3, b2):
    # the pseudocomplement of a is the arrow a -> bottom
    assert [c3.heyting_table[a][0] for a in range(3)] == [2, 0, 0]
    assert [b2.heyting_table[a][0] for a in range(4)] == [3, 2, 1, 0]


def test_supplement_on_boolean_is_complement(b2):
    cw = CoframeWitness.of(b2.lattice)
    for c in range(4):
        # the supplement of c is the difference top - c
        assert cw.difference_table[3][c] == (~c) & 3


def test_primes_frozen(c3, b2):
    assert sorted(bits(primes(c3))) == [0, 1]
    assert sorted(bits(primes(b2))) == [1, 2]
    b3 = FrameWitness.of(gen_boolean(3))
    assert sorted(bits(primes(b3))) == [3, 5, 6]


def test_irreducibles_are_kept_in_the_instance(corpus, m3):
    n5 = Lattice.from_relation(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    for lat in [cf.frame.lattice for cf in corpus] + [m3, n5]:
        assert lat.irreducibles == (mask_of(naive_join_irreducibles(lat.up)),
                                    mask_of(naive_join_irreducibles(lat.dn)))
        assert "irreducibles" in vars(lat)
        # the kept masks are not a field: equality and hashing ignore them
        fresh = Lattice.from_up(lat.up)
        assert fresh == lat and hash(fresh) == hash(lat)
        assert "irreducibles" not in vars(fresh)


def test_primes_against_naive_oracle(corpus, m3):
    for cf in corpus:
        got = frozenset(bits(primes(cf.frame)))
        assert got == naive_primes(cf.frame.lattice.up)
    # off distributivity a meet-irreducible need not be prime: M3's atoms
    # and N5's lower left element are meet-irreducible and not prime
    n5 = Lattice.from_relation(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    for lat in (m3, n5, gen_product(m3, gen_chain(2))):
        assert frozenset(bits(prime_mask(lat))) == naive_primes(lat.up)
    assert prime_mask(m3) == 0
    assert sorted(bits(prime_mask(n5))) == [2, 3]


def test_covered_primes_equal_primes(corpus):
    for cf in corpus:
        assert covered_primes(cf.frame) == primes(cf.frame)


def test_exact_meets_hold_on_distributive_frames(corpus):
    for cf in corpus:
        lat = cf.frame.lattice
        if lat.n > 6:
            continue
        for fam in range(1 << lat.n):
            assert is_exact_meet(lat, fam)
            assert is_strongly_exact_meet(cf.frame, fam)
            assert naive_is_exact_meet(lat.up, list(bits(fam)))


def test_diamond_is_not_distributive(m3):
    assert not m3.is_distributive()
    with pytest.raises(NotAFrame):
        FrameWitness.of(m3)
    with pytest.raises(NotACoframe):
        CoframeWitness.of(m3)


def test_diamond_has_an_inexact_meet(m3):
    assert not is_exact_meet(m3, 0b110)
    assert not naive_is_exact_meet(m3.up, [1, 2])


def test_join_irreducibles_and_covers(c3, b2):
    assert join_irreducibles(c3.lattice) == (1, 2)
    assert join_irreducibles(b2.lattice) == (1, 2)
    assert covers(c3.lattice) == ((0, 1), (1, 2))
    assert set(covers(b2.lattice)) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_join_irreducibles_match_the_cover_count(corpus, hosts, m3):
    n5 = Lattice.from_relation(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    lats = [cf.frame.lattice for cf in corpus] + [m3, n5, gen_chain(1)]
    lats += [hosts[name].as_lattice for name in ("chain5", "top3-16", "bool3")]
    for lat in lats:
        assert join_irreducibles(lat) == naive_join_irreducibles(lat.up)


def test_from_relation_matches_from_up():
    assert Lattice.from_relation(3, [(0, 1), (1, 2)]) == gen_chain(3)


def test_from_up_rejects_non_lattices():
    # two maximal elements: no top, joins missing
    with pytest.raises(ValueError):
        Lattice.from_up([0b111, 0b010, 0b100])
    # missing reflexivity
    with pytest.raises(ValueError):
        Lattice.from_up([0b110, 0b010, 0b100])


def test_from_up_rejects_order_without_meets():
    # four-element "bowtie" fragment: two bottoms
    with pytest.raises(ValueError):
        Lattice.from_up([0b0101, 0b0110, 0b0100, 0b1100])


def test_from_up_names_the_first_pair_without_a_meet_or_join():
    """The bounded bowtie 0 < a, b < c, d < 1 has a top and a bottom, so it
    passes those checks; a and b (1 and 2) have two least upper bounds, and
    in its dual two greatest lower bounds.  Stacking two bowties, a and b
    lack both, and the meet is checked first."""
    pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(ValueError, match="^elements 1,2 have no join$"):
        Lattice.from_relation(6, pairs)
    with pytest.raises(ValueError, match="^elements 1,2 have no meet$"):
        Lattice.from_relation(6, [(j, i) for i, j in pairs])
    # 0 < 3, 4 < 1, 2 < 5, 6 < 7
    stacked = [(0, 3), (0, 4), (5, 7), (6, 7)] + [(x, y) for x in (3, 4) for y in (1, 2)]
    stacked += [(x, y) for x in (1, 2) for y in (5, 6)]
    with pytest.raises(ValueError, match="^elements 1,2 have no meet$"):
        Lattice.from_relation(8, stacked)


def test_one_element_frame_degenerate():
    fw = FrameWitness.of(gen_chain(1))
    assert fw.lattice.bottom == fw.lattice.top == 0
    assert primes(fw) == 0
    assert fw.heyting_table[0][0] == 0


def test_join_violations_match_the_pair_scan(m3):
    """:func:`join_violations` against the scan of every pair, for joins
    and, on the meet table and the meet-irreducibles, for meets: each pair
    it yields fails, and it yields none iff no pair fails.  Sources are
    chains, bool3, a product and the non-distributive M3 and N5; targets
    are lattice tables, masks under ``|`` and ``&``, and pairs of masks
    elementwise.  Maps are random, constant (which keep every semilattice
    operation), the identity, ``x -> x ^ c`` and the down-set and up-set
    masks, so that both verdicts occur for every kind of target."""
    rng = random.Random(31)
    n5 = Lattice.from_up([0b11111, 0b10110, 0b10100, 0b11000, 0b10000])
    sources = [gen_chain(1), gen_chain(4), gen_boolean(3), gen_product(gen_chain(2), gen_chain(3)),
               m3, n5]
    verdicts = Counter()
    for src in sources:
        n = src.n
        join_irr, meet_irr = src.irreducibles
        for table, irr, side in ((src.join_table, join_irr, 0), (src.meet_table, meet_irr, 1)):
            cases = []
            for dst in sources:
                dst_table = (dst.join_table, dst.meet_table)[side]
                maps = [[rng.randrange(dst.n) for _ in range(n)] for _ in range(4)]
                maps += [[c] * n for c in range(dst.n)]
                if dst is src:
                    maps += [list(range(n))] + [list(src.meet_table[c]) for c in range(n)]
                cases += [("table", h, table_op(dst_table), lambda a, b, d=dst_table: d[a][b])
                          for h in maps]
            masks = [src.dn, src.up, [rng.getrandbits(n) for _ in range(n)], [5] * n]
            for curried, binary in ((union, or_), (intersection, and_)):
                cases += [("set", list(t), curried, binary) for t in masks]
                cases += [("elementwise", [[a, b] for a, b in zip(s, t)],
                           lambda a, f=binary: lambda b: list(map(f, a, b)),
                           lambda a, b, f=binary: list(map(f, a, b)))
                          for s in masks for t in masks]
            for kind, t, op, binary in cases:
                failing = {(x, y) for x in range(n) for y in range(n)
                           if t[table[x][y]] != binary(t[x], t[y])}
                got = list(join_violations(table, irr, t, op))
                assert set(got) <= failing and all(irr >> j & 1 for _, j in got), (src, kind, t)
                assert (not got) == (not failing), (src, kind, t)
                verdicts[kind, not failing] += 1
    assert set(verdicts) == {(kind, ok) for kind in ("table", "set", "elementwise")
                             for ok in (True, False)}, verdicts
