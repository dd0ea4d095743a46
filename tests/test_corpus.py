import random

import pytest

from subloc import FrameWitness, NotAFrame, SizeLimit
from subloc.bits import bits, mask_of
from subloc.config import DEFAULT_LIMITS
from subloc.corpus import (CorpusSpec, all_topologies, downset_masks,
                           gen_boolean, gen_chain, gen_diamond,
                           gen_downsets_of_poset,
                           gen_opens_of_topology, gen_product,
                           sample_topologies, standard_corpus, standard_spec)

from oracles import downset_frame, scan_downset_masks, scan_topologies


def test_chain_sizes_and_validation():
    for n in range(1, 7):
        lat = gen_chain(n)
        assert lat.n == n and lat.bottom == 0 and lat.top == n - 1
    with pytest.raises(ValueError):
        gen_chain(0)


def test_boolean_sizes():
    for k in range(4):
        lat = gen_boolean(k)
        assert lat.n == 1 << k
    with pytest.raises(ValueError):
        gen_boolean(-1)


def test_product_of_chains_is_grid():
    assert gen_product(gen_chain(2), gen_chain(2)) == gen_boolean(2)
    p = gen_product(gen_chain(2), gen_chain(3))
    assert p.n == 6 and p.is_distributive()


def test_downsets_of_antichain_is_boolean():
    # two incomparable points
    assert gen_downsets_of_poset([0b01, 0b10]) == gen_boolean(2)
    # a 2-chain has three down-sets
    assert gen_downsets_of_poset([0b11, 0b10]) == gen_chain(3)


def test_downsets_size_limit():
    with pytest.raises(SizeLimit):
        gen_downsets_of_poset([1 << i for i in range(17)])
    tight = DEFAULT_LIMITS.with_(max_downsets=3)
    with pytest.raises(SizeLimit, match="max_downsets=3 .*--limit max_downsets=N"):
        gen_downsets_of_poset([0b01, 0b10], tight)


def test_downsets_match_the_scan(corpus):
    # the element orders of the corpus, and each relabeled so that index
    # order is not a linear extension
    rng = random.Random(6)
    for cf in corpus:
        up = cf.frame.lattice.up
        perm = list(range(len(up)))
        rng.shuffle(perm)
        shuffled = [0] * len(up)
        for i, row in enumerate(up):
            shuffled[perm[i]] = mask_of(perm[j] for j in bits(row))
        for rows in (up, shuffled):
            assert downset_masks(rows) == scan_downset_masks(rows), cf.name


def test_downset_frame_of_a_long_chain():
    # 17 points were over the ground bound of the subset scan
    dl, eps, masks = downset_frame(FrameWitness.of(gen_chain(17)))
    assert dl.lattice == gen_chain(18)
    assert masks == tuple((1 << k) - 1 for k in range(18))
    assert eps.mapping == (0,) + tuple(range(17))


def test_sierpinski_is_three_chain():
    assert gen_opens_of_topology(2, [0b00, 0b01, 0b11]) == gen_chain(3)


def test_discrete_two_points_is_boolean():
    assert gen_opens_of_topology(2, [0, 1, 2, 3]) == gen_boolean(2)


def test_indiscrete_is_two_chain():
    assert gen_opens_of_topology(2, [0, 3]) == gen_chain(2)


def test_invalid_topologies_rejected():
    with pytest.raises(ValueError, match="empty set"):
        gen_opens_of_topology(2, [1, 3])
    with pytest.raises(ValueError, match="union"):
        gen_opens_of_topology(3, [0b000, 0b001, 0b010, 0b111])
    with pytest.raises(ValueError, match="outside"):
        gen_opens_of_topology(2, [0, 4, 3])
    with pytest.raises(ValueError, match="intersection"):
        gen_opens_of_topology(3, [0b000, 0b011, 0b110, 0b111])


def test_topology_counts_match_known_values():
    # labeled topologies on 0..4 points: 1, 1, 4, 29, 355
    assert len(all_topologies(0)) == 1
    assert len(all_topologies(1)) == 1
    assert len(all_topologies(2)) == 4
    assert len(all_topologies(3)) == 29
    assert len(all_topologies(4)) == 355
    with pytest.raises(ValueError):
        all_topologies(5)


def test_topologies_from_preorders_match_the_family_scan():
    for k in range(5):
        assert all_topologies(k) == scan_topologies(k), k


def test_every_topology_yields_a_frame():
    for opens in all_topologies(3):
        FrameWitness.of(gen_opens_of_topology(3, opens))


def test_sampling_is_deterministic():
    a = sample_topologies(4, 5, seed=7)
    b = sample_topologies(4, 5, seed=7)
    assert a == b and len(a) == 5
    c = sample_topologies(4, 5, seed=8)
    assert c != a
    assert sample_topologies(2, 99, seed=0) == all_topologies(2)


def test_standard_corpus_composition(corpus):
    names = [cf.name for cf in corpus]
    assert len(names) == 6 + 4 + 29
    assert len(set(names)) == len(names)
    assert "chain6" in names and "bool3" in names and "top3-00" in names


def test_diamond_skipped_by_frames_but_listed():
    spec = CorpusSpec(generators=(("diamond",), ("chain", 2)))
    lats = dict(spec.lattices())
    assert "diamondM3" in lats and not lats["diamondM3"].is_distributive()
    assert [cf.name for cf in spec.frames()] == ["chain2"]


@pytest.mark.parametrize("points4", [0, 20, 355])
def test_standard_spec_lists_no_non_frame(points4):
    """``subloc report`` reads the corpus as lattices, with no frame filter;
    the standard spec yields frames only, so it drops nothing."""
    names = [name for name, _ in standard_spec(points4, seed=3).lattices()]
    assert names == [cf.name for cf in standard_corpus(points4, seed=3)]


def test_spec_generator_dispatch():
    spec = CorpusSpec(generators=(
        ("product", ("chain", 2), ("chain", 2)),
        ("downsets", (0b01, 0b10)),
        ("topology", 2, (0, 1, 3)),
        ("topology_sample", 3, 2, 5),
    ))
    names = [name for name, _ in spec.lattices()]
    assert names[:3] == ["prod(chain2,chain2)", "downsets2", "top2"]
    assert len(names) == 5
    with pytest.raises(ValueError, match="unknown generator"):
        list(CorpusSpec(generators=(("nope",),)).lattices())


def test_corpus_frames_are_validated():
    for cf in standard_corpus():
        assert cf.frame.lattice.is_distributive()
        with pytest.raises(NotAFrame):
            FrameWitness.of(gen_diamond())
