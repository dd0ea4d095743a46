import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import subloc
from subloc import corpus as subloc_corpus, correspondence
from subloc import (FrameMap, FrameWitness, LiftVerdict, NotProper, SZDBF, Subcolocale,
                    SublocaleCoframe, RaneyExtension, downset_join_map_violations,
                    enumerate_sublocales, extend_to_coframe_map, is_exact_map, raney_lift_check,
                    serialize_lattice, sb, subcolocale_lattice,
                    surjection_of, szdbf_lift_check, to_raney, to_szdbf)
from subloc.bits import bit, bits
from subloc.corpus import (downset_masks, gen_boolean, gen_chain, gen_diamond,
                           gen_downsets_of_poset,
                           gen_product, standard_corpus)
from subloc.correspondence import quotient_verdicts
from subloc.errors import InternalInconsistency
from subloc.lattice import Lattice, join_irreducibles
from subloc.report import correspondence_suite
from subloc.subcolocales import enumerate_subcolocales, se
from subloc.sublocales import nucleus_element

from oracles import (downset_frame, fold_meet_dense, fresh_sublocales, generic_raney_lift,
                     generic_szdbf_lift, is_smooth, per_quotient_verdicts,
                     right_adjoint_image, scan_coframe_map,
                     scan_coframe_maps, szdbf_pins, table_downset_join_map,
                     table_sublocale_frame, table_subcolocale_lattice, verdict_json)

N5 = Lattice.from_relation(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
# chains, Boolean lattices, a grid, and the two non-distributive lattices
CHECKED_LATTICES = (gen_chain(2), gen_chain(3), gen_chain(5), gen_boolean(2), gen_boolean(3),
                    gen_product(gen_chain(3), gen_chain(3)), gen_diamond(), N5)


def test_frame_map_validation(c3, b2):
    ident = FrameMap.of(c3, c3, (0, 1, 2))
    assert ident(1) == 1
    with pytest.raises(ValueError, match="bottom"):
        FrameMap.of(c3, c3, (1, 1, 2))
    with pytest.raises(ValueError, match="top"):
        FrameMap.of(c3, c3, (0, 1, 1))
    with pytest.raises(ValueError, match="join"):
        FrameMap.of(b2, c3, (0, 0, 1, 2))
    with pytest.raises(ValueError, match="meet"):
        FrameMap.of(b2, c3, (0, 1, 1, 2))
    with pytest.raises(ValueError, match="function"):
        FrameMap.of(c3, c3, (0, 7, 2))
    with pytest.raises(ValueError, match="function"):
        FrameMap.of(c3, c3, (0, 2))


def test_frame_map_right_adjoint(c3):
    squash = FrameMap.of(FrameWitness.of(gen_chain(4)), c3, (0, 1, 1, 2))
    assert [squash.right_adjoint(m) for m in range(3)] == [0, 2, 3]


def test_exact_maps_on_identity_and_squash(c3):
    assert is_exact_map(FrameMap.of(c3, c3, (0, 1, 2)))
    squash = FrameMap.of(FrameWitness.of(gen_chain(4)), c3, (0, 1, 1, 2))
    assert is_exact_map(squash)


def test_sublocale_frame_of_closed_chain(hosts):
    sl = hosts["chain3"]
    f = surjection_of(sl, sl.closed_index[1])
    assert f.target.lattice == gen_chain(2)
    assert f.mapping == (0, 0, 1)


def test_surjection_targets_match_the_table_oracle():
    # every sublocale of the sampled corpus, whose 4-point topologies reach
    # 16 elements; the oracle rebuilds each target with FrameWitness.of
    checked = restricted = 0
    for cf in standard_corpus(20, 0):
        fw = cf.frame
        sl = enumerate_sublocales(fw)
        for i, members in enumerate(sl.elems):
            f = surjection_of(sl, i)
            want, elems = table_sublocale_frame(sl, i)
            assert f.target.lattice == want.lattice, (cf.name, i)
            assert f.target.heyting_table == want.heyting_table, (cf.name, i)
            assert f.target.primes == want.primes, (cf.name, i)
            assert [elems[v] for v in f.mapping] == \
                [nucleus_element(fw, members, a) for a in range(fw.lattice.n)]
            checked += 1
            restricted += f.target.lattice is not fw.lattice
    assert checked == 540 and restricted == checked - 59


def test_surjections_are_validated_frame_maps(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        if sl.size > 16:
            continue
        for i in range(sl.size):
            f = surjection_of(sl, i)
            assert set(f.mapping) == set(range(f.target.lattice.n))
            assert is_exact_map(f)


def test_one_pass_verdicts_match_the_per_quotient_path():
    """``quotient_verdicts`` decides the three checks of every quotient in
    the frame's own index space; ``per_quotient_verdicts`` maps each
    quotient onto a target frame with its own structures and runs
    ``is_exact_map`` and both lift checks on it.  They agree on every
    quotient of the 28 distinct frames of the sampled corpus and of
    chain12, where every verdict is true."""
    frames = {serialize_lattice(cf.frame.lattice): cf.frame for cf in standard_corpus(20, 0)}
    assert len(frames) == 28
    quotients = 0
    for fw in [*frames.values(), FrameWitness.of(gen_chain(12))]:
        sl = enumerate_sublocales(fw)
        got = list(quotient_verdicts(SZDBF(fw, Subcolocale(sl, sb(sl)))))
        assert got == per_quotient_verdicts(sl)
        assert all(all(v) for v in got)
        quotients += len(got)
    assert quotients == 331 + 2048


def test_everything_is_smooth_and_exact_here(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        full = (1 << sl.size) - 1
        assert all(is_smooth(sl, i) for i in range(sl.size))
        assert se(sl) == full


def test_extension_search_negative():
    # pinning both atoms to the middle forces their join there too, but the
    # join is pinned at the top: no coframe map extends this
    v = extend_to_coframe_map(gen_boolean(2), gen_chain(3), [(1, 1), (2, 1), (3, 2)])
    assert not v.exists and v.exhausted and v.witnesses == ()


def test_extension_requires_meet_dense_pins():
    # the top alone is not meet-dense in bool2, nor an atom with the top
    b2 = gen_boolean(2)
    for pins in ([(3, 3)], [(1, 1), (3, 3)]):
        with pytest.raises(ValueError, match="meet-dense"):
            extend_to_coframe_map(b2, b2, pins)


def test_szdbf_pins_add_the_coatoms_of_s(corpus, hosts):
    # past the closeds, the zero-dimensional pins are the coatoms P - {p} of
    # S(L), one per prime; the closeds alone meet-generate only the up-sets
    # of primes, so on a frame with two comparable primes they are not dense
    checked = 0
    for cf in corpus:
        sl = hosts[cf.name]
        ident = FrameMap.of(cf.frame, cf.frame, range(cf.frame.lattice.n))
        pins = list(szdbf_pins(ident, sl, sl))
        coatoms = pins[cf.frame.lattice.n:]
        every = (1 << len(coatoms)) - 1
        assert [sl.points[s] for s, t in coatoms] == \
            [every & ~(1 << j) for j in range(len(coatoms))]
        assert all(s == t for s, t in pins)
        checked += len(coatoms)
    assert checked == sum(bin(cf.frame.primes).count("1") for cf in corpus) > 0
    sl = hosts["chain3"]
    closeds = [(sl.closed_of(x),) * 2 for x in range(3)]
    with pytest.raises(ValueError, match="meet-dense"):
        extend_to_coframe_map(sl.as_lattice, sl.as_lattice, closeds)


def test_coframe_map_check_matches_the_pairwise_scan():
    """The check against the irreducibles agrees with the scan of every
    pair.  Between two lattices with at most 4096 maps keeping the bounds
    it meets every such map, so also those that keep every meet and fail
    only a join, or the reverse.  Between larger ones it meets the identity
    with one value moved and random maps.  Pins come from the map, with
    one pin off in every third case; the unpinned verdict is checked too.
    No map tells a check that skips one join-irreducible ``j0``
    from the full one: with meets kept ``h`` is monotone, and joining the
    other join-irreducibles onto ``j0`` one at a time gives every join with
    ``j0`` by the induction of :func:`is_coframe_map`."""
    rng = random.Random(13)
    verdicts, cases = {True: 0, False: 0}, 0
    for src in CHECKED_LATTICES:
        inner = [x for x in range(src.n) if x not in (src.bottom, src.top)]
        for dst in CHECKED_LATTICES:
            if dst.n ** len(inner) <= 4096:
                candidates = product(range(dst.n), repeat=len(inner))
            else:
                moved = [list(range(src.n)) for _ in range(6)] if src is dst else []
                for h in moved:
                    h[rng.choice(inner)] = rng.randrange(dst.n)
                candidates = [[h[x] for x in inner] for h in moved] + \
                    [[rng.randrange(dst.n) for _ in inner] for _ in range(6)]
            for values in candidates:
                h = [dst.bottom] * src.n
                h[src.top] = dst.top
                for x, v in zip(inner, values):
                    h[x] = v
                pins = [(s, h[s]) for s in rng.sample(range(src.n), rng.randint(0, src.n))]
                if cases % 3 == 0 and pins:
                    pins[0] = (pins[0][0], rng.randrange(dst.n))
                for p in (pins, ()):
                    want = scan_coframe_map(src, dst, h, p)
                    assert correspondence.is_coframe_map(src, dst, h, p) == want, (src, dst, h, p)
                    verdicts[want] += 1
                cases += 1
    assert cases == 12725 and verdicts[True] >= 500 and verdicts[False] >= 10000, verdicts


def test_coframe_map_check_needs_every_left_argument():
    """A check that takes only irreducible left arguments passes a map that
    is no lattice map, so :func:`is_coframe_map` takes every ``a``.  The
    rank-2 elements of ``2^4`` are neither join- nor meet-irreducible.  Add
    to ``2^4`` a ``z`` strictly between ``abc`` and the top, a second
    complement of ``d``.  The identity with ``abc`` moved to ``z`` keeps
    every join with an atom and every meet with a coatom whose left side is
    an atom or a coatom, but sends ``ab v c = abc`` to ``z``, above
    ``ab v c``."""
    src = gen_boolean(4)
    abc, z = 0b0111, 16
    dst = Lattice.from_up([row | bit(z) if row >> abc & 1 else row for row in src.up]
                          + [bit(z) | bit(src.top)])
    h = list(range(src.n))
    h[abc] = z
    join_irr, meet_irr = src.irreducibles
    joins, meets = src.join_table, src.meet_table
    assert all(h[joins[a][j]] == dst.join_table[h[a]][h[j]]
               for a in bits(join_irr | meet_irr) for j in bits(join_irr))
    assert all(h[meets[a][m]] == dst.meet_table[h[a]][h[m]]
               for a in bits(join_irr | meet_irr) for m in bits(meet_irr))
    ab, c = 0b0011, 0b0100
    assert not (join_irr | meet_irr) >> ab & 1
    assert h[joins[ab][c]] == z != dst.join_table[h[ab]][h[c]] == abc
    assert not correspondence.is_coframe_map(src, dst, h, ())
    assert not scan_coframe_map(src, dst, h, ())


def test_meet_dense_pins_are_those_holding_every_meet_irreducible():
    """The lift refuses its pins exactly when the fold over every pin finds
    them not meet-dense: dropping any one meet-irreducible pin is refused,
    and dropping any set of the other pins is not."""
    rng = random.Random(5)
    refused = accepted = 0
    for src in CHECKED_LATTICES:
        meet_irr = set(bits(src.irreducibles[1]))
        rest = [x for x in range(src.n) if x not in meet_irr]
        trials = [set(range(src.n)) - {m} for m in meet_irr]
        trials += [meet_irr.union(rng.sample(rest, k)) for k in range(len(rest) + 1)]
        for sources in trials:
            dense = fold_meet_dense(src, sources)
            assert dense == (meet_irr <= sources)
            pins = [(s, s) for s in sorted(sources)]
            if dense:
                assert extend_to_coframe_map(src, src, pins).witnesses == (tuple(range(src.n)),)
                accepted += 1
            else:
                with pytest.raises(ValueError, match="meet-dense"):
                    extend_to_coframe_map(src, src, pins)
                refused += 1
    assert refused == sum(bin(lat.irreducibles[1]).count("1") for lat in CHECKED_LATTICES)
    assert accepted == sum(lat.n - bin(lat.irreducibles[1]).count("1") + 1
                           for lat in CHECKED_LATTICES)


def test_lift_verdict_json():
    v = extend_to_coframe_map(gen_chain(2), gen_chain(2), [(0, 0)])
    assert verdict_json(v) == {"exists": True, "witnesses": [[0, 1]],
                           "nodes_explored": 0, "exhausted": True}
    # a witness given as a builder runs on first read, once, and takes part
    # in equality like a given one
    built = []
    lazy = LiftVerdict(True, lambda: built.append(1) or ((0, 1),), 0, True)
    assert built == [] and lazy.exists
    assert lazy == v and lazy != LiftVerdict(True, ((1, 0),), 0, True) and built == [1]
    assert verdict_json(lazy) == verdict_json(v) and built == [1]


def test_determined_map_matches_the_map_scan():
    # the meet-irreducibles are meet-dense, so with them pinned (plus random
    # extras) at most one coframe map keeps the pins, and it is the lift
    lats = (gen_chain(2), gen_chain(3), gen_chain(4), gen_boolean(2), N5, gen_diamond())
    rng = random.Random(4)
    seen, cases = set(), 0
    for src in lats:
        meet_irr = set(join_irreducibles(src.dual()))
        rest = [x for x in range(src.n) if x not in meet_irr]
        for dst in lats:
            maps = scan_coframe_maps(src, dst, {})
            for trial in range(8):
                pinned = sorted(meet_irr.union(rng.sample(rest, rng.randint(0, len(rest)))))
                if trial % 2 and maps:   # pins some map keeps, so that lifts exist
                    h = rng.choice(maps)
                    pins = [(s, h[s]) for s in pinned]
                else:
                    pins = [(s, rng.randrange(dst.n)) for s in pinned]
                want = scan_coframe_maps(src, dst, dict(pins))
                v = extend_to_coframe_map(src, dst, pins)
                assert len(want) <= 1
                assert v.exists == bool(want) and v.witnesses == tuple(want)
                seen.add(v.exists)
                cases += 1
    assert seen == {True, False} and cases == 288


def test_lifts_match_the_map_scan_of_the_structures():
    """Every frame map between frames whose S(L) has at most 8 elements
    lifts, on each side, to the one coframe map of the two subcolocale
    lattices that keeps the definitional pins alone: closeds to closeds,
    or opens to opens.  The scan tries every map, so it also confirms
    that the coatom pins of the zero-dimensional side add no constraint."""
    structures = []
    for lat in [gen_chain(n) for n in range(1, 5)] + [gen_boolean(2)]:
        fw = FrameWitness.of(lat)
        sl = enumerate_sublocales(fw)
        b = SZDBF(fw, Subcolocale(sl, sb(sl)))
        structures.append((fw, b, to_raney(b)))
    maps = 0
    for fw1, b1, r1 in structures:
        for fw2, b2, r2 in structures:
            for h in scan_coframe_maps(fw1.lattice, fw2.lattice, {}):
                f = FrameMap.of(fw1, fw2, h)
                for check, s1, sub1, s2, sub2, pin in (
                        (szdbf_lift_check, b1, b1.d_sub, b2, b2.d_sub, SublocaleCoframe.closed_of),
                        (raney_lift_check, r1, r1.f_sub, r2, r2.f_sub, SublocaleCoframe.open_of)):
                    src, src_idxs = subcolocale_lattice(sub1.host, sub1.members)
                    dst, dst_idxs = subcolocale_lattice(sub2.host, sub2.members)
                    pins = {src_idxs.index(pin(sub1.host, x)): dst_idxs.index(pin(sub2.host, f(x)))
                            for x in range(fw1.lattice.n)}
                    want = scan_coframe_maps(src, dst, pins)
                    assert len(want) == 1, (fw1.lattice, fw2.lattice, h)
                    assert check(f, s1, s2).witnesses == \
                        (tuple(dst_idxs[v] for v in want[0]),)
                maps += 1
    assert maps == 60


def test_every_frame_map_lifts_at_finite_scale():
    """Functoriality on finite frames: every frame map between frames of at
    most 5 elements lifts on both sides.
    One frame per isomorphism class: the chains, bool2, and bool2 with a
    new bottom or a new top (the down-sets of a point below, or above, two
    others)."""
    lats = [gen_chain(n) for n in range(1, 6)] + [
        gen_boolean(2), gen_downsets_of_poset((0b111, 0b010, 0b100)),
        gen_downsets_of_poset((0b101, 0b110, 0b100))]
    structures = []
    for lat in lats:
        fw = FrameWitness.of(lat)
        sl = enumerate_sublocales(fw)
        b = SZDBF(fw, Subcolocale(sl, sb(sl)))
        structures.append((fw, b, to_raney(b)))
    maps = 0
    for fw1, b1, r1 in structures:
        for fw2, b2, r2 in structures:
            for h in scan_coframe_maps(fw1.lattice, fw2.lattice, {}):
                f = FrameMap.of(fw1, fw2, h)
                for v in (szdbf_lift_check(f, b1, b2), raney_lift_check(f, r1, r2)):
                    assert v.exists, (fw1.lattice, fw2.lattice, h)
                maps += 1
    assert maps == 381


def test_subcolocale_lattice_of_full_host(hosts):
    sl = hosts["chain4"]
    lat, idxs = subcolocale_lattice(sl, (1 << sl.size) - 1)
    assert idxs == tuple(range(sl.size))
    assert lat is sl.as_lattice


def test_subcolocale_lattice_matches_table_oracle(corpus, hosts):
    # the down-sets of a point below two others, beside a fourth: some
    # subcolocales of its fitted host miss a meet of their members, and the
    # conucleus of that meet is not always the bottom
    vee = enumerate_sublocales(FrameWitness.of(gen_downsets_of_poset((1, 14, 4, 8))))
    checked = restricted = not_meet_closed = 0
    for sl in [hosts[cf.name] for cf in corpus] + [vee]:
        for host in (sl, sl.fitted_subcoframe()):
            full = (1 << host.size) - 1
            subs = (enumerate_subcolocales(host) if host.size <= 10
                    else {full, sb(sl) if host is sl else full})
            for m in subs:
                assert subcolocale_lattice(host, m) == table_subcolocale_lattice(host, m)
                checked += 1
                restricted += m != full
                not_meet_closed += any(not (m >> host.meet(a, b)) & 1
                                       for a in bits(m) for b in bits(m))
    assert checked >= 490 and restricted >= 400 and not_meet_closed >= 1


def test_lift_checks_build_no_lattice(monkeypatch):
    # neither side builds a subcolocale lattice or either host's as_lattice:
    # the Raney side reads the frames' tables through each extension's
    # element_of, the zero-dimensional side reads prime sets
    c3 = FrameWitness.of(gen_chain(3))
    built = []
    real = correspondence.subcolocale_lattice
    monkeypatch.setattr(correspondence, "subcolocale_lattice",
                        lambda host, members: built.append(members) or real(host, members))
    sl = enumerate_sublocales(c3)
    b = SZDBF(c3, Subcolocale(sl, sb(sl)))
    r = to_raney(b)
    ident = FrameMap.of(c3, c3, (0, 1, 2))
    for _ in range(3):
        assert szdbf_lift_check(ident, b, b).witnesses
        assert raney_lift_check(ident, r, r).witnesses
    assert built == []
    assert "as_lattice" not in vars(sl) and "as_lattice" not in vars(sl.fitted_subcoframe())
    assert "element_of" in vars(r)


def test_raney_lift_matches_the_generic_lift(corpus, hosts):
    """The lift read off the frames' tables gives the verdict and witness of
    the generic lift between the two fitted collections' lattices with the
    opens pinned (``generic_raney_lift``): on every quotient of the corpus,
    and on every map between chains 1-4 and bool2 that sends the top to the
    top and, when it is another element, the bottom to the bottom, built
    without ``FrameMap.of``.  Of those 116 maps the 60 frame maps lift; of
    the other 56, some keep every meet and break a join, others the
    reverse, and four send the bottom of chain1 to another frame's top."""
    quotients = 0
    for cf in corpus:
        sl = hosts[cf.name]
        r1 = to_raney(SZDBF(cf.frame, Subcolocale(sl, sb(sl))))
        for i in range(sl.size):
            f = surjection_of(sl, i)
            sub_sl = enumerate_sublocales(f.target)
            r2 = to_raney(SZDBF(f.target, Subcolocale(sub_sl, sb(sub_sl))))
            v = raney_lift_check(f, r1, r2)
            assert v.exists and v == generic_raney_lift(f, r1, r2), (cf.name, i)
            quotients += 1
    assert quotients == 268
    structures = []
    for lat in [gen_chain(n) for n in range(1, 5)] + [gen_boolean(2)]:
        fw = FrameWitness.of(lat)
        sl = enumerate_sublocales(fw)
        structures.append((fw, to_raney(SZDBF(fw, Subcolocale(sl, sb(sl))))))
    verdicts, broken = {True: 0, False: 0}, {"meet": 0, "join": 0}
    for fw1, r1 in structures:
        for fw2, r2 in structures:
            src, dst = fw1.lattice, fw2.lattice
            inner = [x for x in range(src.n) if x not in (src.bottom, src.top)]
            for values in product(range(dst.n), repeat=len(inner)):
                h = [dst.bottom] * src.n
                h[src.top] = dst.top
                for x, y in zip(inner, values):
                    h[x] = y
                f = FrameMap(fw1, fw2, tuple(h))
                v = raney_lift_check(f, r1, r2)
                assert v == generic_raney_lift(f, r1, r2), (src, dst, h)
                verdicts[v.exists] += 1
                meets, joins = (all(h[op[a][b]] == dop[h[a]][h[b]]
                                    for a in range(src.n) for b in range(src.n))
                                for op, dop in ((src.meet_table, dst.meet_table),
                                                (src.join_table, dst.join_table)))
                if meets != joins:
                    broken["join" if meets else "meet"] += 1
    assert verdicts == {True: 60, False: 56}
    assert broken["meet"] > 0 and broken["join"] > 0, broken


def test_a_suite_pass_builds_no_zero_dimensional_image(monkeypatch):
    # the suites read only whether each lift exists, so no 2^p image is
    # filled; a witness read afterwards builds one
    built = []
    real = correspondence._powerset_witness
    monkeypatch.setattr(correspondence, "_powerset_witness",
                        lambda src, dst, atoms: built.append(atoms) or real(src, dst, atoms))
    fw = FrameWitness.of(gen_chain(5))
    result = correspondence_suite("chain5", fw)
    assert result["ok"] and result["sublocales"] == 16
    assert built == []
    sl = enumerate_sublocales(fw)
    b = SZDBF(fw, Subcolocale(sl, sb(sl)))
    v = szdbf_lift_check(FrameMap.of(fw, fw, range(fw.lattice.n)), b, b)
    assert v.exists and built == []
    assert v.witnesses == (tuple(range(sl.size)),) and len(built) == 1
    assert v.witnesses and len(built) == 1


def test_raney_extension_checks_open_once_per_structure(monkeypatch):
    # element_of is the host's inverse of open, and the structure checks it on
    # first read only: a host whose open is no bijection raises on the host's
    # first read, and one whose open keeps no meet, or an F short of the
    # host, on the structure's
    sl = enumerate_sublocales(FrameWitness.of(gen_chain(3)))
    sl_o = sl.fitted_subcoframe()
    full = Subcolocale(sl_o, (1 << sl_o.size) - 1)
    ident = FrameMap.of(sl.ambient, sl.ambient, range(3))
    r = RaneyExtension(sl.ambient, full)
    assert [sl_o.open_index[x] for x in r.element_of] == list(range(sl_o.size))
    meets = []
    real = SublocaleCoframe.meet
    monkeypatch.setattr(SublocaleCoframe, "meet",
                        lambda self, i, j: meets.append(i) or real(self, i, j))
    assert raney_lift_check(ident, r, r).exists
    assert meets == []
    monkeypatch.undo()
    assert sl_o.open_index == (0, 1, 2)
    fresh = fresh_sublocales(sl.ambient).fitted_subcoframe()
    monkeypatch.setattr(fresh, "open_index", (0, 0, 2))
    planted = RaneyExtension(sl.ambient, Subcolocale(fresh, full.members))
    with pytest.raises(InternalInconsistency, match="bijection"):
        raney_lift_check(ident, planted, r)
    assert "element_of" not in vars(fresh)
    monkeypatch.undo()
    planted = RaneyExtension(sl.ambient, full)
    monkeypatch.setattr(sl_o, "open_index", (2, 1, 0))
    with pytest.raises(InternalInconsistency, match="meet"):
        raney_lift_check(ident, planted, r)
    monkeypatch.undo()
    planted = RaneyExtension(sl.ambient, full)
    planted.f_sub = Subcolocale(sl_o, full.members & ~1, validate=False)
    with pytest.raises(InternalInconsistency, match="not all of"):
        raney_lift_check(ident, r, planted)


def test_szdbf_lift_matches_the_generic_lift():
    """The partition test on prime sets gives the verdict and witness of the
    generic lift between the two subcolocale lattices, on every map between
    chains 1-4 and bool2.  Of the 112 maps that keep the bounds, the 60
    frame maps lift and the other 52 do not; no map that moves a bound
    lifts, and moving the bottom is what the cover test of the partition
    catches.  The primes of those frames fix every closed pin once the
    atoms partition, so the identity of bool3 with one inner value moved
    follows: its atoms are not primes, and only a closed pin refuses it."""
    structures = []
    for lat in [gen_chain(n) for n in range(1, 5)] + [gen_boolean(2)]:
        fw = FrameWitness.of(lat)
        sl = enumerate_sublocales(fw)
        structures.append((fw, SZDBF(fw, Subcolocale(sl, sb(sl)))))
    kept, moved = {True: 0, False: 0}, {True: 0, False: 0}
    for fw1, b1 in structures:
        for fw2, b2 in structures:
            src, dst = fw1.lattice, fw2.lattice
            for h in product(range(dst.n), repeat=src.n):
                f = FrameMap(fw1, fw2, h)
                v = szdbf_lift_check(f, b1, b2)
                assert v == generic_szdbf_lift(f, b1, b2), (src, dst, h)
                bounds = h[src.bottom] == dst.bottom and h[src.top] == dst.top
                (kept if bounds else moved)[v.exists] += 1
    assert kept == {True: 60, False: 52} and moved == {True: 0, False: 1332}
    fw = FrameWitness.of(gen_boolean(3))
    sl = enumerate_sublocales(fw)
    b = SZDBF(fw, Subcolocale(sl, sb(sl)))
    checked = 0
    for x in range(1, 7):
        for y in set(range(8)) - {x}:
            f = FrameMap(fw, fw, tuple(y if a == x else a for a in range(8)))
            v = szdbf_lift_check(f, b, b)
            assert v == generic_szdbf_lift(f, b, b) and not v.exists
            checked += 1
    assert checked == 42


def test_szdbf_lift_refuses_a_subcolocale_short_of_s(c3, monkeypatch):
    # only S(L) itself is codense, so a D that passed a faulty codense test
    # is a double-entry disagreement, not a verdict
    sl = enumerate_sublocales(c3)
    full = SZDBF(c3, Subcolocale(sl, (1 << sl.size) - 1))
    monkeypatch.setattr(correspondence, "is_codense", lambda host, members: True)
    short = SZDBF(c3, Subcolocale(sl, 1))
    ident = FrameMap.of(c3, c3, (0, 1, 2))
    for b1, b2 in ((short, full), (full, short)):
        with pytest.raises(InternalInconsistency, match="codense"):
            szdbf_lift_check(ident, b1, b2)


def test_raney_and_szdbf_structures_validate(c3, hosts):
    sl = hosts["chain3"]
    slo = sl.fitted_subcoframe()
    b = SZDBF(c3, Subcolocale(sl, (1 << sl.size) - 1))
    assert b.is_essential()
    r = to_raney(b)
    assert r.proper and r.f_sub.members == (1 << slo.size) - 1
    with pytest.raises(ValueError, match="codense"):
        SZDBF(c3, Subcolocale(sl, 0b0011))
    with pytest.raises(ValueError, match="full sublocale coframe"):
        SZDBF(c3, Subcolocale(slo, (1 << slo.size) - 1))
    with pytest.raises(ValueError, match="every open"):
        RaneyExtension(c3, Subcolocale(slo, 0b101))
    with pytest.raises(ValueError, match="fitted"):
        RaneyExtension(c3, Subcolocale(sl, (1 << sl.size) - 1))


def test_raney_szdbf_round_trip(corpus, hosts):
    for cf in corpus:
        sl = hosts[cf.name]
        b = SZDBF(cf.frame, Subcolocale(sl, sb(sl)))
        r = to_raney(b)
        assert r.proper
        back = to_szdbf(r)
        assert back.d_sub.members == b.d_sub.members
        again = to_raney(back)
        assert again.f_sub.members == r.f_sub.members


def test_to_szdbf_guards_on_properness(c3, hosts):
    sl = hosts["chain3"]
    r = to_raney(SZDBF(c3, Subcolocale(sl, (1 << sl.size) - 1)))
    r.proper = False
    with pytest.raises(NotProper):
        to_szdbf(r)


def test_lift_checks_on_identity(c3, hosts):
    sl = hosts["chain3"]
    b = SZDBF(c3, Subcolocale(sl, sb(sl)))
    r = to_raney(b)
    ident = FrameMap.of(c3, c3, (0, 1, 2))
    assert szdbf_lift_check(ident, b, b).exists
    assert raney_lift_check(ident, r, r).exists


def test_lift_checks_reject_mismatched_frames(c3, b2, hosts):
    slc = hosts["chain3"]
    slb = hosts["bool2"]
    bc = SZDBF(c3, Subcolocale(slc, sb(slc)))
    bb = SZDBF(b2, Subcolocale(slb, sb(slb)))
    ident = FrameMap.of(c3, c3, (0, 1, 2))
    with pytest.raises(ValueError):
        szdbf_lift_check(ident, bc, bb)


def test_lift_agreement_with_smooth_and_exact(hosts):
    for name in ("chain4", "bool2", "top3-07"):
        sl = hosts[name]
        fw = sl.ambient
        b1 = SZDBF(fw, Subcolocale(sl, sb(sl)))
        r1 = to_raney(b1)
        se_m = se(sl)
        for i in range(sl.size):
            f = surjection_of(sl, i)
            sub_sl = enumerate_sublocales(f.target)
            b2 = SZDBF(f.target, Subcolocale(sub_sl, sb(sub_sl)))
            r2 = to_raney(b2)
            assert szdbf_lift_check(f, b1, b2).exists == is_smooth(sl, i)
            assert raney_lift_check(f, r1, r2).exists == bool((se_m >> i) & 1)


def test_lift_verdicts_are_pinned(corpus, hosts):
    """Verdicts and witnesses of both lifts along every quotient map of the
    corpus; the report JSON carries only the verdicts, and the witnesses
    are read here on request.  The hash was taken
    from the join-irreducible search that the determined lift replaced,
    asked for up to three witnesses: it found exactly one for every lift."""
    rows = []
    for cf in corpus:
        sl = hosts[cf.name]
        b1 = SZDBF(cf.frame, Subcolocale(sl, sb(sl)))
        r1 = to_raney(b1)
        for i in range(sl.size):
            f = surjection_of(sl, i)
            sub_sl = enumerate_sublocales(f.target)
            b2 = SZDBF(f.target, Subcolocale(sub_sl, sb(sub_sl)))
            v_s = szdbf_lift_check(f, b1, b2)
            v_r = raney_lift_check(f, r1, to_raney(b2))
            rows.append((cf.name, i, v_s.exists, v_s.witnesses, v_r.exists, v_r.witnesses))
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert len(rows) == 268
    assert digest == "d729a524500857f1b8211f2d6dd12e2153bfff304040bad0fa5086e1754cfd51"


def test_downset_frame_of_chain2_is_chain3():
    dl, eps, masks = downset_frame(FrameWitness.of(gen_chain(2)))
    assert dl.lattice == gen_chain(3)
    assert masks == (0b00, 0b01, 0b11)
    assert eps.mapping == (0, 0, 1)


def test_downset_frame_of_boolean2_frozen(b2):
    dl, eps, masks = downset_frame(b2)
    assert dl.lattice.n == 6
    assert masks == (0b0000, 0b0001, 0b0011, 0b0101, 0b0111, 0b1111)
    assert eps.mapping == (0, 0, 1, 2, 3, 3)
    assert right_adjoint_image(eps) == 0b101110
    assert is_exact_map(eps)


def test_downset_frame_right_adjoint_is_principal(corpus):
    for cf in corpus:
        if cf.frame.lattice.n > 6:
            continue
        dl, eps, masks = downset_frame(cf.frame)
        image = right_adjoint_image(eps)
        assert bin(image).count("1") == cf.frame.lattice.n
        for a in range(cf.frame.lattice.n):
            down = eps.right_adjoint(a)
            assert eps(down) == a
            assert masks[down] == cf.frame.lattice.dn[a]
            assert (image >> down) & 1


def test_downset_join_map_check_matches_the_table_path():
    """The mask check against ``D(L)`` built as a table lattice, on every
    distinct frame of the standard and ``--points4 20`` corpora (at most 21
    down-sets), on bool4 (168) and on chain17, whose down-sets the subset
    scan could not list."""
    frames = {serialize_lattice(cf.frame.lattice): cf.frame for cf in standard_corpus(20, 0)}
    frames["bool4"] = FrameWitness.of(gen_boolean(4))
    frames["chain17"] = FrameWitness.of(gen_chain(17))
    sizes = []
    for fw in frames.values():
        masks = downset_masks(fw.lattice.up)
        eps = [fw.lattice.big_join(m) for m in masks]
        assert downset_join_map_violations(fw, masks, eps) == \
            table_downset_join_map(fw, masks, eps) == []
        sizes.append(len(masks))
    assert len(frames) == 30 and sorted(sizes)[-2:] == [21, 168]


# Each plant runs both paths under python -O and prints their verdicts:
# the violations, or "raised" for InternalInconsistency.  A planted right
# adjoint r, given as a down-set per element, replaces the mask path's
# _right_adjoint and the table path's FrameMap.right_adjoint; the join map
# and the exact pairs are planted for both.
DOWNSET_PLANTS = r'''
import json
import oracles
import subloc.correspondence as co
from subloc import FrameMap, FrameWitness, InternalInconsistency
from subloc.corpus import downset_masks, gen_boolean, gen_chain

def verdict(check, fw, masks, eps):
    try:
        return check(fw, masks, eps)
    except InternalInconsistency:
        return "raised"

out = {}
for name, lat in (("chain4", gen_chain(4)), ("bool2", gen_boolean(2))):
    masks = downset_masks(lat.up)
    index = {m: d for d, m in enumerate(masks)}
    eps = [lat.big_join(m) for m in masks]
    join, meet, c = lat.join_table, lat.meet_table, 1
    plants = {
        "none": (None, eps),
        # every r(a) is L: the constant nucleus, not the principal down-sets
        "wrong right adjoint": (lambda a: lat.full_mask, eps),
        # every r(a) is empty: r . eps is not inflationary
        "not inflationary": (lambda a: 0, eps),
        # r(a) one step up: on chain4 r . eps is inflationary and keeps meets,
        # but is not idempotent
        "not idempotent": (lambda a: lat.dn[min(a + 1, lat.top)], eps),
        # r(bottom) = {bottom}, every other r(a) = L: on bool2 a closure that
        # breaks the meet of the atoms' down-sets
        "not meet-preserving": (lambda a: lat.dn[a] if a == lat.bottom else lat.full_mask, eps),
        # joins with c: keeps joins and meets, moves the bottom
        "bottom moved": (None, [join[c][e] for e in eps]),
        # meets with c: keeps joins and meets, moves the top
        "top moved": (None, [meet[c][e] for e in eps]),
        # every join below the top sent to the bottom: keeps meets, and on
        # bool2 breaks the join of the atoms
        "not a join": (None, [e if e == lat.top else lat.bottom for e in eps]),
        # every join above the bottom sent to the top: keeps joins, and on
        # bool2 breaks the meet of the atoms
        "not a meet": (None, [e if e == lat.bottom else lat.top for e in eps]),
        # on chain4 a frame map onto {bottom, top}, as every non-empty down-set
        # holds the bottom
        "not onto": (None, [lat.top if m else lat.bottom for m in masks]),
        # the join map, with the pair {1, 2} of L tabled as not exact
        "inexact pair": (None, eps),
    }
    for plant, (r, e) in plants.items():
        fw = FrameWitness.of(lat)
        if plant == "inexact pair":
            rows = list(fw.exact_pairs[0])
            rows[1] &= ~(1 << 2)
            rows[2] &= ~(1 << 1)
            fw.__dict__["exact_pairs"] = (tuple(rows), fw.exact_pairs[1])
        real_mask, real_table = co._right_adjoint, FrameMap.right_adjoint
        if r is not None:
            co._right_adjoint = lambda lat, masks, eps: [r(a) for a in range(lat.n)]
            FrameMap.right_adjoint = lambda self, a: index[r(a)]
        try:
            out[f"{name}: {plant}"] = [verdict(co.downset_join_map_violations, fw, masks, e),
                                       verdict(oracles.table_downset_join_map, fw, masks, e)]
        finally:
            co._right_adjoint, FrameMap.right_adjoint = real_mask, real_table
print(json.dumps({"debug": __debug__, "verdicts": out}))
'''


def test_downset_join_map_plants_fail_both_paths_under_python_O():
    src = str(Path(subloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")))))
    out = json.loads(subprocess.run([sys.executable, "-O", "-c", DOWNSET_PLANTS], env=env,
                                    check=True, capture_output=True, text=True).stdout)
    assert out["debug"] is False
    got = out["verdicts"]
    assert len(got) == 22
    # the one plant on which the paths part: r . eps is not idempotent, yet the
    # image of the planted r, a subset of the chain D(chain4) holding its top,
    # is a sublocale there
    assert got.pop("chain4: not idempotent") == [
        "raised", [{"induced": [2, 3, 4], "principal": [1, 2, 3, 4]}]]
    for key, (mask, table) in got.items():
        assert mask == table, key
    frame_map, onto = ["downset join map not a frame map"], "downset join map not surjective"

    def induced(name, *ds):
        return {"induced": list(ds), "principal": {"chain4": [1, 2, 3, 4],
                                                   "bool2": [1, 2, 3, 5]}[name]}

    assert {key: mask for key, (mask, _) in got.items()} == {
        "chain4: none": [], "bool2: none": [],
        "chain4: wrong right adjoint": [induced("chain4", 4)],
        "bool2: wrong right adjoint": [induced("bool2", 5)],
        "chain4: not inflationary": "raised", "bool2: not inflationary": "raised",
        "bool2: not idempotent": "raised",
        "chain4: not meet-preserving": [induced("chain4", 1, 4)],
        "bool2: not meet-preserving": "raised",
        "chain4: bottom moved": frame_map, "bool2: bottom moved": frame_map,
        "chain4: top moved": frame_map, "bool2: top moved": frame_map,
        "chain4: not a join": [induced("chain4", 3, 4), onto], "bool2: not a join": frame_map,
        "chain4: not a meet": [induced("chain4", 1, 4), onto], "bool2: not a meet": frame_map,
        "chain4: not onto": [induced("chain4", 0, 4), onto],
        "bool2: not onto": [induced("bool2", 0, 5), onto],
        "chain4: inexact pair": ["downset join map not exact"],
        "bool2: inexact pair": ["downset join map not exact"],
    }


def test_correspondence_suite_builds_no_downset_lattice(monkeypatch):
    """No ``Lattice`` or ``FrameWitness`` is built for ``D(L)``, or for
    anything else, once the frame's witness is given; bool5's 7,581
    down-sets fit the default limits."""
    def reached(*args, **kwargs):
        pytest.fail("the correspondence suite built a lattice")

    frames = [FrameWitness.of(gen_boolean(4)), FrameWitness.of(gen_boolean(5))]
    monkeypatch.setattr(subloc_corpus, "inclusion_lattice", reached)
    monkeypatch.setattr(Lattice, "from_up", reached)
    monkeypatch.setattr(FrameWitness, "of", reached)
    for fw in frames:
        assert correspondence_suite("bool", fw)["ok"]
