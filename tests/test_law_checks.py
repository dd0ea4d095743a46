"""The quadratic law checks held to their cubic definitions.

Each check is compared with its oracle in ``tests/oracles.py`` on the
frames of ``standard_corpus(20, 0)`` and on chain6, grid 3x3 and chain7
(hosts of up to 64 sublocales), where every law holds, and on planted
broken tables, where it fails; each test asserts that both verdicts occur.
The difference adjunction is checked on the hosts and on the frames, as
the laws suite's ``difference-adjunction`` and ``frame-coframe-duality``.
"""

import copy
import dataclasses
import random

import pytest

from subloc import CoframeWitness, FrameWitness, enumerate_sublocales
from subloc.corpus import gen_chain, gen_diamond, gen_product, standard_corpus
from subloc.lattice import Lattice, adjunction_violations, distributivity_violations
from subloc.report import host_law_violations

from oracles import (scan_difference_adjunction, scan_distributivity,
                     scan_heyting_adjunction, scan_host_laws)


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


def test_difference_adjunction_matches_the_triple_scan(frames, hosts):
    rng = random.Random(0)
    seen = set()
    # the hosts' tables come from sets of primes, the frames' from the dual's arrow
    pairs = [(host.as_lattice, host.coframe.difference_table) for host in hosts]
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


def _entries(bad, kinds):
    return sorted(v for v in bad if v[1] in kinds)


def test_pairwise_meet_joins_match_the_closure_of_union(hosts):
    rng = random.Random(0)
    seen = set()
    for host in hosts:
        got, want = host_law_violations(host), scan_host_laws(host)
        assert got == [] and want == []
        seen.add(True)
        if host.size < 3:
            continue
        # bump one join entry of the host's table, on both sides of the diagonal
        broken = copy.copy(host)
        lat = host.as_lattice
        i, j = sorted(rng.sample(range(host.size), 2))
        rows = [list(row) for row in lat.join_table]
        rows[i][j] = rows[j][i] = (rows[i][j] + 1) % host.size
        broken.as_lattice = dataclasses.replace(lat, join_table=tuple(map(tuple, rows)))
        got, want = host_law_violations(broken), scan_host_laws(broken)
        assert _entries(got, {"meet", "join"}) == _entries(want, {"meet", "join"})
        label = "SoL" if host.fitted else "SL"
        assert _entries(got, {"join"}) == [(label, "join", i, j)]
        seen.add(False)
    assert seen == {True, False}
