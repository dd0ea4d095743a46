"""Generators for the small test corpus of lattices and frames.

The standard corpus (:func:`standard_lattices`) is every chain up to six
elements, every Boolean algebra up to eight elements, and the open-set
frames of all 29 labeled topologies on three points, plus topologies on
four points sampled deterministically by seed.  The diamond M3 is
available for lattice-level counterexamples but is not a frame, and the
standard corpus never yields it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .bits import bit, bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import SizeLimit
from .lattice import FrameWitness, Lattice


def gen_chain(n: int) -> Lattice:
    """The n-element chain ``0 < 1 < ... < n-1``."""
    if n <= 0:
        raise ValueError("chain needs at least one element")
    full = (1 << n) - 1
    return Lattice.from_up(tuple((full >> i) << i for i in range(n)))


def gen_boolean(k: int) -> Lattice:
    """The Boolean algebra on k generators; element ``i`` is the subset mask ``i``."""
    if k < 0:
        raise ValueError("negative generator count")
    n = 1 << k
    return Lattice.from_up(tuple(mask_of(j for j in range(n) if i & ~j == 0)
                                 for i in range(n)))


def gen_diamond() -> Lattice:
    """M3: bottom, three incomparable middles, top.  Modular, not distributive."""
    return Lattice.from_relation(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def gen_product(a: Lattice, b: Lattice) -> Lattice:
    """Componentwise-ordered product; element ``i*b.n + j`` is the pair ``(i, j)``."""
    n = a.n * b.n
    up = []
    for i in range(a.n):
        for j in range(b.n):
            up.append(mask_of(k * b.n + l
                              for k in bits(a.up[i]) for l in bits(b.up[j])))
    return Lattice.from_up(up)


def downset_masks(up_rows: Sequence[int], limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """All down-closed subsets of a poset, sorted by (size, mask value).

    Points are added in a linear extension, by the size of their down-set;
    a point joins every down-set built so far that holds its strict
    down-set.  Raises :class:`SizeLimit` once the count passes
    ``limits.max_downsets``.
    """
    n = len(up_rows)
    dn = [mask_of(i for i in range(n) if (up_rows[i] >> j) & 1) for j in range(n)]
    out = [0]
    for j in sorted(range(n), key=lambda j: bin(dn[j]).count("1")):
        below = dn[j] & ~bit(j)
        out += [m | bit(j) for m in out if below & ~m == 0]
        if len(out) > limits.max_downsets:
            raise SizeLimit(f"more than max_downsets={limits.max_downsets} down-sets; "
                            f"override with --limit max_downsets=N")
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return tuple(out)


def gen_downsets_of_poset(up_rows: Sequence[int], limits: Limits = DEFAULT_LIMITS) -> Lattice:
    """The lattice of down-sets of a poset, ordered by inclusion.

    Always distributive, hence always a frame; this is the workhorse for
    randomized frame generation.
    """
    return inclusion_lattice(downset_masks(up_rows, limits))


def inclusion_lattice(sets: Sequence[int]) -> Lattice:
    """The subset masks ``sets`` ordered by inclusion, indexed in their order."""
    return Lattice.from_up(tuple(mask_of(j for j, mj in enumerate(sets) if mi & ~mj == 0)
                                 for mi in sets))


def gen_opens_of_topology(num_points: int, opens: Sequence[int]) -> Lattice:
    """The frame of opens of a finite topology, ordered by inclusion.

    ``opens`` are subset masks over ``num_points`` points; the family must
    contain the empty set and the whole space and be closed under union
    and intersection.
    """
    full = (1 << num_points) - 1
    fam = sorted(set(opens), key=lambda m: (bin(m).count("1"), m))
    if any(m & ~full for m in fam):
        raise ValueError("open set mentions points outside the space")
    if 0 not in fam or full not in fam:
        raise ValueError("topology must contain the empty set and the whole space")
    have = set(fam)
    for a, b in itertools.combinations(fam, 2):
        if a | b not in have:
            raise ValueError(f"opens not closed under union: {a} | {b}")
        if a & b not in have:
            raise ValueError(f"opens not closed under intersection: {a} & {b}")
    return inclusion_lattice(fam)


def all_topologies(num_points: int) -> tuple[tuple[int, ...], ...]:
    """Every labeled topology on the given points, canonically ordered.

    A finite topology is the family of up-sets of its specialization
    preorder, and every preorder arises so (Alexandroff, "Diskrete
    Räume", 1937), so the topologies are generated from the preorders.
    A preorder on points ``0..k`` restricts to exactly one on ``0..k-1``,
    and extends it by the down-closed set ``D`` of points below ``k`` and
    the up-closed set ``U`` above it, where every ``d`` in ``D`` is
    already below every ``u`` in ``U`` (transitivity through ``k``).
    Each pair is a new preorder, so each topology is built once.  The
    closed sets are read off the preorder's closure tables
    (:func:`_unions`): a set is up-closed iff its up-closure is itself,
    down-closed likewise, and ``U`` lies above all of ``D`` iff it misses
    the union of the complements of their up-sets.  The opens are the
    up-closed sets, listed in (size, mask) order.  The counts are 1, 1, 4,
    29, 355 on 0..4 points (OEIS A000798).
    """
    if num_points < 0 or num_points > 4:
        raise ValueError("topology enumeration supports 0..4 points")
    preorders = [()]  # each point's up-set, as a mask over the points
    for k in range(num_points):
        grown = []
        for up in preorders:
            dn = [mask_of(i for i in range(k) if (up[i] >> j) & 1) for j in range(k)]
            # the points outside some up-set of d are those not above all of d
            outside = _unions([~r for r in up])
            ups = [u for u, c in enumerate(_unions(up)) if c == u]
            for d, c in enumerate(_unions(dn)):
                if c == d:
                    grown += [tuple(r | bit(k) if (d >> i) & 1 else r for i, r in enumerate(up))
                              + (u | bit(k),) for u in ups if not u & outside[d]]
        preorders = grown
    order = sorted(range(1 << num_points), key=lambda m: (bin(m).count("1"), m))
    found = []
    for up in preorders:
        up_of = _unions(up)
        found.append(tuple(m for m in order if up_of[m] == m))
    found.sort(key=lambda f: (len(f), f))
    return tuple(found)


def _unions(rows: Sequence[int]) -> list[int]:
    """For every subset ``s`` of the indices of ``rows``, the union of the
    ``rows[i]`` with ``i`` in ``s``, by the subset recurrence: ``s`` adds
    its lowest index to ``s`` without it."""
    out = [0]
    for s in range(1, 1 << len(rows)):
        low = s & -s
        out.append(out[s ^ low] | rows[low.bit_length() - 1])
    return out


def sample_topologies(num_points: int, count: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """A deterministic sample of labeled topologies."""
    alltop = all_topologies(num_points)
    if count >= len(alltop):
        return alltop
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(alltop, count), key=lambda f: (len(f), f)))


@dataclass(frozen=True)
class CorpusFrame:
    name: str
    frame: FrameWitness


def standard_lattices(points4: int = 0, seed: int = 0) -> Iterator[tuple[str, Lattice]]:
    """The standard corpus as ``(name, lattice)`` pairs: ``chain1`` to
    ``chain6``, ``bool0`` to ``bool3``, ``top3-00`` to ``top3-28``, then
    ``points4`` topologies on four points sampled with ``seed``, named
    ``top4s<seed>-<index>``.

    Every lattice it yields is a frame: chains and Boolean algebras are
    distributive, and so is every topology's lattice of opens, its joins
    and meets being unions and intersections.
    """
    for n in range(1, 7):
        yield f"chain{n}", gen_chain(n)
    for k in range(4):
        yield f"bool{k}", gen_boolean(k)
    for idx, opens in enumerate(all_topologies(3)):
        yield f"top3-{idx:02d}", gen_opens_of_topology(3, opens)
    if points4:
        for idx, opens in enumerate(sample_topologies(4, points4, seed)):
            yield f"top4s{seed}-{idx:02d}", gen_opens_of_topology(4, opens)


def standard_corpus(points4: int = 0, seed: int = 0) -> tuple[CorpusFrame, ...]:
    """The frames of :func:`standard_lattices`; a non-frame raises
    :class:`~subloc.errors.NotAFrame`."""
    return tuple(CorpusFrame(name, FrameWitness.of(lat))
                 for name, lat in standard_lattices(points4, seed))
