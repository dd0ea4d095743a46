"""Generators for the small test corpus of lattices and frames.

The standard corpus is every chain up to six elements, every Boolean
algebra up to eight elements, and the open-set frames of all 29 labeled
topologies on three points.  The diamond M3 is available for
lattice-level counterexamples but is not a frame, so frame-level suites
never see it.  Topologies on four points can be sampled deterministically
by seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .bits import bit, bits, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import NotAFrame, SizeLimit
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
    Each pair is a new preorder, so each topology is built once; its
    opens are the unions of the principal up-sets.  The counts are 1, 1,
    4, 29, 355 on 0..4 points (OEIS A000798).
    """
    if num_points < 0 or num_points > 4:
        raise ValueError("topology enumeration supports 0..4 points")
    preorders = [()]  # each point's up-set, as a mask over the points
    for k in range(num_points):
        grown = []
        for up in preorders:
            dn = [mask_of(i for i in range(k) if (up[i] >> j) & 1) for j in range(k)]
            downs = [d for d in range(1 << k) if all(dn[i] & ~d == 0 for i in bits(d))]
            ups = [u for u in range(1 << k) if all(up[i] & ~u == 0 for i in bits(u))]
            for d in downs:
                for u in ups:
                    if all(u & ~up[i] == 0 for i in bits(d)):
                        grown.append(tuple(r | bit(k) if (d >> i) & 1 else r
                                           for i, r in enumerate(up)) + (u | bit(k),))
        preorders = grown
    found = []
    for up in preorders:
        opens = {0}
        for r in up:
            opens |= {m | r for m in opens}
        found.append(tuple(sorted(opens, key=lambda m: (bin(m).count("1"), m))))
    found.sort(key=lambda f: (len(f), f))
    return tuple(found)


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


GeneratorCall = tuple


@dataclass(frozen=True)
class CorpusSpec:
    """Declarative corpus: a list of generator calls plus size budgets.

    Generator calls are tuples like ``("chain", 4)``, ``("boolean", 2)``,
    ``("topologies", 3)``, ``("diamond",)``, ``("product", ("chain", 2),
    ("chain", 3))``, ``("downsets", up_rows)``, or ``("topology", k,
    opens)``.
    """

    generators: tuple[GeneratorCall, ...]
    size_limits: Limits = field(default=DEFAULT_LIMITS)

    def lattices(self) -> Iterator[tuple[str, Lattice]]:
        for call in self.generators:
            yield from self._expand(call)

    def frames(self) -> Iterator[CorpusFrame]:
        """Generator output wrapped as frames; non-frames (M3) are skipped."""
        for name, lat in self.lattices():
            try:
                yield CorpusFrame(name, FrameWitness.of(lat))
            except NotAFrame:
                continue

    def _expand(self, call: GeneratorCall) -> Iterator[tuple[str, Lattice]]:
        kind = call[0]
        if kind == "chain":
            yield f"chain{call[1]}", gen_chain(call[1])
        elif kind == "boolean":
            yield f"bool{call[1]}", gen_boolean(call[1])
        elif kind == "diamond":
            yield "diamondM3", gen_diamond()
        elif kind == "product":
            (na, la), (nb, lb) = (next(self._expand(call[1])),
                                  next(self._expand(call[2])))
            yield f"prod({na},{nb})", gen_product(la, lb)
        elif kind == "downsets":
            yield f"downsets{len(call[1])}", gen_downsets_of_poset(call[1], self.size_limits)
        elif kind == "topology":
            yield f"top{call[1]}", gen_opens_of_topology(call[1], call[2])
        elif kind == "topologies":
            k = call[1]
            for idx, opens in enumerate(all_topologies(k)):
                yield f"top{k}-{idx:02d}", gen_opens_of_topology(k, opens)
        elif kind == "topology_sample":
            k, count, seed = call[1], call[2], call[3]
            for idx, opens in enumerate(sample_topologies(k, count, seed)):
                yield f"top{k}s{seed}-{idx:02d}", gen_opens_of_topology(k, opens)
        else:
            raise ValueError(f"unknown generator {kind!r}")


STANDARD_SPEC = CorpusSpec(
    generators=tuple(
        [("chain", n) for n in range(1, 7)]
        + [("boolean", k) for k in range(0, 4)]
        + [("topologies", 3)]
    )
)


def standard_corpus(points4: int = 0, seed: int = 0) -> tuple[CorpusFrame, ...]:
    """The standard frames, plus ``points4`` topologies on four points
    sampled with ``seed`` and named ``top4s<seed>-<index>``."""
    gens = STANDARD_SPEC.generators
    if points4:
        gens += (("topology_sample", 4, points4, seed),)
    return tuple(CorpusSpec(gens).frames())
