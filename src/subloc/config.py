"""Size budgets for the exhaustive enumerations.

Every potentially exponential routine takes a :class:`Limits` and raises
:class:`subloc.errors.SizeLimit` instead of silently grinding, so callers
always know when a result is incomplete.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar


@dataclass(frozen=True)
class Limits:
    # Cap on the number of sublocales, 2^p for a frame with p primes, and so
    # on command-line input: a larger S(L) is refused before it is built.
    # Each host of S(L) or S_o(L) has 2^p subcolocales, so it bounds them too.
    max_sublocales: int = 16384
    # Cap on the number of down-sets a down-set lattice may have, built point
    # by point and refused once past it: bool5's 7,581 fit, bool6's do not.
    max_downsets: int = 8192
    # Not a limit (families are always pairs, see FrameWitness.exact_pairs):
    # only perfbench/spans.py's family counters read it; goes with ROADMAP item 1.
    exhaustive_family_elements: ClassVar[int] = 0

    def with_(self, **kw) -> "Limits":
        return replace(self, **kw)


DEFAULT_LIMITS = Limits()
