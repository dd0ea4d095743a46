"""Size budgets for the exhaustive enumerations.

Every potentially exponential routine takes a :class:`Limits` and raises
:class:`subloc.errors.SizeLimit` instead of silently grinding, so callers
always know when a result is incomplete.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    # Cap on the number of sublocales, 2^p for a frame with p primes, and so
    # on command-line input: a larger S(L) is refused before it is built.
    # Each host of S(L) or S_o(L) has 2^p subcolocales, so it bounds them too.
    max_sublocales: int = 2048
    # Cap on the number of down-sets a down-set lattice may have; they are
    # built point by point and refused once they pass it.
    max_downsets: int = 4096
    # Family quantifiers (lattice.families) range over the empty and binary
    # families, which folding makes equivalent to all families on a frame,
    # and over all 2^n subsets only of frames with at most this many
    # elements.  Each frame witness tables the meet and exactness flags of
    # those families once.  The default 0 makes the binary rule the only
    # production regime; the field survives, for the tests that hold the two
    # rules to each other and for the benchmark's family counters, until the
    # benchmark counts n^2 + 1 families by itself.
    exhaustive_family_elements: int = 0

    def with_(self, **kw) -> "Limits":
        return replace(self, **kw)


DEFAULT_LIMITS = Limits()
