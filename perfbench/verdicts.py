"""Verdicts, the reference they are checked against, and failure counts.

A pass produces one result per (frame, suite) run.  Each result is reduced
to its verdict: the sublocale counts and the ordered (check, ok) pairs.
The expected verdict of every run follows from the frame alone.  A finite
frame with ``n`` elements and ``p`` primes has ``2**p`` sublocales and
``n`` fitted ones, and every check holds.  The check names of each suite
were read off the suites at commit ``4f88ff5`` and live in
``reference.json``, together with the size of every frame of the
``corpus`` workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# The adjunction suite skips brute-force enumeration on hosts above this
# many sublocales (``max_subcolocale_host`` at ``4f88ff5``), which
# drops four checks from its report.
ENUMERATED_HOST = 16


@dataclass(frozen=True)
class Frame:
    """One input frame: its name, prime and element counts, and lattice text."""

    name: str
    primes: int
    elements: int
    text: str = ""


def expected(frame: Frame, suite: str) -> tuple:
    """The verdict a correct program gives for one (frame, suite) run."""
    k = 1 << frame.primes
    if suite == "build":
        return (k, frame.elements, (("sizes", True),))
    if suite == "adjunction" and k > ENUMERATED_HOST:
        names = REFERENCE["checks"]["adjunction-unenumerated"]
    else:
        names = REFERENCE["checks"][suite]
    fitted = None if suite == "correspondence" else frame.elements
    return (k, fitted, tuple((name, True) for name in names))


def verdict(result: dict) -> tuple:
    """Reduce one suite result to what the reference fixes."""
    return (result["sublocales"], result.get("fitted_sublocales"),
            tuple((c["check"], c["ok"]) for c in result["checks"]))


@dataclass
class Tally:
    """Failure accounting across passes.

    ``attempted`` counts (frame, suite) runs.  A run fails when it raised,
    when it is missing from the output, or when its verdict differs from
    the reference.  Only the last of these makes the output incorrect.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, expect: dict, got: dict) -> None:
        """Score one pass; ``got`` maps (frame, suite) to a verdict or None."""
        self.attempted += len(expect)
        for key, want in expect.items():
            have = got.get(key)
            if have != want:
                self.failed += 1
                self.wrong += have is not None
        self.wrong += len(got.keys() - expect.keys())
