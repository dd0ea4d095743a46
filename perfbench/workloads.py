"""The four workloads: their inputs, and one timed pass over them.

A pass sends every input frame through every suite of its workload and
returns the verdict of each (frame, suite) run.  Seeded frames come from
:func:`inputs.draw_frame`; the windows below keep their cost close to
constant across seeds, so that a run's figures reflect the program and
not the draw.  README.md gives the reason for each workload.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

from inputs import chain_below, downset_text, downsets, draw_frame, product_below
from verdicts import REFERENCE, Frame, verdict

# The corpus workload is `subloc report --points4 20 --seed 0 --jobs 2`.
# Its 4-point sample is pinned: see README.md for why it cannot follow the
# benchmark seed.
CORPUS_POINTS4 = 20
CORPUS_SEED = 0
CORPUS_JOBS = 2

# The build workload runs the laws suite only on frames that commit
# ``4f88ff5`` scans subset by subset (its ``scan_frame_elements``); the
# filter scan of that suite refuses larger frames.
LAWS_MAX_ELEMENTS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    fixed: tuple[tuple[str, tuple[int, ...]], ...] = ()
    # one seeded frame per window: (min points, max points, min elements, max elements)
    windows: tuple[tuple[int, int, int, int], ...] = ()

    def frames(self, seed: int) -> list[Frame]:
        if self.name == "corpus":
            return [Frame(name, p, n) for name, p, n in REFERENCE["corpus_frames"]]
        out = [Frame(name, len(below), len(downsets(len(below), below)),
                     downset_text(len(below), below))
               for name, below in self.fixed]
        rng = random.Random(f"{self.name}:{seed}")
        for j, (p_lo, p_hi, n_lo, n_hi) in enumerate(self.windows):
            p, n, text = draw_frame(rng, (p_lo, p_hi), (n_lo, n_hi))
            out.append(Frame(f"{self.name}-s{seed}-{j}", p, n, text))
        return out

    def suites_for(self, frame: Frame) -> tuple[str, ...]:
        if self.name == "build":
            return ("build", "laws") if frame.elements <= LAWS_MAX_ELEMENTS else ("build",)
        return self.suites


WORKLOADS = {w.name: w for w in (
    Workload("corpus", ("laws", "adjunction", "correspondence")),
    Workload("lift", ("correspondence",),
             fixed=(("chain7", tuple(chain_below(6))),),
             windows=((6, 6, 8, 8),)),
    Workload("families", ("adjunction",),
             fixed=(("c2xc2xc3", tuple(product_below(1, 1, 2))),
                    ("grid3x3", tuple(product_below(2, 2)))),
             windows=((5, 5, 10, 10),)),
    Workload("build", ("build", "laws"),
             fixed=(("chain8", tuple(chain_below(7))),),
             windows=((7, 7, 13, 14),)),
)}


def _report_failure(frame: str, suite: str, exc: Exception) -> None:
    print(f"run failed: {frame}/{suite}: {type(exc).__name__}: {exc}", file=sys.stderr)


def run_frames(workload: Workload, frames: list[Frame]) -> dict:
    """One serial pass: parse each frame's text, then run its suites."""
    from subloc.latfile import parse_lattice
    from subloc.lattice import FrameWitness
    from subloc.report import run_suite
    from subloc.sublocales import enumerate_sublocales

    got = {}
    for fr in frames:
        for suite in workload.suites_for(fr):
            try:
                fw = FrameWitness.of(parse_lattice(fr.text))
                if suite == "build":
                    sl = enumerate_sublocales(fw)
                    got[fr.name, suite] = (sl.size, sl.fitted_subcoframe().size,
                                           (("sizes", True),))
                else:
                    got[fr.name, suite] = verdict(run_suite(suite, fr.name, fw))
            except Exception as exc:  # a failed run is counted, the pass goes on
                _report_failure(fr.name, suite, exc)
    return got


def run_corpus(jobs: int) -> dict | None:
    """One `subloc report` pass; None when the report aborted."""
    from subloc.runner import corpus_report

    try:
        return corpus_report(WORKLOADS["corpus"].suites, points4=CORPUS_POINTS4,
                             seed=CORPUS_SEED, jobs=jobs)
    except Exception as exc:  # an aborted report fails every run in it
        _report_failure("corpus", "all", exc)
        return None


def corpus_verdicts(report: dict | None) -> dict:
    """Verdicts by (frame, suite); none at all when the report aborted."""
    if report is None:
        return {}
    return {(r["frame"], r["suite"]): verdict(r) for r in report["results"]}
