"""Run the report suites across a whole corpus, in parallel.

Frames travel to the workers as canonical lattice text rather than live
objects, so each worker rebuilds its own tables; results come back as
plain dicts and are reassembled in frame-name order regardless of which
worker finished first.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .config import DEFAULT_LIMITS, Limits
from .corpus import standard_corpus
from .lattice import FrameWitness
from .latfile import parse_lattice, serialize_lattice
from .report import SCHEMA_VERSION, run_suite

ALL_SUITES = ("laws", "adjunction", "correspondence")


def _run_one(payload) -> list[dict]:
    name, text, suites, limits = payload
    fw = FrameWitness.of(parse_lattice(text))
    return [run_suite(suite, name, fw, limits) for suite in suites]


def corpus_report(suites=ALL_SUITES, limits: Limits = DEFAULT_LIMITS,
                  points4: int = 0, seed: int = 0, jobs: int | None = None) -> dict:
    """Suite results for every corpus frame, ordered by frame name.

    ``points4`` adds that many seed-sampled 4-point topologies.  ``jobs``
    defaults to the machine's CPU count; 1 runs serially in-process.
    """
    frames = sorted(standard_corpus(points4, seed), key=lambda cf: cf.name)
    payloads = [(cf.name, serialize_lattice(cf.frame.lattice), tuple(suites), limits)
                for cf in frames]

    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(payloads) <= 1:
        per_frame = [_run_one(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_frame = list(pool.map(_run_one, payloads))

    results = [r for chunk in per_frame for r in chunk]
    return {
        "schema_version": SCHEMA_VERSION,
        "suites": list(suites),
        "frames": [cf.name for cf in frames],
        "seed": seed,
        "ok": all(r["ok"] for r in results),
        "results": results,
    }
