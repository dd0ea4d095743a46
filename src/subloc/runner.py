"""Run the report suites across a whole corpus, in parallel.

Frames travel to the workers as canonical lattice text rather than live
objects, so each worker rebuilds its own tables.  A frame's results
depend only on its text, the suites and the limits (its name is written
into each result's ``"frame"`` field afterwards), so each distinct text
runs once and frames with the same text share its results.  Results come
back as plain dicts and are reassembled in frame-name order regardless
of which worker finished first.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ProcessPoolExecutor

from .config import DEFAULT_LIMITS, Limits
from .corpus import standard_corpus
from .lattice import FrameWitness
from .latfile import parse_lattice, serialize_lattice
from .report import SCHEMA_VERSION, run_suite

ALL_SUITES = ("laws", "adjunction", "correspondence")


def _run_one(payload) -> list[dict]:
    text, suites, limits = payload
    fw = FrameWitness.of(parse_lattice(text))
    return [run_suite(suite, "", fw, limits) for suite in suites]


def corpus_report(suites=ALL_SUITES, limits: Limits = DEFAULT_LIMITS,
                  points4: int = 0, seed: int = 0, jobs: int | None = None) -> dict:
    """Suite results for every corpus frame, ordered by frame name.

    ``points4`` adds that many seed-sampled 4-point topologies.  Each
    distinct serialized lattice runs once, in order of first occurrence;
    every frame gets its own copy of its text's results, named after it:
    the first frame of a text the run's own dicts, each later one a deep
    copy, so that no two frames share a mutable object.
    ``jobs`` defaults to the machine's CPU count; 1 runs serially
    in-process.
    """
    frames = sorted(standard_corpus(points4, seed), key=lambda cf: cf.name)
    texts = [serialize_lattice(cf.frame.lattice) for cf in frames]
    distinct = list(dict.fromkeys(texts))
    payloads = [(text, tuple(suites), limits) for text in distinct]

    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(payloads) <= 1:
        runs = [_run_one(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_run_one, payloads))

    by_text = dict(zip(distinct, runs))
    seen: set[str] = set()
    results = []
    for cf, text in zip(frames, texts):
        run = by_text[text]
        if text in seen:
            run = copy.deepcopy(run)
        seen.add(text)
        for r in run:
            r["frame"] = cf.name
            results.append(r)
    return {
        "schema_version": SCHEMA_VERSION,
        "suites": list(suites),
        "frames": [cf.name for cf in frames],
        "seed": seed,
        "ok": all(r["ok"] for r in results),
        "results": results,
    }
