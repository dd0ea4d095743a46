"""Run the report suites across a whole corpus, in parallel.

Frames travel to the workers as canonical lattice text rather than live
objects, so each worker rebuilds its own tables.  A frame's results
depend only on its text, the suites and the limits (its name is written
into each result's ``"frame"`` field afterwards), so each distinct text
runs once and frames with the same text share its results.

The distinct texts are sorted by element count (ties by text) and dealt
round-robin into one chunk per worker, so the chunks cost about the same;
a serial run is one chunk.  Nothing is kept from one frame to the next.
Results come back as plain dicts and are reassembled in frame-name order,
so the report is the same for any worker count.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

from .config import DEFAULT_LIMITS, Limits
from .corpus import standard_corpus
from .lattice import FrameWitness
from .latfile import parse_lattice, serialize_lattice
from .report import SCHEMA_VERSION, run_suite

ALL_SUITES = ("laws", "adjunction", "correspondence")


def _run_chunk(payload) -> list[list[dict]]:
    """Each text's suite results, in the chunk's order."""
    texts, suites, limits = payload
    runs = []
    for text in texts:
        fw = FrameWitness.of(parse_lattice(text))
        runs.append([run_suite(suite, "", fw, limits) for suite in suites])
    return runs


def corpus_report(suites=ALL_SUITES, limits: Limits = DEFAULT_LIMITS,
                  points4: int = 0, seed: int = 0, jobs: int | None = None) -> dict:
    """Suite results for every corpus frame, ordered by frame name.

    ``points4`` adds that many seed-sampled 4-point topologies.  Each
    distinct serialized lattice runs once, in a chunk of frames dealt as
    the module docstring describes; every frame gets its own copy of its
    text's results, named after it: the first frame of a text the run's
    own dicts, each later one a copy, so that no two frames share a
    mutable object.  ``jobs`` defaults to the machine's CPU count; 1 runs
    serially in-process.
    """
    frames = sorted(standard_corpus(points4, seed), key=lambda cf: cf.name)
    texts = [serialize_lattice(cf.frame.lattice) for cf in frames]
    size = {text: cf.frame.lattice.n for cf, text in zip(frames, texts)}
    asc = sorted(size, key=lambda text: (size[text], text))

    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(asc)))
    chunks = [asc[j::jobs] for j in range(jobs)]
    payloads = [(chunk, tuple(suites), limits) for chunk in chunks]
    if jobs == 1:
        chunk_runs = [_run_chunk(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk_runs = list(pool.map(_run_chunk, payloads))

    by_text = {text: run for chunk, runs in zip(chunks, chunk_runs)
               for text, run in zip(chunk, runs)}
    seen: set[str] = set()
    results = []
    for cf, text in zip(frames, texts):
        run = by_text[text]
        if text in seen:
            run = pickle.loads(pickle.dumps(run))
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
