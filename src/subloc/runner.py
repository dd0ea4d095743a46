"""Run the report suites across a whole corpus, in parallel.

The calling process generates the corpus as lattices and keeps only each
frame's name, canonical lattice text and element count; it builds no
:class:`~subloc.lattice.FrameWitness`.  Frames travel to the other
processes as that text, so each rebuilds its own tables.  A frame's
results depend only on its text, the suites and the limits (its name is
written into each result's ``"frame"`` field afterwards), so each
distinct text runs once, witness and all, and frames with the same text
share its results.

The distinct texts are sorted by element count (ties by text) and dealt
round-robin into one chunk per process, so the chunks cost about the
same.  Chunks ``1 .. jobs-1`` each go to a child process, which sends
``(True, runs)`` back over a one-way pipe, or ``(False, exc)`` if the
chunk raised.  The calling process runs chunk 0 meanwhile, then reads the
pipes in chunk order; a serial run is the same code with no child.  The
exception of the first failing chunk, in chunk order, is raised again,
and a child that exits without sending raises an error naming its chunk
and exit code.  No child outlives the call.  Nothing is kept from one
frame to the next.  Results come back as plain dicts and are reassembled
in frame-name order, so the report is the same for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

from .config import DEFAULT_LIMITS, Limits
from .corpus import standard_lattices
from .lattice import FrameWitness
from .latfile import parse_lattice, serialize_lattice
from .report import ALL_SUITES, SCHEMA_VERSION, run_suite


def _run_chunk(texts, suites, limits) -> list[list[dict]]:
    """Each text's suite results, in the chunk's order."""
    runs = []
    for text in texts:
        fw = FrameWitness.of(parse_lattice(text))
        runs.append([run_suite(suite, "", fw, limits) for suite in suites])
    return runs


def _send_chunk(conn, texts, suites, limits) -> None:
    """A child's whole work: run its chunk and send the outcome."""
    try:
        outcome = (True, _run_chunk(texts, suites, limits))
    except Exception as exc:
        outcome = (False, exc)
    conn.send(outcome)
    conn.close()


def _run_chunks(chunks, suites, limits) -> list[list[list[dict]]]:
    """Each chunk's runs: chunk 0 in this process, the others in children.

    The children are forked, not spawned: a spawned child starts a fresh
    interpreter and imports the package, which takes longer than a whole
    pass over the standard corpus.  The runner starts no thread that a
    fork could copy mid-operation.
    """
    fork = multiprocessing.get_context("fork")
    children = []
    try:
        for chunk in chunks[1:]:
            recv, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_send_chunk, args=(send, chunk, suites, limits))
            child.start()
            # the child holds the only write end, so its exit ends recv()
            send.close()
            children.append((child, recv))
        chunk_runs = [_run_chunk(chunks[0], suites, limits)]
        for j, (child, recv) in enumerate(children, 1):
            try:
                ok, got = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"the worker of chunk {j} exited with code "
                                   f"{child.exitcode} without sending its results") from None
            if not ok:
                raise got
            chunk_runs.append(got)
        return chunk_runs
    finally:
        for child, recv in children:
            recv.close()
            if child.is_alive():
                child.terminate()
            child.join()


def corpus_report(suites=ALL_SUITES, limits: Limits = DEFAULT_LIMITS,
                  points4: int = 0, seed: int = 0, jobs: int | None = None) -> dict:
    """Suite results for every corpus frame, ordered by frame name.

    ``points4`` adds that many seed-sampled 4-point topologies.  Each
    distinct serialized lattice runs once, in a chunk of frames dealt as
    the module docstring describes; every frame gets its own copy of its
    text's results, named after it: the first frame of a text the run's
    own dicts, each later one a copy, so that no two frames share a
    mutable object.  ``jobs`` counts the processes, this one included,
    and defaults to the machine's CPU count; 1 runs in-process only.
    """
    frames = sorted(((name, serialize_lattice(lat), lat.n)
                     for name, lat in standard_lattices(points4, seed)),
                    key=lambda frame: frame[0])
    size = {text: n for _, text, n in frames}
    asc = sorted(size, key=lambda text: (size[text], text))

    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(asc)))
    chunks = [asc[j::jobs] for j in range(jobs)]
    chunk_runs = _run_chunks(chunks, tuple(suites), limits)

    by_text = {text: run for chunk, runs in zip(chunks, chunk_runs)
               for text, run in zip(chunk, runs)}
    seen: set[str] = set()
    results = []
    for name, text, _ in frames:
        run = by_text[text]
        if text in seen:
            run = pickle.loads(pickle.dumps(run))
        seen.add(text)
        for r in run:
            r["frame"] = name
            results.append(r)
    return {
        "schema_version": SCHEMA_VERSION,
        "suites": list(suites),
        "frames": [name for name, _, _ in frames],
        "seed": seed,
        "ok": all(r["ok"] for r in results),
        "results": results,
    }
