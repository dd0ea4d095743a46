"""Benchmark of the subloc workbench: frame -> S(L) -> S_o(L) -> subcolocales -> lifts -> report.

    python3 perfbench/run.py --workload lift --seed 3 --seconds 26 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  With ``--trace 0`` it times whole passes over the
workload's inputs for about ``--seconds`` seconds and reports the
end-to-end metrics; with ``--trace 1`` it times one untraced pass, then
one pass with every layer wrapped in spans, and reports the per-layer
metrics.  Pass times are rescaled by a reference workload timed beside
each pass (see :func:`machine_ref`).  Every pass's verdicts are checked
against the reference.  The last line of standard output is the result as
one JSON object; the line before it records the environment.  README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer
from verdicts import Tally, expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up is repeated and its median reported, so one slow import does not
# read as a regression
SETUP_REPEATS = 5
# pass times are rescaled to a host on which machine_ref() takes this long,
# close to its median on the 2-CPU host the baseline was measured on
REF_NOMINAL_S = 0.12

_TABLE = tuple(tuple((i * 7 + j * 13 + (i ^ j)) % 40 for j in range(40)) for i in range(40))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def machine_ref() -> float:
    """Time a fixed pure-Python workload with the program's mix of work.

    Integer arithmetic, tuple-table lookups with bit iteration, and
    brute-force lattice meets through a generator, each about a third of
    the time.  Its slow and fast phases follow the host's the way the
    program's do, better than any one of the three alone.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(450_000):
        acc = (acc * 31 + i) & 0xFFFF
    for _ in range(6):
        for x in range(40):
            tx = _TABLE[x]
            for y in range(40):
                ty, m = _TABLE[y], 0
                for z in range(40):
                    if tx[ty[z]] == _TABLE[tx[z]][ty[x]]:
                        m |= 1 << z
                acc += sum(_bits(m))
    below = (0, 0, 1, 2, 3, 12)
    ds = [m for m in range(64) if all(below[i] & ~m == 0 for i in _bits(m))]
    up = [sum(1 << j for j, b in enumerate(ds) if a & ~b == 0) for a in ds]
    dn = [sum(1 << i for i in range(len(ds)) if up[i] >> j & 1) for j in range(len(ds))]
    for _ in range(25):
        for di in dn:
            for dj in dn:
                c = di & dj
                acc += next(k for k in _bits(c) if c & ~dn[k] == 0)
    return time.perf_counter() - t0


def package_modules() -> list:
    return [m for key, m in sys.modules.items() if key == "subloc" or key.startswith("subloc.")]


def setup(workload, seed: int) -> tuple[float, list]:
    """Import the package afresh and make the inputs; median time of several tries."""
    times = []
    for _ in range(SETUP_REPEATS):
        for mod in package_modules():
            del sys.modules[mod.__name__]
        t0 = time.perf_counter()
        importlib.import_module("subloc")
        importlib.import_module("subloc.runner")
        frames = workload.frames(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), frames


def fresh_state() -> None:
    """Empty every cache of the package, as a new `subloc` process would have."""
    for mod in package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    gc.collect()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "subloc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


class Bench:
    """One run: a workload's inputs, the expected verdicts, and the tally."""

    def __init__(self, workload, frames):
        self.w = workload
        self.frames = frames
        self.expect = {(f.name, s): expected(f, s) for f in frames for s in workload.suites_for(f)}
        self.tally = Tally()
        self.pass_times: list[float] = []
        self.pass_refs: list[float] = []

    def one_pass(self, jobs: int, tracer=None) -> tuple[float, dict | None]:
        """Time one pass with verdicts checked; return it and the corpus report."""
        fresh_state()
        report = None
        with tracer.root() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            if self.w.name == "corpus":
                report = workloads.run_corpus(jobs)
                self.tally.add(self.expect, workloads.corpus_verdicts(report))
            else:
                self.tally.add(self.expect, workloads.run_frames(self.w, self.frames))
            elapsed = time.perf_counter() - t0
        return elapsed, report

    def timed(self, seconds: float) -> dict:
        """Passes until the next one would end well past ``seconds``.

        Each reference sample sits between two passes and serves both.
        """
        jobs = workloads.CORPUS_JOBS
        times, norm = self.pass_times, []
        start = time.perf_counter()
        before = machine_ref()
        while True:
            t = self.one_pass(jobs)[0]
            after = machine_ref()
            times.append(t)
            self.pass_refs.append((before + after) / 2)
            norm.append(t * REF_NOMINAL_S / self.pass_refs[-1])
            before = after
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(times) / 2 >= seconds:
                break
        return {"pass_norm_s": statistics.median(norm)}

    def rescaled_pass(self, jobs: int, tracer=None) -> tuple[float, dict | None]:
        """One pass with the reference timed on both sides; its rescaled time."""
        before = machine_ref()
        elapsed, report = self.one_pass(jobs, tracer)
        self.pass_refs.append((before + machine_ref()) / 2)
        self.pass_times.append(elapsed)
        return elapsed * REF_NOMINAL_S / self.pass_refs[-1], report

    def traced(self) -> dict:
        """Untraced passes, then one traced serial pass; per-layer metrics.

        The passes are compared by their rescaled times, so a drift of the
        host between them does not read as tracing overhead.
        """
        out = {"runner.parallel_efficiency": 0.0}
        serial_s, serial_report = self.rescaled_pass(jobs=1)
        if self.w.name == "corpus":
            jobs = workloads.CORPUS_JOBS
            parallel_s, parallel_report = self.rescaled_pass(jobs)
            out["runner.parallel_efficiency"] = serial_s / (jobs * parallel_s)
            self.check_identical(serial_report, parallel_report)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, traced_report = self.rescaled_pass(jobs=1, tracer=tracer)
        finally:
            tracer.restore()
        if self.w.name == "corpus":
            self.check_identical(serial_report, traced_report)
        out.update(tracer.metrics())
        out["trace.overhead_frac"] = traced_s / serial_s - 1
        self.tracer = tracer
        return out

    def check_identical(self, a: dict | None, b: dict | None) -> None:
        """`subloc report --json` must not depend on the worker count."""
        if a is not None and b is not None and _report_json(a) != _report_json(b):
            print("corpus report differs between worker counts", file=sys.stderr)
            self.tally.wrong += 1


def _report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subloc" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'subloc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = [machine_ref()]
    setup_s, frames = setup(workloads.WORKLOADS[args.workload], args.seed)
    subloc = sys.modules["subloc"]
    if Path(subloc.__file__).resolve().parent != SRC / "subloc":
        print(f"perfbench: imported subloc from {subloc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = Bench(workloads.WORKLOADS[args.workload], frames)
    if args.trace:
        values = bench.traced()
        metric_specs = spec["per_layer"]
    else:
        values = bench.timed(args.seconds)
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        metric_specs = spec["end_to_end"]
    refs.append(machine_ref())
    values["machine.ref_s"] = statistics.median(refs)

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "git_sha": git_sha(), "src_sha256": src_sha256(),
           "pass_s": bench.pass_times, "pass_ref_s": bench.pass_refs,
           "setup_s": setup_s, "machine_ref_s": refs,
           "frames": [f.name for f in frames]}
    if args.trace:
        bench.tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json", env)
    print(json.dumps({"env": env}))
    tally = bench.tally
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metric_specs}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
