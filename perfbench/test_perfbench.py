"""Tests of the benchmark itself: inputs, verdict gate, failure accounting, tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import subloc.report as report  # noqa: E402
import subloc.runner as runner  # noqa: E402
import subloc.sublocales as sublocales  # noqa: E402
from subloc.errors import SizeLimit  # noqa: E402
from subloc.latfile import parse_lattice  # noqa: E402
from subloc.lattice import FrameWitness, Lattice, primes  # noqa: E402

import run  # noqa: E402
from inputs import chain_below, downset_text, draw_frame, product_below  # noqa: E402
from spans import Tracer  # noqa: E402
from verdicts import Frame, Tally, expected  # noqa: E402
from workloads import WORKLOADS, Workload, run_frames  # noqa: E402


def small_frame(name, below):
    text = downset_text(len(below), below)
    return Frame(name, len(below), parse_lattice(text).n, text)


SMALL = [small_frame("c3", chain_below(2)), small_frame("c2xc3", product_below(1, 2)),
         small_frame("bool2", product_below(1, 1))]
ALL_SUITES = Workload("small", ("laws", "adjunction", "correspondence"))


def score(workload, frames):
    tally = Tally()
    expect = {(f.name, s): expected(f, s) for f in frames for s in workload.suites_for(f)}
    tally.add(expect, run_frames(workload, frames))
    return tally


def test_generator_is_seeded_and_respects_windows():
    rng = random.Random(7)
    a = [draw_frame(rng, (5, 6), (9, 12)) for _ in range(3)]
    rng = random.Random(7)
    assert a == [draw_frame(rng, (5, 6), (9, 12)) for _ in range(3)]
    for p, n, text in a:
        assert 5 <= p <= 6 and 9 <= n <= 12
        fw = FrameWitness.of(parse_lattice(text, strict=True))
        assert fw.lattice.n == n
        assert bin(primes(fw)).count("1") == p


def test_workload_inputs_depend_on_seed_only():
    for w in WORKLOADS.values():
        assert w.frames(3) == w.frames(3)
    assert WORKLOADS["lift"].frames(3) != WORKLOADS["lift"].frames(4)


def test_reference_model_matches_the_program():
    assert score(ALL_SUITES, SMALL) == Tally(attempted=9, failed=0, wrong=0)
    # a host above 16 sublocales skips the brute-force adjunction checks
    p, n, text = draw_frame(random.Random(0), (5, 5), (10, 10))
    assert score(Workload("families", ("adjunction",)), [Frame("p5", p, n, text)]).failed == 0


def test_flipped_verdict_counts_as_failed_and_wrong(monkeypatch):
    real = report.adjunction_suite

    def flipped(*args, **kwargs):
        result = real(*args, **kwargs)
        result["checks"][0]["ok"] = not result["checks"][0]["ok"]
        return result

    monkeypatch.setattr(report, "adjunction_suite", flipped)
    tally = score(ALL_SUITES, SMALL)
    assert tally.attempted == 9
    assert tally.failed == 3 and tally.wrong == 3


def test_raising_run_counts_as_failed_not_wrong(monkeypatch):
    def boom(*args, **kwargs):
        raise SizeLimit("planted")

    monkeypatch.setattr(report, "laws_suite", boom)
    tally = score(ALL_SUITES, SMALL)
    assert (tally.failed, tally.wrong) == (3, 0)


def test_aborted_corpus_report_fails_every_run(monkeypatch):
    def boom(*args, **kwargs):
        raise SizeLimit("filter scan over 16 elements exceeds the configured bound")

    monkeypatch.setattr(runner, "corpus_report", boom)
    bench = run.Bench(WORKLOADS["corpus"], WORKLOADS["corpus"].frames(0))
    bench.one_pass(jobs=1)
    assert bench.tally.attempted == 3 * len(WORKLOADS["corpus"].frames(0))
    assert bench.tally.failed == bench.tally.attempted
    assert bench.tally.wrong == 0


def traced_pass(frames):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root():
            run_frames(ALL_SUITES, frames)
    finally:
        tracer.restore()
    return tracer


def test_tracer_patches_every_binding_and_restores_them():
    import subloc.subcolocales as subcolocales

    orig = sublocales.is_exact_sublocale
    orig_from_up = Lattice.__dict__["from_up"]
    tracer = Tracer()
    tracer.install()
    try:
        assert sublocales.is_exact_sublocale is not orig
        assert subcolocales.is_exact_sublocale is sublocales.is_exact_sublocale
        assert Lattice.__dict__["from_up"] is not orig_from_up
    finally:
        tracer.restore()
    assert subcolocales.is_exact_sublocale is orig is sublocales.is_exact_sublocale
    assert Lattice.__dict__["from_up"] is orig_from_up


def test_counts_repeat_exactly_and_time_is_attributed():
    run.fresh_state()
    a = traced_pass(SMALL).metrics()
    run.fresh_state()
    b = traced_pass(SMALL).metrics()
    counts = [k for k in a if k.endswith((".calls", ".families", ".nodes"))]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["report.laws_suite.calls"] == len(SMALL)
    assert a["sublocales.is_exact_sublocale.families"] > 0
    assert a["trace.unattributed_frac"] <= 0.10


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(traced_pass(SMALL[:1]).metrics()) | {
        "runner.parallel_efficiency", "trace.overhead_frac", "machine.ref_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert spec["command"][1] == "perfbench/run.py"
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lift",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
