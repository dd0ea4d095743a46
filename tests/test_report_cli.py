import copy
import gc
import hashlib
import json
import multiprocessing
import os
import weakref
from collections import Counter

import pytest

from subloc import DEFAULT_LIMITS, Limits, correspondence, report, runner
from subloc.cli import main
from subloc.corpus import gen_boolean, gen_chain, standard_corpus, standard_lattices
from subloc.bits import bits, mask_of
from subloc.errors import NotProper, SizeLimit
from subloc.lattice import FrameWitness, Lattice
from subloc.latfile import parse_lattice, serialize_lattice
from subloc.report import (FINITE_NOTE, SCHEMA_VERSION, correspondence_suite,
                           frame_report, host_law_violations, laws_suite,
                           render_suite_text, run_suite)
from subloc.sublocales import SublocaleCoframe, enumerate_sublocales
from subloc.runner import corpus_report

from oracles import scan_host_laws

C3_TEXT = "lattice 3\nbottom 0\ntop 2\n0 < 1\n1 < 2\n"

# sha256 of json.dumps(corpus_report(jobs=1), indent=2, sort_keys=True) over
# the standard corpus; `subloc report --json --jobs 1` prints the same text
# plus a newline.  A change to any report byte has to update it on purpose.
CORPUS_REPORT_SHA256 = "775d532a663e6943d60e060f30f75bc53bf8d88bc841acad68b961acd272aac1"


@pytest.fixture()
def c3_file(tmp_path):
    p = tmp_path / "c3.lat"
    p.write_text(C3_TEXT)
    return str(p)


def test_frame_report_frozen_values(c3):
    rep = frame_report("c3", c3)
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["elements"] == 3
    assert rep["sublocales"] == 4
    assert rep["fitted_sublocales"] == 3
    assert rep["primes"] == [0, 1]
    assert rep["strongly_exact_filters"] == 3
    assert rep["smallest_codense_size"] == 4


def test_all_suites_pass_on_small_frames(c3, b2):
    for fw in (c3, b2):
        for suite in ("laws", "adjunction", "correspondence"):
            result = run_suite(suite, "x", fw)
            assert result["ok"], render_suite_text(result)
            assert result["schema_version"] == SCHEMA_VERSION
            assert json.dumps(result, sort_keys=True)


def test_correspondence_suite_carries_finite_scale_note(c3):
    result = run_suite("correspondence", "c3", c3)
    assert FINITE_NOTE in result["notes"]
    assert result["smooth_is_all"] and result["exact_is_all"]


def test_unknown_suite_rejected(c3):
    with pytest.raises(ValueError):
        run_suite("nope", "c3", c3)


def test_render_marks_failures(c3):
    result = run_suite("laws", "c3", c3)
    text = render_suite_text(result)
    assert "[ok]" in text and "FAIL" not in text
    result["checks"][0]["ok"] = False
    result["checks"][0]["counterexamples"] = [(1, 2)]
    assert "counterexample: (1, 2)" in render_suite_text(result)


def test_cli_analyze(c3_file, capsys):
    assert main(["analyze", c3_file]) == 0
    out = capsys.readouterr().out
    assert "sublocales: 4" in out
    assert main(["analyze", c3_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fitted_sublocales"] == 3


def test_cli_sublocales_listing_and_dot(c3_file, capsys):
    assert main(["sublocales", c3_file]) == 0
    out = capsys.readouterr().out
    assert "0: {2}" in out and "open(0)" in out
    assert main(["sublocales", c3_file, "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph") and dot.count("label=") == 4
    assert main(["sublocales", c3_file, "--host", "SoL"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_cli_dot_on_two_chain(tmp_path, capsys):
    p = tmp_path / "c2.lat"
    p.write_text(serialize_lattice(gen_chain(2)))
    assert main(["sublocales", str(p), "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("label=") == 2


def test_cli_subcolocales(c3_file, capsys):
    assert main(["subcolocales", c3_file, "--filter", "codense"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "{0, 1, 2, 3}"
    assert main(["subcolocales", c3_file, "--host", "SoL",
                 "--filter", "proper"]) == 0
    assert capsys.readouterr().out.strip() == "{0, 1, 2}"
    # proper filtering is only defined on the fitted host
    assert main(["subcolocales", c3_file, "--filter", "proper"]) == 2
    assert "fitted" in capsys.readouterr().err


def test_cli_fitted_host_output_is_pinned(tmp_path, capsys):
    # the fitted host's numbering, opens and closeds, and its proper
    # collections, as `subloc sublocales --host SoL` and `subloc subcolocales
    # --host SoL --filter proper` print them for each of the 59 frames of
    # the standard corpus with 20 sampled 4-point topologies
    digest = hashlib.sha256()
    frames = standard_corpus(20, 0)
    for cf in frames:
        p = tmp_path / f"{cf.name}.lat"
        p.write_text(serialize_lattice(cf.frame.lattice))
        for argv in (["sublocales", str(p), "--host", "SoL"],
                     ["subcolocales", str(p), "--host", "SoL", "--filter", "proper"]):
            assert main(argv) == 0
            digest.update(f"{cf.name}\n{capsys.readouterr().out}".encode())
    assert len(frames) == 59
    assert digest.hexdigest() == "ea11f20cae73b109398660c461c657ee2935abaabf39c98825e14d597049d43f"


def test_cli_subcolocales_above_sixteen(tmp_path, capsys):
    # chain6 has 32 sublocales, past the bound of the old 2^k scan
    p = tmp_path / "c6.lat"
    p.write_text(serialize_lattice(gen_chain(6)))
    assert main(["subcolocales", str(p)]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 32 and err.strip() == "total: 32"


def test_cli_check_suites(c3_file, capsys):
    for suite in ("laws", "adjunction", "correspondence"):
        assert main(["check", c3_file, "--suite", suite]) == 0
        assert "ok" in capsys.readouterr().out
    assert main(["check", c3_file, "--suite", "laws", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_roundtrip(c3_file, capsys):
    assert main(["roundtrip", c3_file]) == 0
    assert capsys.readouterr().out == C3_TEXT


def test_cli_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["corpus", "--out", str(out), "--points4", "2",
                 "--seed", "3"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 41
    assert "chain6.lat" in files and "top4s3-01.lat" in files
    again = tmp_path / "again"
    assert main(["corpus", "--out", str(again), "--points4", "2",
                 "--seed", "3"]) == 0
    for name in files:
        assert (out / name).read_text() == (again / name).read_text()


def test_bad_counts_are_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # --jobs below 1 and --points4 below 0 exit 2 while the arguments are
    # parsed, naming the flag: no report runs and no corpus file is written
    monkeypatch.setattr("subloc.cli.corpus_report",
                        lambda *args, **kwargs: pytest.fail("the report ran"))
    out = tmp_path / "D"
    out.mkdir()
    for argv, flag in ((["report", "--jobs", "0"], "--jobs"),
                       (["report", "--jobs", "-3"], "--jobs"),
                       (["report", "--points4", "-1"], "--points4"),
                       (["corpus", "--points4", "-2", "--out", str(out)], "--points4")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        got = capsys.readouterr()
        assert exc.value.code == 2 and got.out == "", argv
        assert f"argument {flag}: must be at least" in got.err, argv
    assert list(out.iterdir()) == []


def test_cli_input_errors(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.lat")]) == 2
    bad = tmp_path / "bad.lat"
    bad.write_text("lattice 3\n0 < 1\n")
    assert main(["analyze", str(bad)]) == 2
    big = tmp_path / "big.lat"
    big.write_text(serialize_lattice(gen_chain(16)))
    assert main(["analyze", str(big)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_limit_overrides(c3_file, capsys):
    assert main(["--limit", "bogus", "analyze", c3_file]) == 2
    assert main(["--limit", "no_such_limit=5", "analyze", c3_file]) == 2
    assert "unknown limit" in capsys.readouterr().err
    # deleted limits are unknown names now
    for name in ("max_subcolocale_host", "max_downset_ground", "scan_frame_elements",
                 "lift_node_budget"):
        assert main(["--limit", f"{name}=20", "analyze", c3_file]) == 2
        assert "unknown limit" in capsys.readouterr().err
    # families are always the empty one and the pairs: no knob picks them
    assert main(["--limit", "exhaustive_family_elements=12", "report"]) == 2
    assert "choose from max_downsets, max_sublocales" in capsys.readouterr().err
    with pytest.raises(TypeError):
        DEFAULT_LIMITS.with_(exhaustive_family_elements=1)
    # tightening the sublocale bound turns a fine input into an input error
    # (chain3 has 2 primes, so 4 sublocales)
    assert main(["--limit", "max_sublocales=2", "analyze", c3_file]) == 2
    assert "--limit max_sublocales=N" in capsys.readouterr().err
    assert main(["--limit", "max_sublocales=4", "analyze", c3_file]) == 0


def test_cli_bounds_input_by_primes_not_elements(tmp_path, capsys):
    # bool4 has 16 elements but 4 primes, so 16 sublocales
    path = tmp_path / "bool4.lat"
    path.write_text(serialize_lattice(gen_boolean(4)))
    assert main(["analyze", str(path)]) == 0
    assert "sublocales: 16" in capsys.readouterr().out


def test_cli_refuses_more_elements_than_sublocales_before_the_witness(
        tmp_path, monkeypatch, capsys):
    # bool4 has 16 elements, so at least 16 sublocales: past a bound of 8
    path = tmp_path / "bool4.lat"
    path.write_text(serialize_lattice(gen_boolean(4)))

    def reached(lat):
        pytest.fail("FrameWitness.of ran on input past the sublocale bound")

    monkeypatch.setattr(FrameWitness, "of", staticmethod(reached))
    assert main(["--limit", "max_sublocales=8", "check", str(path), "--suite", "laws"]) == 2
    err = capsys.readouterr().err
    assert "16 elements exceed max_sublocales=8" in err
    assert "--limit max_sublocales=N" in err


def test_cli_refuses_a_long_chain_before_any_table(tmp_path, monkeypatch, capsys):
    # chain1500 has fewer elements than max_sublocales but 1,499 primes; the
    # chain of its pairs refuses it before the order is even closed
    path = tmp_path / "chain1500.lat"
    path.write_text("lattice 1500\n" + "".join(f"{i} < {i + 1}\n" for i in range(1499)))

    def reached(*args):
        pytest.fail("a lattice table was built for input past the sublocale bound")

    monkeypatch.setattr(Lattice, "from_relation", classmethod(reached))
    monkeypatch.setattr(Lattice, "from_up", classmethod(reached))
    assert main(["check", str(path), "--suite", "laws"]) == 2
    err = capsys.readouterr().err
    assert "a chain of 1499 pairs" in err and "max_sublocales=16384" in err
    # past 3 sublocales: chain3 by its chain of 2 pairs, not by its 3
    # elements; a cycle or an out-of-range pair is left to the builder
    monkeypatch.undo()
    for text, message in (("lattice 3\n0 < 1\n1 < 2\n", "a chain of 2 pairs"),
                          ("lattice 3\n0 < 1\n1 < 2\n2 < 0\n", "antisymmetric"),
                          ("lattice 3\n0 < 1\n1 < 5\n", "outside")):
        path.write_text(text)
        assert main(["--limit", "max_sublocales=3", "check", str(path), "--suite", "laws"]) == 2
        assert message in capsys.readouterr().err


def test_oversized_downset_frame_fails_before_any_lift(tmp_path, monkeypatch, capsys):
    # bool6's 64 elements have far more than 8192 down-sets
    def reached(*args):
        pytest.fail("a lift was checked before the down-set frame was bounded")

    monkeypatch.setattr(report, "quotient_verdicts", reached)
    with pytest.raises(SizeLimit, match="max_downsets=8192"):
        run_suite("correspondence", "bool6", FrameWitness.of(gen_boolean(6)))
    path = tmp_path / "bool6.lat"
    path.write_text(serialize_lattice(gen_boolean(6)))
    assert main(["check", str(path), "--suite", "correspondence"]) == 2
    err = capsys.readouterr().err
    assert "max_downsets=8192" in err and "--limit max_downsets=N" in err


def _no_quotient_target(monkeypatch):
    """Fail the test if a quotient map or its target is built.  The package
    builds both in ``surjection_of`` only, the map through ``FrameMap.of``;
    ``quotient_map`` and ``quotient_order``, which shared the targets, are
    test oracles and bound nowhere in the package."""
    def reached(*args, **kwargs):
        pytest.fail("a quotient map or its target frame was built")

    modules = (correspondence, report, runner)
    assert not any(hasattr(m, name) for m in modules
                   for name in ("quotient_map", "quotient_order"))
    monkeypatch.setattr(correspondence, "surjection_of", reached)
    monkeypatch.setattr(correspondence.FrameMap, "of", reached)


def _counting_verdicts(monkeypatch):
    """Record every quotient verdict that the suite reads."""
    decided, real = [], report.quotient_verdicts
    monkeypatch.setattr(report, "quotient_verdicts",
                        lambda b: [decided.append(v) or v for v in real(b)])
    return decided


def test_correspondence_suite_builds_no_quotient_target(monkeypatch):
    want = correspondence_suite("chain6", FrameWitness.of(gen_chain(6)))
    _no_quotient_target(monkeypatch)
    decided = _counting_verdicts(monkeypatch)
    hosts, real_init = [], SublocaleCoframe.__init__
    monkeypatch.setattr(SublocaleCoframe, "__init__",
                        lambda self, *args, **kw: hosts.append(args[0]) or
                        real_init(self, *args, **kw))
    fw = FrameWitness.of(gen_chain(6))
    got = correspondence_suite("chain6", fw)
    # the frame's own S(L) and fitted host, and its 32 quotients decided on them
    assert hosts == [fw, fw] and len(decided) == 32
    assert got == want and got["ok"]


def _nucleus_drops_prime_0_at_the_top(real):
    def planted(self, i):
        if self.fitted or i != self.size - 1:
            return real(self, i)
        _, _, meet_of, above = self._prime_tables
        q = self.points[i] & ~1
        return tuple([meet_of[q & r] for r in above])
    return planted


def _nucleus_steps_up_at_the_bottom(real):
    # on a chain, x -> x + 1 below the top: it keeps the top and every meet,
    # and its image is the prime-free bottom sublocale's, but it is not
    # idempotent, so it breaks nu(a ^ m) = nu(nu(a) ^ nu(m)) at a = m = 0
    def planted(self, i):
        if self.fitted or i != 0:
            return real(self, i)
        top = self.ambient.lattice.top
        return tuple([min(x + 1, top) for x in range(top + 1)])
    return planted


def test_each_quotient_check_fails_through_the_suite_under_its_plant(monkeypatch):
    fw = FrameWitness.of(gen_chain(4))
    assert correspondence_suite("chain4", fw)["ok"]
    real_nucleus = SublocaleCoframe.nucleus
    pins_to_self = property(lambda b: tuple((p, p) for p in bits(b.frame.primes)))
    plants = [
        # the identity rho(nu(x)) = rho(x) fails at x = 0 on the whole frame
        (SublocaleCoframe, "nucleus", _nucleus_drops_prime_0_at_the_top(real_nucleus),
         {"surjections-are-exact-maps": [7], "szdbf-lift-iff-smooth": [7]}),
        # x_p = p makes every atom empty, so no zero-dimensional lift exists
        (correspondence.SZDBF, "coatom_pins", pins_to_self,
         {"szdbf-lift-iff-smooth": [0, 1, 2, 3, 4]}),
        (SublocaleCoframe, "nucleus", _nucleus_steps_up_at_the_bottom(real_nucleus),
         {"raney-lift-iff-exact": [0]}),
    ]
    for owner, name, plant, failing in plants:
        with monkeypatch.context() as m:
            m.setattr(owner, name, plant)
            result = correspondence_suite("chain4", FrameWitness.of(gen_chain(4)))
        got = {c["check"]: c["counterexamples"] for c in result["checks"] if not c["ok"]}
        assert got == failing and not result["ok"], name


def test_downset_join_map_check_catches_a_wrong_right_adjoint(monkeypatch):
    fw = FrameWitness.of(gen_chain(3))
    assert correspondence_suite("chain3", fw)["ok"]

    # every element to the top down-set: its image {L} is a sublocale (r . eps
    # is the constant nucleus), but not the principal down-sets
    def wrong(lat, masks, eps):
        return [lat.full_mask] * lat.n

    monkeypatch.setattr(correspondence, "_right_adjoint", wrong)
    result = correspondence_suite("chain3", fw)
    check = next(c for c in result["checks"] if c["check"] == "downset-frame-join-map")
    assert not check["ok"] and not result["ok"]
    # the down-sets of the 3-chain are {}, {0}, {0, 1} and {0, 1, 2}, in
    # that order; all but the empty one are principal
    assert check["counterexamples"] == [{"induced": [3], "principal": [1, 2, 3]}]


def test_sigma_of_each_fit_is_read_once_and_every_failing_d_listed(monkeypatch):
    fw = FrameWitness.of(gen_chain(4))
    sl = enumerate_sublocales(fw)
    sl_o = sl.fitted_subcoframe()
    sb_image = report.fit_image(sl, sl_o, report.sb(sl))
    planted = sl_o.fit_of[sl.size - 1]
    real, real_add = report.sigma, report._Checks.add
    calls = []

    def wrong_at_planted(sl, sl_o, fm, f):
        out = real(sl, sl_o, fm, f)
        if fm != sb_image:
            return out
        calls.append(f)
        return sl.size - 1 - out if f == planted else out

    def marked(checks, name, violations):
        # a check's entry follows the sigma reads it made
        calls.append(name)
        real_add(checks, name, violations)

    monkeypatch.setattr(report, "sigma", wrong_at_planted)
    monkeypatch.setattr(report._Checks, "add", marked)
    result = report.adjunction_suite("chain4", fw)
    check = next(c for c in result["checks"]
                 if c["check"] == "conucleus-of-fit-equals-sigma-of-fit")
    failing = [d for d in range(sl.size) if sl_o.fit_of[d] == planted]
    assert len(failing) > 1 and check["counterexamples"] == failing[:5]

    def read_by(name):
        end = calls.index(name)
        start = max(i for i, c in enumerate(calls[:end]) if isinstance(c, str))
        return calls[start + 1:end]

    # the check reads sigma on sb's fit image once for each fitted index,
    # not once for each of the sl.size indices d
    assert read_by("conucleus-of-fit-equals-sigma-of-fit") == list(range(sl_o.size))
    assert sl_o.size < sl.size
    # sb and ssp are the whole host, so sb's fit image is the full fitted
    # collection: the two checks before read each fitted index once on it,
    # and the Galois-connection check once for the one mask sb and ssp share
    assert len([c for c in calls if isinstance(c, int)]) == 4 * sl_o.size
    assert read_by("fit-sigma-galois-connection") == list(range(sl_o.size))


def test_galois_connection_check_lists_every_failing_pair_d_first(monkeypatch):
    fw = FrameWitness.of(gen_chain(4))
    sl = enumerate_sublocales(fw)
    sl_o = sl.fitted_subcoframe()
    # sigma planted as the bottom sublocale for every fitted index
    monkeypatch.setattr(report, "sigma", lambda sl, sl_o, fm, f: 0)
    result = report.adjunction_suite("chain4", fw)
    check = next(c for c in result["checks"] if c["check"] == "fit-sigma-galois-connection")
    expect = [(d, f) for d in range(sl.size) for f in range(sl_o.size)
              if sl_o.leq(sl_o.fit_of[d], f) != sl.leq(d, 0)]
    assert len({f for _, f in expect[:5]}) > 1 and len({d for d, _ in expect[:5]}) > 1
    assert check["counterexamples"] == expect[:5]


def test_galois_connection_masks_match_the_pair_loop(monkeypatch):
    # sigma planted wrong at one fitted index at a time: the masks list every
    # pair that the loop over each (d, f) finds, in its order, and nothing
    # when the plant is sigma's own value
    fw = FrameWitness.of(gen_boolean(2))
    sl = enumerate_sublocales(fw)
    sl_o = sl.fitted_subcoframe()
    full_o, real = (1 << sl_o.size) - 1, report.sigma
    monkeypatch.setattr(report, "MAX_COUNTEREXAMPLES", sl.size * sl_o.size)
    below = report.fit_fibres_below(sl, sl_o)
    assert below == [mask_of(d for d in range(sl.size) if sl_o.leq(sl_o.fit_of[d], f))
                     for f in range(sl_o.size)]
    verdicts = []
    for f0 in range(sl_o.size):
        for wrong in range(sl.size):
            def fake(sl_, sl_o_, fm, f):
                return wrong if f == f0 else real(sl_, sl_o_, fm, f)
            monkeypatch.setattr(report, "sigma", fake)
            result = report.adjunction_suite("bool2", fw)
            check = next(c for c in result["checks"] if c["check"] == "fit-sigma-galois-connection")
            sig = [fake(sl, sl_o, full_o, f) for f in range(sl_o.size)]
            expect = [(d, f) for d in range(sl.size) for f in range(sl_o.size)
                      if sl_o.leq(sl_o.fit_of[d], f) != sl.leq(d, sig[f])]
            assert check["counterexamples"] == expect and check["ok"] == (not expect), (f0, wrong)
            verdicts.append(check["ok"])
    assert set(verdicts) == {True, False}


def test_full_fitted_collection_fails_when_both_properness_criteria_do(monkeypatch):
    # the two criteria agree, so is_proper raises nothing and returns false
    fw = FrameWitness.of(gen_chain(3))
    monkeypatch.setattr("subloc.subcolocales._open_joins_exact", lambda sl_o, m: False)
    monkeypatch.setattr("subloc.subcolocales.are_principal_precongruences",
                        lambda fw, rows: False)
    result = report.adjunction_suite("chain3", fw)
    check = next(c for c in result["checks"] if c["check"] == "full-fitted-collection-proper")
    assert not check["ok"] and not result["ok"]
    assert check["counterexamples"] == ["full fitted coframe not proper"]


def test_sigma_checks_fail_on_a_wrong_sigma_of_one_open(monkeypatch):
    fw = FrameWitness.of(gen_chain(3))
    sl = enumerate_sublocales(fw)
    sl_o = sl.fitted_subcoframe()
    full_o, real = (1 << sl_o.size) - 1, report.sigma

    def planted_at(f0, wrong):
        def fake(sl, sl_o, fm, f):
            return wrong if fm == full_o and f == f0 else real(sl, sl_o, fm, f)
        return fake

    def failing():
        result = report.adjunction_suite("chain3", fw)
        return {c["check"]: c["counterexamples"] for c in result["checks"] if not c["ok"]}

    # the top's open is the whole frame; chain3's one sublocale that is not
    # fitted has the whole frame as its fit, so of the two checks on the
    # full fitted collection only the first sees it
    top, unfitted = fw.lattice.top, sl.fit_index.index(sl.size - 1)
    assert unfitted != sl.size - 1 and sl.open_of(top) == sl.size - 1
    monkeypatch.setattr(report, "sigma", planted_at(sl_o.open_of(top), unfitted))
    got = failing()
    assert got["sigma-fixes-opens"] == [top] and "fit-after-sigma-is-identity" not in got
    # the open of 1 realized as the open of the bottom: its fit is another
    # fitted index, so both checks list it
    monkeypatch.setattr(report, "sigma", planted_at(sl_o.open_of(1), sl.open_of(0)))
    got = failing()
    assert got["sigma-fixes-opens"] == [1]
    assert got["fit-after-sigma-is-identity"] == [sl_o.open_of(1)]


def test_a_swapped_pair_in_element_of_cannot_pass_the_adjunction_suite():
    # sigma reads the element of each conucleus, so a wrong one builds a
    # sublocale whose fit misses the meet identity: the suite raises
    fw = FrameWitness.of(gen_chain(3))
    sl_o = enumerate_sublocales(fw).fitted_subcoframe()
    back = list(sl_o.element_of)
    back[0], back[1] = back[1], back[0]
    sl_o.element_of = tuple(back)
    with pytest.raises(NotProper, match="meet identity"):
        report.adjunction_suite("chain3", fw)


def test_cli_rejects_unknown_command(c3_file):
    with pytest.raises(SystemExit):
        main(["frobnicate", c3_file])


def test_corpus_report_parallel_matches_serial():
    serial = corpus_report(("laws",), jobs=1)
    pooled = corpus_report(("laws",), jobs=2)
    assert serial == pooled
    assert serial["ok"]
    assert serial["frames"] == sorted(serial["frames"])
    assert [r["frame"] for r in serial["results"]] == serial["frames"]
    assert serial["schema_version"] == SCHEMA_VERSION


@pytest.fixture(scope="module")
def sampled_report():
    """The sampled corpus report, serial, and each frame's lattice text."""
    texts = {cf.name: serialize_lattice(cf.frame.lattice)
             for cf in standard_corpus(points4=20, seed=0)}
    return corpus_report(points4=20, seed=0, jobs=1), texts


def test_corpus_report_runs_each_distinct_text_once(monkeypatch):
    calls = []

    def counted(suite, name, fw, limits):
        calls.append(suite)
        return run_suite(suite, name, fw, limits)

    monkeypatch.setattr(runner, "run_suite", counted)
    rep = corpus_report(("laws",), jobs=1)
    assert (len(calls), len(rep["results"])) == (15, 39)


def test_sampled_corpus_serial_run_builds_no_target(monkeypatch):
    # every quotient is decided on its own frame's tables, so no run reads
    # what an earlier frame left behind
    _no_quotient_target(monkeypatch)
    decided = _counting_verdicts(monkeypatch)
    rep = corpus_report(("correspondence",), points4=20, seed=0, jobs=1)
    # the 331 quotients of the 28 distinct texts
    assert rep["ok"] and len(decided) == 331


def test_corpus_report_equals_a_fresh_run_for_every_frame(sampled_report):
    rep, texts = sampled_report
    by_frame = {}
    for r in rep["results"]:
        by_frame.setdefault(r["frame"], []).append(r)
    assert len(by_frame) == 59
    for name, text in texts.items():
        fw = FrameWitness.of(parse_lattice(text))
        assert by_frame[name] == [run_suite(suite, name, fw) for suite in rep["suites"]]


def test_corpus_report_duplicates_equal_their_own_runs(sampled_report):
    rep, texts = sampled_report
    counts = Counter(texts.values())
    assert (len(texts), len(counts)) == (59, 28)
    by_frame = {}
    for r in rep["results"]:
        by_frame.setdefault(r["frame"], []).append(r)
    # the last frame of each repeated text gets results that were computed
    # for another frame; they equal its own run
    last = {text: name for name, text in sorted(texts.items())}
    repeated = [name for text, name in last.items() if counts[text] > 1]
    assert len(repeated) == 12
    for name in repeated:
        fw = FrameWitness.of(parse_lattice(texts[name]))
        assert by_frame[name] == [run_suite(suite, name, fw) for suite in rep["suites"]]


def test_corpus_report_duplicates_share_no_objects(sampled_report):
    # deepcopy keeps any sharing inside the report, and spares the fixture;
    # the first frame of a text holds its run's own dicts and the later ones
    # copies, so a change to any of them leaves every other unchanged
    rep, texts = copy.deepcopy(sampled_report)
    groups = {}
    for r in rep["results"]:
        groups.setdefault((texts[r["frame"]], r["suite"]), []).append(r)
    group = max(groups.values(), key=len)
    assert len(group) >= 3
    for r in group:
        others = [o for o in group if o is not r]
        before = copy.deepcopy(others)
        r["checks"][0]["counterexamples"].append("mutated")
        r["checks"].append({"check": "mutated"})
        r["notes"].append("mutated")
        assert others == before


def test_corpus_report_pooled_matches_serial_on_every_suite(sampled_report):
    rep, _ = sampled_report
    assert rep["suites"] == ["laws", "adjunction", "correspondence"]
    assert corpus_report(points4=20, seed=0, jobs=2) == rep


def test_corpus_report_three_workers_match_serial(sampled_report):
    # 28 distinct texts deal into chunks of 10, 9 and 9
    rep, _ = sampled_report
    assert corpus_report(points4=20, seed=0, jobs=3) == rep
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_corpus_report_size_limit_is_the_same_for_any_worker_count(jobs):
    with pytest.raises(SizeLimit) as raised:
        corpus_report(limits=Limits(max_sublocales=4), jobs=jobs)
    assert str(raised.value) == ("8 sublocales exceed max_sublocales=4; "
                                 "override with --limit max_sublocales=N")
    assert not multiprocessing.active_children()


def _chunk_plant(monkeypatch, fail, in_parent):
    """Make ``_run_chunk`` call ``fail(texts)`` in every child, and in this
    process too if ``in_parent``.  Children see the plant as forked copies
    of this process."""
    parent, real = os.getpid(), runner._run_chunk

    def planted(texts, suites, limits):
        if in_parent or os.getpid() != parent:
            fail(texts)
        return real(texts, suites, limits)

    monkeypatch.setattr(runner, "_run_chunk", planted)


@pytest.mark.parametrize("in_parent", [True, False], ids=["every-chunk", "children-only"])
def test_corpus_report_raises_the_first_failing_chunk(monkeypatch, in_parent):
    """Chunk 0, the calling process's own, comes first; then the children's
    in chunk order.  Each chunk's first text is its rank in the deal."""
    def fail(texts):
        raise ValueError(texts[0])

    _chunk_plant(monkeypatch, fail, in_parent)
    size = {serialize_lattice(lat): lat.n for _, lat in standard_lattices()}
    asc = sorted(size, key=lambda text: (size[text], text))
    with pytest.raises(ValueError) as raised:
        corpus_report(("laws",), jobs=3)
    assert str(raised.value) == asc[0 if in_parent else 1]
    assert not multiprocessing.active_children()


def test_corpus_report_raises_when_a_worker_dies(monkeypatch):
    """A child that exits without sending is an error naming its chunk and
    exit code, not a wait on a pipe that no process writes."""
    def fail(texts):
        os._exit(3)

    _chunk_plant(monkeypatch, fail, in_parent=False)
    with pytest.raises(RuntimeError, match="worker of chunk 1 exited with code 3 "):
        corpus_report(("laws",), jobs=3)
    assert not multiprocessing.active_children()


def test_cli_report_command(capsys):
    assert main(["report", "--suite", "laws", "--jobs", "1", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and len(rep["results"]) == 39
    assert main(["report", "--suite", "laws", "--jobs", "1"]) == 0
    assert "[ok]" in capsys.readouterr().out


def test_corpus_report_bytes_are_pinned():
    text = json.dumps(corpus_report(jobs=1), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_REPORT_SHA256


def _with_elems(host, elems):
    """A copy of ``host`` whose member masks are ``elems``."""
    broken = copy.copy(host)
    broken.elems = tuple(elems)
    broken.index = {m: i for i, m in enumerate(broken.elems)}
    return broken


def test_host_law_violations_are_reported_not_raised(hosts):
    sl = hosts["chain5"]
    slo = sl.fitted_subcoframe()
    assert host_law_violations(sl) == [] and host_law_violations(slo) == []
    # the fitted host of chain5 is the down-sets of its four primes 0 < 1 < 2
    # < 3; drop the bottom from {0, 1, 4}, the sublocale of {0, 1}
    elems = list(slo.elems)
    assert elems[2] == 0b10011
    elems[2] = 0b10010
    broken = _with_elems(slo, elems)
    found = host_law_violations(broken)
    assert found == [("SoL", "primes", 2), ("SoL", "join", 1, 2),
                     ("SoL", "join", 2, 3), ("SoL", "fitted", 2)]
    assert scan_host_laws(broken) != []


def test_host_law_check_fails_through_the_suite_on_a_fitted_member_slip(monkeypatch):
    """Swapping the member masks of indices 1 and 2 of chain5's fitted host,
    ``{0, 4}`` and ``{0, 1, 4}``, fails ``coframe-law-of-sublocales``
    through the laws suite, at both indices and the covers they meet."""
    assert laws_suite("chain5", FrameWitness.of(gen_chain(5)))["ok"]
    real = SublocaleCoframe.fitted_subcoframe

    def swapped(self):
        host = real(self)
        elems = list(host.elems)
        elems[1], elems[2] = elems[2], elems[1]
        return _with_elems(host, elems)

    monkeypatch.setattr(SublocaleCoframe, "fitted_subcoframe", swapped)
    result = laws_suite("chain5", FrameWitness.of(gen_chain(5)))
    check = next(c for c in result["checks"] if c["check"] == "coframe-law-of-sublocales")
    assert not check["ok"] and not result["ok"]
    assert check["counterexamples"] == [("SoL", "primes", 1), ("SoL", "primes", 2),
                                        ("SoL", "join", 0, 1), ("SoL", "join", 1, 2),
                                        ("SoL", "join", 2, 3)]


def test_lattice_is_freed_after_the_laws_suite():
    lat = gen_chain(4)
    ref = weakref.ref(lat)
    assert laws_suite("chain4", FrameWitness.of(lat))["ok"]
    del lat
    gc.collect()
    assert ref() is None
