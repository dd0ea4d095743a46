"""Every function of ``src/subloc`` is entered by a subcommand, or named in
:data:`ALLOWED` with the reason it stays.

The sweep runs :func:`subloc.cli.main` in this process under
``sys.setprofile``: ``corpus`` with three sampled 4-point topologies, then
``analyze``, ``sublocales``, ``subcolocales``, ``check`` and ``roundtrip``
on each distinct text it wrote, then ``report``.  Every function and method
defined in the package (found by :mod:`ast`, named by its qualified name
inside its module) whose code object the sweep never entered must be
allowed, and no allowed name may be entered or missing.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

import subloc
from subloc import cli

SRC = Path(subloc.__file__).parent

_SPANS = "pinned by name in perfbench/spans.py, which patches and times it"
_ONLY_SPANS = "called only by functions pinned in perfbench/spans.py"

ALLOWED = {
    # the benchmark's layer table names these four and reads their metrics
    "correspondence.surjection_of": _SPANS,
    "correspondence.is_exact_map": _SPANS,
    "correspondence.subcolocale_lattice": _SPANS,
    "correspondence.extend_to_coframe_map": _SPANS,
    "correspondence.FrameMap.of": _ONLY_SPANS + " (surjection_of validates its map)",
    "correspondence.coframe_map_violations": _ONLY_SPANS + " (FrameMap.of and "
                                             "extend_to_coframe_map check maps with it)",
    "lattice.table_op": _ONLY_SPANS + " (coframe_map_violations curries the target's tables)",
    "sublocales.SublocaleCoframe.leq": _ONLY_SPANS + " (subcolocale_lattice's host order)",
    # references that tests hold production to
    "correspondence.raney_lift_check": "tests/oracles.py::per_quotient_verdicts holds "
                                       "quotient_verdicts to it",
    "correspondence.szdbf_lift_check": "tests/oracles.py::per_quotient_verdicts holds "
                                       "quotient_verdicts to it",
    "correspondence.powerset_lift": "szdbf_lift_check's verdict and witness, which "
                                    "per_quotient_verdicts reads",
    "correspondence.RaneyExtension.element_of": "raney_lift_check's inverse of open, "
                                                "checked once per structure",
    "correspondence.SZDBF.closed_points": "szdbf_lift_check's pins",
    "correspondence.FrameMap.right_adjoint": "the reference of the down-set check's "
                                             "right adjoint",
    "subcolocales.join_closure": "the reference of closed_trims",
    "subcolocales.leq_f": "the reference of least_related",
    # double entries that only non-command inputs reach
    "subcolocales._is_subcolocale_characterized": "is_subcolocale's double entry; every "
                                                  "mask a command passes is a whole host",
    "subcolocales._trims": "called only by _is_subcolocale_characterized",
    # the library's generators, for the README sketch and the test fixtures
    "corpus.gen_diamond": "M3, the non-distributive lattice of the test fixtures",
    "corpus.gen_product": "a library generator the tests build frames with",
    "corpus.gen_downsets_of_poset": "a library generator the tests build frames with",
    "corpus.standard_corpus": "the corpus as witnesses, for the README sketch and "
                              "the test fixtures",
    # artifacts of the sweep
    "subcolocales._memoised": "runs at import time, before the sweep",
    "subcolocales._memoised.<locals>.wrap": "runs at import time, before the sweep",
    "runner._send_chunk": "runs only in a forked child, and the sweep forks none",
}


def defined_functions() -> dict[str, tuple[str, int, str]]:
    """``module.qualname`` of every function and method in the package,
    mapped to the file, first line and name of its code object (a decorated
    function's code starts at its first decorator)."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[f"{path.stem}.{qual}"] = (str(path), first, child.name)
                visit(child, path, qual + ".<locals>.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def _run(*argv: str, expect: int = 0) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    # a command that failed part way would leave functions unentered
    assert code == expect, argv


def sweep(out: Path) -> set[tuple[str, int, str]]:
    """File, first line and name of every code object that the subcommands
    enter."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run("corpus", "--out", str(out), "--points4", "3")
        texts = {}
        for path in sorted(out.glob("*.lat")):
            texts.setdefault(path.read_text(), str(path))
        for path in texts.values():
            _run("analyze", path)
            _run("analyze", path, "--json")
            for host in ("SL", "SoL"):
                _run("sublocales", path, "--host", host)
                _run("sublocales", path, "--host", host, "--dot")
                for which in ("all", "codense", "proper"):
                    # the proper filter refuses the full host, exiting 2
                    _run("subcolocales", path, "--host", host, "--filter", which,
                         expect=2 if (host, which) == ("SL", "proper") else 0)
            _run("check", path, "--suite", "laws", "--json")
            _run("roundtrip", path)
        _run("report", "--jobs", "1")
        _run("report", "--jobs", "1", "--json")
        _run("report", "--jobs", "1", "--json", "--points4", "3")
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    defined = defined_functions()
    entered = sweep(tmp_path_factory.mktemp("corpus"))
    unentered = {name for name, key in defined.items() if key not in entered}
    return defined, unentered


def test_every_unentered_function_is_allowed(reach):
    _, unentered = reach
    assert sorted(unentered - ALLOWED.keys()) == []


def test_no_allowed_function_is_entered(reach):
    defined, unentered = reach
    assert sorted(ALLOWED.keys() & defined.keys() - unentered) == []


def test_every_allowed_function_exists(reach):
    defined, _ = reach
    assert sorted(ALLOWED.keys() - defined.keys()) == []
