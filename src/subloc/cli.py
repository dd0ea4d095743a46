"""Command line interface.

Exit codes: 0 all checks passed, 1 a checked law failed or two internal
computations disagreed, 2 bad input (unparseable file, not a frame, or a
size limit was hit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bits import bits
from .config import DEFAULT_LIMITS, Limits
from .corpus import standard_lattices
from .errors import InternalInconsistency, NotAFrame, NotACoframe, SizeLimit
from .lattice import FrameWitness
from .latfile import (build_lattice, longest_chain, parse_lattice, read_pairs,
                      serialize_lattice)
from .report import ALL_SUITES, frame_report, render_suite_text, run_suite
from .runner import corpus_report
from .subcolocales import enumerate_subcolocales
from .sublocales import enumerate_sublocales
from .viz import hasse_dot


def _load_frame(path: str, limits: Limits) -> FrameWitness:
    """Parse a frame, refusing it before any table is built when it must
    have more than ``limits.max_sublocales`` sublocales.

    A finite frame with ``p`` primes has ``2^p`` sublocales.  It has at
    most ``2^p`` elements, each the meet of the primes above it.  And a
    chain of ``l`` pairs of its file, ``x0 < ... < xl``, has ``l <= p``:
    the sets ``J(xi)`` of join-irreducibles below each ``xi`` strictly
    grow, as every element is the join of its own, and a frame has as many
    join-irreducibles as primes.  So either count, read off the pairs in
    ``O(n + pairs)`` (:func:`~subloc.latfile.longest_chain`), refuses it;
    the tables cost ``n^2`` and ``FrameWitness.of`` ``n^2 p``.
    """
    n, pairs, bottom, top = read_pairs(Path(path).read_text())
    chain = longest_chain(n, pairs)
    hint = "override with --limit max_sublocales=N"
    if n > limits.max_sublocales:
        raise SizeLimit(f"{n} elements exceed max_sublocales={limits.max_sublocales} "
                        f"(a frame has at least as many sublocales as elements); {hint}")
    if chain is not None and 1 << chain > limits.max_sublocales:
        raise SizeLimit(f"a chain of {chain} pairs means at least 2^{chain} sublocales, "
                        f"past max_sublocales={limits.max_sublocales}; {hint}")
    return FrameWitness.of(build_lattice(n, pairs, bottom, top))


def _apply_limit_overrides(pairs: list[str]) -> Limits:
    import dataclasses
    known = {f.name for f in dataclasses.fields(Limits)}
    overrides = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise ValueError(f"expected NAME=VALUE, got {pair!r}")
        if name not in known:
            raise ValueError(f"unknown limit {name!r}; choose from "
                             f"{', '.join(sorted(known))}")
        overrides[name] = int(value)
    return DEFAULT_LIMITS.with_(**overrides)


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``, so that a bad
    count exits 2 naming its flag before any work is done."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


def _host_of(fw: FrameWitness, which: str, limits: Limits):
    sl = enumerate_sublocales(fw, limits)
    return sl if which == "SL" else sl.fitted_subcoframe()


def cmd_analyze(args, limits: Limits) -> int:
    fw = _load_frame(args.file, limits)
    rep = frame_report(Path(args.file).stem, fw, limits)
    if args.json:
        print(json.dumps(rep, indent=2, sort_keys=True))
    else:
        for key in sorted(rep):
            print(f"{key}: {rep[key]}")
    return 0


def cmd_sublocales(args, limits: Limits) -> int:
    fw = _load_frame(args.file, limits)
    host = _host_of(fw, args.host, limits)
    if args.dot:
        print(hasse_dot(host), end="")
        return 0
    for i, mask in enumerate(host.elems):
        members = sorted(bits(mask))
        tags = [f"open({a})" for a, oi in enumerate(host.open_index) if oi == i]
        tags += [f"closed({a})" for a, ci in enumerate(host.closed_index) if ci == i]
        suffix = "  " + " ".join(tags) if tags else ""
        print(f"{i}: {{{', '.join(map(str, members))}}}{suffix}")
    return 0


def cmd_subcolocales(args, limits: Limits) -> int:
    fw = _load_frame(args.file, limits)
    host = _host_of(fw, args.host, limits)
    found = enumerate_subcolocales(host, args.filter)
    for mask in found:
        print("{" + ", ".join(map(str, sorted(bits(mask)))) + "}")
    print(f"total: {len(found)}", file=sys.stderr)
    return 0


def cmd_check(args, limits: Limits) -> int:
    fw = _load_frame(args.file, limits)
    result = run_suite(args.suite, Path(args.file).stem, fw, limits)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(render_suite_text(result), end="")
    return 0 if result["ok"] else 1


def cmd_roundtrip(args, limits: Limits) -> int:
    text = Path(args.file).read_text()
    lat = parse_lattice(text)
    canon = serialize_lattice(lat)
    again = parse_lattice(canon, strict=True)
    if again != lat:
        print("round trip changed the lattice", file=sys.stderr)
        return 1
    print(canon, end="")
    return 0


def cmd_report(args, limits: Limits) -> int:
    suites = ALL_SUITES if args.suite == "all" else (args.suite,)
    rep = corpus_report(suites, limits, points4=args.points4,
                        seed=args.seed, jobs=args.jobs)
    if args.json:
        print(json.dumps(rep, indent=2, sort_keys=True))
    else:
        for result in rep["results"]:
            print(render_suite_text(result), end="")
    return 0 if rep["ok"] else 1


def cmd_corpus(args, limits: Limits) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, lat in standard_lattices(args.points4, args.seed):
        path = out / f"{name}.lat"
        path.write_text(serialize_lattice(lat))
        print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subloc",
        description="finite frames, their sublocale coframes, and the "
                    "proper/codense subcolocale adjunction")
    parser.add_argument("--limit", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override a size limit, e.g. "
                             "--limit max_sublocales=32768; "
                             "unknown names exit 2")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="summary statistics of a frame")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sublocales", help="list a sublocale coframe")
    p.add_argument("file")
    p.add_argument("--host", choices=("SL", "SoL"), default="SL")
    p.add_argument("--dot", action="store_true",
                   help="emit the Hasse diagram as Graphviz DOT")
    p.set_defaults(fn=cmd_sublocales)

    p = sub.add_parser("subcolocales", help="enumerate subcolocales of a host")
    p.add_argument("file")
    p.add_argument("--host", choices=("SL", "SoL"), default="SL")
    p.add_argument("--filter", choices=("all", "codense", "proper"),
                   default="all")
    p.set_defaults(fn=cmd_subcolocales)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("file")
    p.add_argument("--suite", choices=ALL_SUITES, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("roundtrip", help="parse, canonicalize and reprint")
    p.add_argument("file")
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("report", help="run suites over the whole corpus, "
                                      "in parallel, ordered by frame name")
    p.add_argument("--suite", choices=("all",) + ALL_SUITES, default="all")
    p.add_argument("--points4", type=_at_least(0), default=0, metavar="COUNT",
                   help="also sample COUNT topologies on four points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_at_least(1), default=None,
                   help="processes, this one included; default the CPU count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("corpus", help="write the built-in corpus as .lat files")
    p.add_argument("--out", default="corpus")
    p.add_argument("--points4", type=_at_least(0), default=0, metavar="COUNT",
                   help="also sample COUNT topologies on four points")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_corpus)

    args = parser.parse_args(argv)
    try:
        limits = _apply_limit_overrides(args.limit)
        return args.fn(args, limits)
    except (OSError, ValueError, NotAFrame, NotACoframe, SizeLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
