"""Outside-in layer tracing: spans around calls into the package's public functions.

:class:`Tracer` replaces each function listed in :data:`LAYERS` by a
wrapper that records a span (id, parent id, name, start, end) and, for a
few functions, counts computed from the arguments or the result.  The
package imports most of these functions by name into other modules, so
every module binding of a function is patched, not only the defining one;
:meth:`Tracer.restore` puts the originals back.  Hot helpers (``bits``,
``big_meet``, ``is_exact_meet``) are left alone: they run millions of
times per pass and a wrapper would dwarf them.

A layer's self time is the length of its spans minus the lengths of their
direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (layer name, module, attribute); "Class.method" patches the class itself
LAYERS = (
    ("lattice.from_up", "subloc.lattice", "Lattice.from_up"),
    ("lattice.frame_witness", "subloc.lattice", "FrameWitness.of"),
    ("lattice.coframe_witness", "subloc.lattice", "CoframeWitness.of"),
    ("latfile.parse_lattice", "subloc.latfile", "parse_lattice"),
    ("latfile.serialize_lattice", "subloc.latfile", "serialize_lattice"),
    ("sublocales.enumerate_sublocales", "subloc.sublocales", "enumerate_sublocales"),
    ("sublocales.coframe_init", "subloc.sublocales", "SublocaleCoframe.__init__"),
    ("sublocales.fitted_subcoframe", "subloc.sublocales", "fitted_subcoframe"),
    ("sublocales.filters", "subloc.sublocales", "all_filters"),
    ("sublocales.filters", "subloc.sublocales", "strongly_exact_filters"),
    ("sublocales.filters", "subloc.sublocales", "exact_filters"),
    ("sublocales.is_exact_sublocale", "subloc.sublocales", "is_exact_sublocale"),
    ("subcolocales.enumerate_subcolocales", "subloc.subcolocales", "enumerate_subcolocales"),
    ("subcolocales.is_proper", "subloc.subcolocales", "is_proper"),
    ("subcolocales.sigma", "subloc.subcolocales", "sigma"),
    ("subcolocales.delta", "subloc.subcolocales", "delta"),
    ("subcolocales.is_essential", "subloc.subcolocales", "is_essential"),
    ("correspondence.surjection_of", "subloc.correspondence", "surjection_of"),
    ("correspondence.is_exact_map", "subloc.correspondence", "is_exact_map"),
    ("correspondence.subcolocale_lattice", "subloc.correspondence", "subcolocale_lattice"),
    ("correspondence.extend_to_coframe_map", "subloc.correspondence", "extend_to_coframe_map"),
    ("report.laws_suite", "subloc.report", "laws_suite"),
    ("report.adjunction_suite", "subloc.report", "adjunction_suite"),
    ("report.correspondence_suite", "subloc.report", "correspondence_suite"),
    ("runner.corpus_report", "subloc.runner", "corpus_report"),
)

ROOT = "pass"


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []
        self.counts: Counter = Counter()
        self.frames_built: set = set()

    # -- counters computed at layer boundaries --------------------------

    def _families(self, name, n, limits):
        limit = limits.exhaustive_family_elements
        self.counts[name] += 2 ** n if n <= limit else n * n + 1

    def _hooks(self, default_limits):
        def exact_sublocale(args, kwargs, _):
            limits = _arg(args, kwargs, 2, "limits", default_limits)
            self._families("sublocales.is_exact_sublocale.families",
                           args[0].lattice.n, limits)

        def exact_map(args, kwargs, _):
            limits = _arg(args, kwargs, 1, "limits", default_limits)
            self._families("correspondence.is_exact_map.families",
                           args[0].source.lattice.n, limits)

        def subcolocales(args, kwargs, found):
            host = args[0]
            k = host.size if hasattr(host, "size") else host.n
            self.counts["subcolocales.scanned"] += 2 ** k
            self.counts["subcolocales.found"] += len(found)

        def lift(args, kwargs, verdict):
            self.counts["lift.nodes"] += verdict.nodes_explored
            self.counts["lift.found"] += len(verdict.witnesses)

        def build(args, kwargs, _):
            # the up-set rows fix the lattice, and so its canonical text
            self.frames_built.add(args[0].lattice.up)

        return {"sublocales.is_exact_sublocale": exact_sublocale,
                "correspondence.is_exact_map": exact_map,
                "subcolocales.enumerate_subcolocales": subcolocales,
                "correspondence.extend_to_coframe_map": lift,
                "sublocales.enumerate_sublocales": build}

    # -- patching ------------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1)
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        """Patch every layer function, in every ``subloc`` module that binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "subloc" or key.startswith("subloc.")]
        hooks = self._hooks(sys.modules["subloc.config"].DEFAULT_LIMITS)
        for name, modname, attr in LAYERS:
            hook = hooks.get(name)
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, orig))

    def restore(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    @contextmanager
    def root(self):
        """The span of one whole pass, parent of every layer span."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, -1, ROOT, t0, t1)

    # -- results -------------------------------------------------------

    def layer_times(self) -> tuple[Counter, dict]:
        """Calls and self seconds per layer name (the root included)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            calls[name] += 1
            self_s[name] += t1 - t0 - child[sid]
        return calls, self_s

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass, by the names in BENCHMARK.json."""
        calls, self_s = self.layer_times()
        out = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        c = self.counts
        out["sublocales.is_exact_sublocale.families"] = c["sublocales.is_exact_sublocale.families"]
        out["correspondence.is_exact_map.families"] = c["correspondence.is_exact_map.families"]
        out["subcolocales.enumerate_subcolocales.yield"] = _ratio(c["subcolocales.found"],
                                                                  c["subcolocales.scanned"])
        out["correspondence.lift.nodes"] = c["lift.nodes"]
        out["correspondence.lift.yield"] = _ratio(c["lift.found"], c["lift.nodes"])
        out["sublocales.enumerate_sublocales.distinct_frac"] = _ratio(
            len(self.frames_built), calls["sublocales.enumerate_sublocales"])
        pass_s = sum(t1 - t0 for _, parent, _, t0, t1 in self.spans if parent < 0)
        out["trace.unattributed_frac"] = _ratio(self_s[ROOT], pass_s)
        return out

    def dump(self, path, env: dict) -> None:
        """Write the spans, times relative to the first span's start."""
        base = min((s[3] for s in self.spans), default=0.0)
        rows = [[sid, parent, name, round(t0 - base, 9), round(t1 - base, 9)]
                for sid, parent, name, t0, t1 in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"env": env, "fields": ["id", "parent", "name", "start_s", "end_s"],
                                    "spans": rows}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
