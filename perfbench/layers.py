"""Per-layer tracing for one benchmark pass, from outside the package.

`Tracer.install()` wraps public functions of every `prefcheck` module (and
the few private ones that mark a layer boundary, such as fuzz enrichment)
and rebinds every `from ... import` copy of each, so no call goes around a
wrapper.  A wrapper counts calls, and adds busy time (outermost call of its
group only) and self time (its duration minus time spent in other wrapped
calls).  Coarse calls also open spans: pass -> instance -> verdict or
harness -> space check or calibration.  Spans stay in memory, with parent
ids, until `write_spans` at the end of the pass.

Nothing under `src/` changes; the segment and comparison hit ratios are read
from the caches the engine already keeps.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

ORDER_AXIOMS = (
    "reflexive", "complete", "nontrivial", "transitive", "negatively_transitive",
    "semi_transitive", "semi_transitive_up", "semi_transitive_down",
    "transitive_sym", "transitive_strict", "anti_symmetric",
)
SECTION_AXIOMS = (
    "mixture_continuous", "archimedean", "strong_archimedean",
    "open_strict_sections", "open_incomparable_sections", "linear", "convex",
    "concave", "star_convex", "star_concave", "independent", "fragile", "flimsy",
)

_CATALOG_MIX = ("catalog",), "wall_s, instance_p50_s on catalog; no change on fuzz or scale"
_SCANS = ("scale", "fuzz"), "wall_s on scale; wall_s, instance_* on fuzz; little on catalog"
_CACHE = ("scale", "fuzz"), "peak_rss_mb on scale (not fuzz); wall_s on scale if hits drop"
_COMPARE = ("catalog",), "wall_s on catalog"
_QUOTIENT = ("catalog",), "wall_s on catalog (split_hm quotient pipeline, JSON report) and fuzz (T4)"

# name, unit, the workloads meant to exercise it (where it must be non-zero),
# and the end-to-end metric it should move, on which workload
LAYER_METRICS = [
    ("spaces.mix.simplex.calls", "count", *_CATALOG_MIX),
    ("spaces.mix.interval.calls", "count", *_CATALOG_MIX),
    ("spaces.mix.split.calls", "count", *_CATALOG_MIX),
    ("spaces.mix.quotient.calls", "count", *_CATALOG_MIX),
    ("spaces.mix.self_s", "s", *_CATALOG_MIX),
    ("spaces.mixture_axioms.busy_s", "s", *_CATALOG_MIX),
    ("spaces.c1_c2.busy_s", "s", *_CATALOG_MIX),
    ("quadratic.mix.calls", "count", *_CATALOG_MIX),
    ("quadratic.self_s", "s", *_CATALOG_MIX),
    ("axioms.independent.busy_s", "s", ("catalog", "scale"),
     "wall_s, instance_p50_s on catalog; no change on fuzz or scale"),
    ("relations.classify.multi_utility.calls", "count", *_SCANS),
    ("relations.classify.multi_utility.self_s", "s", *_SCANS),
    ("intervals.calls", "count", *_SCANS),
    ("intervals.self_s", "s", *_SCANS),
    ("intervals.normalize.calls", "count", *_SCANS),
    ("intervals.analyze.hit_ratio", "ratio", *_SCANS),
    ("axioms.order.busy_s", "s", *_SCANS),
    *((f"axioms.{axiom}.busy_s", "s", *_SCANS)
      for axiom in SECTION_AXIOMS if axiom != "independent"),
    ("relations.segment.calls", "count", *_CACHE),
    ("relations.segment.hit_ratio", "ratio", *_CACHE),
    ("relations.mirrored.calls", "count", *_CACHE),
    ("relations.segment_cache.entries", "count", *_CACHE),
    ("relations.classify.catalog.calls", "count", *_COMPARE),
    ("relations.classify.catalog.self_s", "s", *_COMPARE),
    ("relations.classify.quotient.calls", "count", *_COMPARE),
    ("relations.classify.quotient.self_s", "s", *_COMPARE),
    ("relations.compare.calls", "count", *_COMPARE),
    ("relations.compare.self_s", "s", *_COMPARE),
    ("axioms.compare.calls", "count", *_COMPARE),
    ("axioms.compare.hit_ratio", "ratio", *_COMPARE),
    ("axioms.verdicts", "count", *_COMPARE),
    ("generate.instance_universe.busy_s", "s", ("fuzz",), "setup_s on fuzz"),
    ("generate.enrichment.busy_s", "s", ("fuzz",), "setup_s on fuzz"),
    ("spaces.augment_points.busy_s", "s", ("scale",), "setup_s on scale"),
    ("spaces.universe.points", "count", ("scale",), "setup_s on scale"),
    ("catalog.load_entry.busy_s", "s", ("catalog",), "setup_s on catalog"),
    ("representation.calibrate.busy_s", "s", *_QUOTIENT),
    ("representation.verify.busy_s", "s", *_QUOTIENT),
    ("representation.points_valued", "count", *_QUOTIENT),
    ("spaces.canonical.calls", "count", *_QUOTIENT),
    ("spaces.quotient.busy_s", "s", *_QUOTIENT),
    ("theorems.harness.calls", "count", ("catalog", "fuzz"), "wall_s on catalog and fuzz"),
    ("theorems.harness.self_s", "s", ("catalog", "fuzz"), "wall_s on catalog and fuzz"),
    ("catalog.run_entry.busy_s", "s", *_QUOTIENT),
    ("cli.report.busy_s", "s", *_QUOTIENT),
    ("trace_overhead_s", "s", (),
     "none: traced wall_s minus untraced wall_s"),
]

INTERVAL_FUNCTIONS = (
    "normalize", "union", "intersect", "complement", "difference", "is_subset",
    "closure", "interior", "analyze", "representative", "interval", "point",
)
# `__radd__` and `__rmul__` are aliases, rebound with `__add__` and `__mul__`
QUADRATIC_METHODS = (
    "sign", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "_cmp",
    "__lt__", "__le__", "__gt__", "__ge__",
)


class _Stat:
    __slots__ = ("calls", "hits", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = self.hits = self.depth = 0
        self.busy = self.self_time = 0.0


class Tracer:
    """Counters, busy/self times and spans for one pass of one process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.stats: dict[str, _Stat] = {}
        self.spans: list[list] = []
        self._open: list[int] = []
        self._child_time = [0.0]
        self.segment_cache_peak = 0
        self.universe_points = 0
        self._analyze = None

    def stat(self, group: str) -> _Stat:
        return self.stats.setdefault(group, _Stat())

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, groups, span=None, probe=None, after=None):
        """A wrapper of `fn` that accounts each call to every group in
        `groups`; `span` names the span a call opens, `probe(*args)` says
        whether the call is a cache hit, `after(args, result)` reads state."""
        stats = [self.stat(g) for g in groups]
        child_time = self._child_time
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for s in stats:
                s.calls += 1
                s.depth += 1
            if probe is not None and probe(*args):
                stats[0].hits += 1
            if span is not None:
                self._open_span(span, args)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                for s in stats:
                    s.self_time += elapsed - inner
                    s.depth -= 1
                    if s.depth == 0:
                        s.busy += elapsed
                if span is not None:
                    self._close_span()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _open_span(self, name, args):
        label = next((a for a in args[:2] if isinstance(a, str)), None)
        parent = self._open[-1] if self._open else None
        self.spans.append([len(self.spans) + 1, parent, name, label,
                           time.perf_counter(), None])
        self._open.append(len(self.spans))

    def _close_span(self):
        self.spans[self._open.pop() - 1][5] = time.perf_counter()

    def open_pass_span(self):
        self._open_span("pass", (self.trace_id,))

    def close_pass_span(self):
        self._close_span()

    def install(self):
        """Wrap the layer functions of an imported `prefcheck` package."""
        from prefcheck import (axioms, catalog, cli, generate, intervals,
                               quadratic, relations, representation, spaces,
                               theorems, verdicts)

        places = _binding_index()
        jobs = []  # (owner, attribute, groups, span, probe, after)

        for name in INTERVAL_FUNCTIONS:
            groups = ["intervals"]
            if name in ("normalize", "analyze"):
                groups.append(f"intervals.{name}")
            jobs.append((intervals, name, groups, None, None, None))
        self._analyze = intervals.analyze

        for cls, carrier in ((spaces.Simplex, "simplex"),
                             (spaces.RealInterval, "interval"),
                             (spaces.SplitSpace, "split"),
                             (spaces.QuotientSpace, "quotient")):
            jobs.append((cls, "mix", [f"spaces.mix.{carrier}", "spaces.mix"],
                         None, None, None))
        jobs += [
            (spaces, "mix", ["spaces.mix"], None, None, None),
            (spaces.QuotientSpace, "canonical", ["spaces.canonical"], None, None, None),
            (spaces, "quotient", ["spaces.quotient"], "space.quotient", None, None),
            (spaces, "check_mixture_axioms", ["spaces.mixture_axioms"],
             "space_check.mixture_axioms", None, None),
            (spaces, "check_c1_c2", ["spaces.c1_c2"], "space_check.c1_c2", None, None),
            (spaces, "augment_points", ["spaces.augment_points"], None, None, None),
            (quadratic.RootTwoUnitInterval, "mix", ["quadratic.mix", "quadratic"],
             None, None, None),
            (quadratic.RootTwoUnitInterval, "contains", ["quadratic"], None, None, None),
            (quadratic, "quad_sign", ["quadratic"], None, None, None),
            (quadratic, "point_value", ["quadratic"], None, None, None),
        ]
        jobs += [(quadratic.QuadRat, m, ["quadratic"], None, None, None)
                 for m in QUADRATIC_METHODS]

        def segment_probe(rel, x, y, z):
            cache = rel._segment_cache
            return (x, y, z) in cache or (y, x, z) in cache

        def segment_after(args, _result):
            size = len(args[0]._segment_cache)
            if size > self.segment_cache_peak:
                self.segment_cache_peak = size

        jobs += [
            (relations.RelationModel, "segment", ["relations.segment"], None,
             segment_probe, segment_after),
            (relations.LabeledPartition, "mirrored", ["relations.mirrored"],
             None, None, None),
            (relations.MultiUtility, "classify_segment",
             ["relations.classify.multi_utility"], None, None, None),
            (relations.CatalogPiecewise, "classify_segment",
             ["relations.classify.catalog"], None, None, None),
            (relations.QuotientDerived, "classify_segment",
             ["relations.classify.quotient"], None, None, None),
            (relations, "compare", ["relations.compare"], None, None, None),
        ]
        jobs += [(cls, "compare", ["relations.compare"], None, None, None)
                 for cls in (relations.MultiUtility, relations.CatalogPiecewise,
                             relations.QuotientDerived, relations.PointwiseOnly)]

        def engine_after(args, _result):
            self.universe_points += len(args[0].points)

        jobs += [
            (axioms.AxiomEngine, "__init__", ["axioms.engine"], "engine", None,
             engine_after),
            (axioms.AxiomEngine, "compare", ["axioms.compare"], None,
             lambda engine, x, y: (x, y) in engine._cmp, None),
        ]
        for axiom in ORDER_AXIOMS + SECTION_AXIOMS:
            group = "axioms.order" if axiom in ORDER_AXIOMS else f"axioms.{axiom}"
            jobs.append((axioms.AxiomEngine, f"_check_{axiom}",
                         [group, "axioms.verdicts"], f"verdict.{axiom}", None, None))

        jobs += [
            (theorems, "run_harness", ["theorems.harness"], "harness", None, None),
            (representation, "calibrate", ["representation.calibrate"],
             "calibration.calibrate", None, None),
            (representation, "verify_representation", ["representation.verify"],
             "calibration.verify", None, None),
            (representation, "_calibrate_point", ["representation.points_valued"],
             None, None, None),
            (generate, "instance_universe", ["generate.instance_universe"],
             "generate.instance_universe", None, None),
            (generate, "_boundary_enrichment", ["generate.enrichment"], None, None, None),
            (generate, "soundness_violations", ["generate.soundness"], "instance",
             None, None),
            (catalog, "load_entry", ["catalog.load_entry"], "catalog.load_entry",
             None, None),
            (catalog, "run_entry", ["catalog.run_entry"], "instance", None, None),
            (cli, "_emit", ["cli.report"], "report", None, None),
            (catalog.CatalogReport, "to_json", ["cli.report"], None, None, None),
            (verdicts.AxiomVerdict, "to_json", ["cli.report"], None, None, None),
        ]
        jobs += [(cli, f"cmd_{c}", ["cli.command"], "command", None, None)
                 for c in ("axioms", "catalog", "fuzz")]

        for owner, attr, groups, span, probe, after in jobs:
            original = vars(owner)[attr]
            wrapper = self.wrap(original, groups, span, probe, after)
            for namespace, key in places.get(id(original), ()):
                _rebind(namespace, key, wrapper)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every layer metric of LAYER_METRICS except the tracing overhead."""
        out: dict[str, float] = {}
        for name, *_ in LAYER_METRICS:
            group, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.stat(group).calls
            elif kind == "busy_s":
                out[name] = self.stat(group).busy
            elif kind == "self_s":
                out[name] = self.stat(group).self_time
            elif kind == "hit_ratio":
                s = self.stat(group)
                out[name] = s.hits / s.calls if s.calls else 0.0
        info = self._analyze.cache_info()
        lookups = info.hits + info.misses
        out["intervals.analyze.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["relations.segment_cache.entries"] = self.segment_cache_peak
        out["spaces.universe.points"] = self.universe_points
        out["axioms.verdicts"] = self.stat("axioms.verdicts").calls
        out["representation.points_valued"] = self.stat("representation.points_valued").calls
        return out

    def write_spans(self, path) -> int:
        """Write spans as JSON lines (times relative to the pass start)."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as handle:
            for span_id, parent, name, label, start, end in self.spans:
                handle.write(json.dumps({
                    "trace": self.trace_id, "id": span_id, "parent": parent,
                    "name": name, "label": label, "start_s": start - origin,
                    "end_s": None if end is None else end - origin,
                }) + "\n")
        return len(self.spans)


def _binding_index() -> dict[int, list]:
    """id(value) -> every (namespace, key) under which a prefcheck module or
    class defined in one binds it."""
    places: dict[int, list] = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "prefcheck" or mod_name.startswith("prefcheck.")):
            continue
        for key, value in vars(module).items():
            places.setdefault(id(value), []).append((module, key))
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    places.setdefault(id(member), []).append((value, attr))
    return places


def _rebind(namespace, key, value):
    if isinstance(namespace, type):
        setattr(namespace, key, value)
    else:
        vars(namespace)[key] = value
