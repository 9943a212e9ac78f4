"""Outside-in layer tracing: spans and counts recorded around cycindex calls.

The package is not edited. ``Tracer.install`` replaces each traced public
function by a wrapper in every cycindex module that holds it, which covers the
``from .x import y`` copies in ``cli``, ``grammar``, ``orbits`` and the rest;
``uninstall`` puts the originals back. Spans stay in memory. A layer's self
time is the duration of its spans minus the part covered by child spans.

Every count comes from call arguments and return values. Counts named in
``COMPUTED`` are formulas of the arguments, not work the program reported.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

from cycindex.cyclo import Cyclotomic
from cycindex.perms import PermGroup


# Count hooks: hook(tracer, bound call arguments by name, return value).

def _module_counts(tracer, a, result):
    tracer.counts["projector.dim_total"] += (a["n"] + 1) ** a["group"].degree


def _projector_counts(tracer, a, result):
    tracer.counts["projector.nnz_total"] += result.nnz


def _rank_counts(tracer, a, result):
    tracer.counts["projector.rank_total"] += result


def _enumerate_counts(tracer, a, result):
    tracer.counts["characters.enumerate_calls"] += 1
    tracer.counts["characters.assignments"] += result[0].order_m ** len(a["G"].generators)
    tracer.groups.add(a["G"])  # PermGroup hashes and compares its element set


def _derived_counts(tracer, a, result):
    tracer.counts["perms.commutators"] += a["G"].order ** 2


def _group_counts(tracer, a, result):
    tracer.counts["perms.elements_built"] += result.order


def _orbit_counts(tracer, a, result):
    tracer.counts["orbits.points_visited"] += (a["n"] + 1) ** a["W"].degree * a["W"].order
    tracer.counts["orbits.orbits_found"] += len(result.records)


def _specialize_counts(tracer, a, result):
    tracer.counts["polys.specialize_terms"] += len(result.terms)


def _run_counts(tracer, a, result):
    tracer.counts["cli.run_calls"] += 1


# (module, attribute, span name, count hook); "Class.method" names a method.
# A span's self time is reported as the per-layer metric "<span name>_s".
SPANS = (
    ("cycindex.cli", "run", "cli.self", _run_counts),
    ("cycindex.grammar", "parse_group", "grammar.parse_group", None),
    ("cycindex.grammar", "parse_character", "grammar.parse_character", None),
    ("cycindex.projector", "MonomialModule.__init__", "projector.module", _module_counts),
    ("cycindex.projector", "verify_basis_prop", "projector.verify", None),
    ("cycindex.projector", "build_projector", "projector.build", _projector_counts),
    ("cycindex.projector", "check_idempotent", "projector.idempotent", None),
    ("cycindex.projector", "check_annihilation", "projector.annihilation", None),
    ("cycindex.projector", "rank_of_columns", "projector.rank", _rank_counts),
    ("cycindex.characters", "enumerate_linear_characters", "characters.enumerate",
     _enumerate_counts),
    ("cycindex.characters", "sign_character", "characters.build", None),
    ("cycindex.characters", "product_character", "characters.build", None),
    ("cycindex.characters", "wreath_character", "characters.build", None),
    ("cycindex.characters", "kernel", "characters.build", None),
    ("cycindex.perms", "derived_subgroup", "perms.derived", _derived_counts),
    ("cycindex.perms", "group_closure", "perms.closure", _group_counts),
    ("cycindex.perms", "PermGroup.from_elements", "perms.closure", _group_counts),
    ("cycindex.perms", "direct_product_embed", "perms.closure", _group_counts),
    ("cycindex.orbits", "enumerate_orbits", "orbits.enumerate", _orbit_counts),
    ("cycindex.orbits", "weighted_sum_g", "orbits.weighted_sum", None),
    ("cycindex.orbits", "full_census", "orbits.census", None),
    ("cycindex.polys", "cycle_index", "polys.cycle_index", None),
    ("cycindex.polys", "specialize", "polys.specialize", _specialize_counts),
    ("cycindex.polys", "psum_mul", "polys.algebra", None),
    ("cycindex.polys", "plethysm_insert", "polys.algebra", None),
)

# Operator calls counted without spans: there are millions of them.
OPERATORS = (("__mul__", "cyclo.mul_calls"), ("__rmul__", "cyclo.mul_calls"),
             ("__add__", "cyclo.add_calls"), ("__radd__", "cyclo.add_calls"))

COMPUTED = {
    "projector.dim_total": "(n+1)^d per module",
    "characters.assignments": "m^#gens per enumeration",
    "perms.commutators": "|G|^2 per derived subgroup",
    "orbits.points_visited": "(n+1)^d * |W| per enumeration",
}

# Per-layer metrics in report order: (name, unit, better).
LAYER_METRICS = (
    ("projector.module_s", "s", "lower"),
    ("projector.build_s", "s", "lower"),
    ("projector.idempotent_s", "s", "lower"),
    ("projector.annihilation_s", "s", "lower"),
    ("projector.rank_s", "s", "lower"),
    ("projector.verify_s", "s", "lower"),
    ("projector.dim_total", "count", "lower"),
    ("projector.nnz_total", "count", "lower"),
    ("projector.rank_total", "count", "lower"),
    ("cyclo.mul_calls", "count", "lower"),
    ("cyclo.add_calls", "count", "lower"),
    ("characters.enumerate_s", "s", "lower"),
    ("characters.enumerate_calls", "count", "lower"),
    ("characters.enumerate_distinct", "count", "lower"),
    ("characters.useful_ratio", "ratio", "higher"),
    ("characters.assignments", "count", "lower"),
    ("characters.build_s", "s", "lower"),
    ("perms.derived_s", "s", "lower"),
    ("perms.commutators", "count", "lower"),
    ("perms.closure_s", "s", "lower"),
    ("perms.elements_built", "count", "lower"),
    ("orbits.enumerate_s", "s", "lower"),
    ("orbits.points_visited", "count", "lower"),
    ("orbits.orbits_found", "count", "lower"),
    ("orbits.weighted_sum_s", "s", "lower"),
    ("orbits.census_s", "s", "lower"),
    ("polys.cycle_index_s", "s", "lower"),
    ("polys.specialize_s", "s", "lower"),
    ("polys.specialize_terms", "count", "lower"),
    ("polys.algebra_s", "s", "lower"),
    ("grammar.parse_group_s", "s", "lower"),
    ("grammar.parse_character_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.run_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans and counts while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (job, span id, parent id, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self.groups: set[PermGroup] = set()  # distinct groups enumerated
        self._restore: list[tuple] = []

    def _span(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.self_s[name] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((self.job, span_id, parent, name, start, end))
            if hook is not None:
                hook(self, inspect.signature(fn).bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "cycindex" or name.startswith("cycindex.")]
        for module_name, attr, name, hook in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._replace(owner, attr, staticmethod(self._span(raw.__func__, name, hook)))
                else:
                    self._replace(owner, attr, self._span(raw, name, hook))
                continue
            fn = getattr(owner, attr)
            wrapper = self._span(fn, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, wrapper)
        for attr, key in OPERATORS:
            self._replace(Cyclotomic, attr, self._counter(Cyclotomic.__dict__[attr], key))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def report(self) -> dict[str, float]:
        """Self seconds and counts keyed by per-layer metric name (no overhead)."""
        out: dict[str, float] = {}
        for name, unit, _ in LAYER_METRICS:
            if unit == "s" and name != "trace.overhead_s":
                out[name] = self.self_s[name.removesuffix("_s")]
            elif unit == "count":
                out[name] = self.counts[name]
        calls = out["characters.enumerate_calls"]
        out["characters.enumerate_distinct"] = len(self.groups)
        out["characters.useful_ratio"] = len(self.groups) / calls if calls else 0.0
        return out
