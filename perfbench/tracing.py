"""Spans around wildmckay's public functions, installed from outside src/.

`install` wraps every public function and method of each package module
(the names in its `__all__`; for classes, their public methods and the
arithmetic, comparison and constructor dunders) and rebinds the wrapper
wherever the original is bound, including the names `wildmckay.cli` and
other modules imported with `from .x import y`.

A wrapper opens a span only when it is entered from another layer, so a
layer calling itself records nothing and its inner time stays in the outer
span.  Spans are kept in memory as [name, layer, start, end, parent, op]
and written out at the end.  A layer's self time is the duration of its
spans minus the part covered by their child spans.  Properties and
private helpers are not wrapped: their time counts to the calling span.

Counters sit at the same boundaries: QFrac constructions and the ones whose
denominator needs the polynomial gcd, series exp/log calls, algebras
enumerated, stringy result size, and padic solutions and points tested.
Points tested are computed from the engines' documented work (the box
p^(m n), or p^n candidates per frontier point per lifting level), not
counted inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from fractions import Fraction

PACKAGE = "wildmckay"
LAYERS = ("qexpr", "series", "partitions", "padic", "stringy", "localfields", "massformulas", "mckay", "cli")
SPANNED_DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__", "__hash__", "__str__",
}
SELF_TIME_LAYERS = ("qexpr", "series", "massformulas", "partitions", "localfields", "mckay", "stringy", "cli")
PADIC_LIFT = ("smooth_measure_check",)
PADIC_BOX = ("count_points_mod", "null_set_fraction")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.layers: list[str] = []
        self.counts: Counter = Counter()
        self.op = 0

    def start_op(self, op: int) -> None:
        self.op = op

    def wrap(self, fn, layer: str, name: str, hook=None, boundary_hook=None):
        spans, stack, layers, counts = self.spans, self.stack, self.layers, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if layers and layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1, self.op])
                stack.append(index)
                layers.append(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[index][3] = clock()
                    stack.pop()
                    layers.pop()
                if boundary_hook is not None:
                    boundary_hook(counts, result, args, kwargs)
            if hook is not None:
                hook(counts, result, args, kwargs)
            return result

        return functools.update_wrapper(wrapper, fn)

    def self_times(self, scale) -> tuple[Counter, Counter]:
        """Self seconds per layer and per span name, each span scaled by
        `scale(op)` into the reference seconds of its op."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_layer, by_name = Counter(), Counter()
        for (name, layer, start, end, parent, op), child in zip(self.spans, covered):
            own = (end - start - child) * scale(op)
            by_layer[layer] += own
            by_name[name] += own
        return by_layer, by_name

    def layer_metrics(self, ops: int, scale) -> dict:
        by_layer, by_name = self.self_times(scale)
        c = self.counts
        metrics = {f"{layer}.self_s": (by_layer[layer] / ops, "s/op") for layer in SELF_TIME_LAYERS}
        built = c["qexpr.qfrac_built"]
        metrics["qexpr.qfrac_built"] = (built / ops, "count/op")
        metrics["qexpr.qfrac_poly_den_share"] = (c["qexpr.qfrac_poly_den"] / built if built else 0.0, "ratio")
        for key in ("series.exp_calls", "series.log_calls", "localfields.algebras_enumerated",
                    "stringy.result_terms", "padic.solutions_found", "padic.points_tested_computed"):
            metrics[key] = (c[key] / ops, "count/op")
        metrics["padic.lift_self_s"] = (sum(by_name[f"padic.{n}"] for n in PADIC_LIFT) / ops, "s/op")
        metrics["padic.box_self_s"] = (sum(by_name[f"padic.{n}"] for n in PADIC_BOX) / ops, "s/op")
        tested = c["padic.points_tested_computed"]
        metrics["padic.useful_ratio"] = (c["padic.solutions_found"] / tested if tested else 0.0, "ratio")
        return metrics

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "layer", "start", "end", "parent", "op"],
                       "counts": dict(self.counts), "spans": self.spans}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Counter hooks: (counts, result, args, kwargs)
# ---------------------------------------------------------------------------


def _count_qfrac(counts, result, args, kwargs):
    counts["qexpr.qfrac_built"] += 1


def _counter(key):
    def hook(counts, result, args, kwargs):
        counts[key] += 1
    return hook


def _count_algebras(counts, result, args, kwargs):
    counts["localfields.algebras_enumerated"] += len(result)


def _count_terms(counts, result, args, kwargs):
    if hasattr(result, "num"):
        counts["stringy.result_terms"] += len(result.num.terms) + len(result.den.terms)


def _padic_hook(fn):
    signature = inspect.signature(fn)

    def hook(counts, result, args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        system = bound["system"]
        p, n = system.p, system.num_vars
        if fn.__name__ == "smooth_measure_check":
            found = sum(result.counts)
            tested = p**n * (1 + sum(result.counts[:-1]))
        else:
            box = p ** (bound["m"] * n)
            found = result.count if fn.__name__ == "count_points_mod" else int(Fraction(result) * box)
            tested = box
        counts["padic.solutions_found"] += found
        counts["padic.points_tested_computed"] += tested
    return hook


HOOKS = {
    "qexpr.QFrac.__init__": (_count_qfrac, None),
    "series.TruncatedSeries.exp": (_counter("series.exp_calls"), None),
    "series.TruncatedSeries.log": (_counter("series.log_calls"), None),
    "localfields.enumerate_tame_etale_algebras": (_count_algebras, None),
    "stringy.stringy_count_snc": (None, _count_terms),
    "stringy.stringy_point_contribution": (None, _count_terms),
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _public_methods(cls):
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr not in SPANNED_DUNDERS:
            continue
        if isinstance(value, staticmethod):
            yield attr, value.__func__, staticmethod
        elif inspect.isfunction(value):
            yield attr, value, None


def install(modules) -> Tracer:
    """Wrap the public API of every imported wildmckay module; returns the tracer."""
    tracer = Tracer()
    package = {name: mod for name, mod in modules.items() if name.startswith(PACKAGE + ".")}
    replaced: dict[int, object] = {}

    def wrapped(fn, layer, name):
        if id(fn) not in replaced:
            hook, boundary_hook = HOOKS.get(name, (None, None))
            if layer == "padic" and fn.__name__ in PADIC_LIFT + PADIC_BOX:
                boundary_hook = _padic_hook(fn)
            replaced[id(fn)] = tracer.wrap(fn, layer, name, hook, boundary_hook)
        return replaced[id(fn)]

    for modname, module in package.items():
        layer = modname.split(".", 1)[1]
        if layer not in LAYERS:
            continue
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isclass(obj):
                if issubclass(obj, BaseException) or obj.__module__ != modname:
                    continue
                for method, fn, kind in _public_methods(obj):
                    wrapper = wrapped(fn, layer, f"{layer}.{obj.__name__}.{method}")
                    setattr(obj, method, kind(wrapper) if kind else wrapper)
            elif callable(obj) and not inspect.isgeneratorfunction(obj):
                if getattr(obj, "__module__", None) != modname:
                    continue
                wrapped(obj, layer, f"{layer}.{attr}")

    # Rebind module-level names everywhere the originals were imported.
    for module in [modules[PACKAGE], *package.values()]:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])

    # Canonicalisation is private; count the gcd path without a span.
    qexpr = package[f"{PACKAGE}.qexpr"]
    canonical = qexpr._canonical_pair

    def counted_canonical(num, den):
        if len(den.terms) > 1:
            tracer.counts["qexpr.qfrac_poly_den"] += 1
        return canonical(num, den)

    qexpr._canonical_pair = counted_canonical
    return tracer
