"""In-memory span tracing of skeinlab, installed from outside the package.

Each traced function is replaced, at the attribute where its caller looks it
up, by a wrapper that records a span (name, start, end, parent) in a list.
Nothing under src/ knows about the tracer; an untraced run never imports
this module's wrappers into the program.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# (metric prefix, owner path, attribute, extra count taken from (args, result)).
# The owner is the module or class whose attribute the caller reads: words'
# cyclic_key is called as a global of trace_engine, rref_mod_p as a global of
# _modlin, sample_representation as a global of charvar, and so on.  Metric
# names start with a letter, so _modlin's metrics are named modlin.*.
WRAPS = (
    ("words.cyclic_key", "trace_engine", "cyclic_key", None),
    ("trace_engine.derive_rule_k4", "trace_engine", "derive_rule_k4", None),
    ("trace_engine.reduce", "trace_engine.TraceEngine", "reduce", None),
    ("exactpoly.Poly.mul", "exactpoly.Poly", "__mul__", "terms_out"),
    ("exactpoly.Poly.mul", "exactpoly.Poly", "__rmul__", "terms_out"),
    ("exactpoly.LaurentPoly.mul", "exactpoly.LaurentPoly", "__mul__", "terms_out"),
    ("exactpoly.LaurentPoly.mul", "exactpoly.LaurentPoly", "__rmul__", "terms_out"),
    ("exactpoly.poly_divide", "charvar", "poly_divide", None),
    ("skein.abelian_from_vector", "skein", "abelian_from_vector", None),
    ("skein.multiply", "skein", "multiply", None),
    ("skein.to_laurent", "skein", "to_laurent", "terms_out"),
    ("oracle.sample_representation", "charvar", "sample_representation", None),
    ("charvar._monomial_matrix_mod_p", "charvar", "_monomial_matrix_mod_p", None),
    ("charvar._certified_zero", "charvar", "_certified_zero", None),
    ("charvar.harvest_relations", "charvar", "harvest_relations", None),
    ("charvar.tangent_dim_at_trivial", "charvar", "tangent_dim_at_trivial", None),
    ("charvar.two_bridge_charpoly", "charvar", "two_bridge_charpoly", None),
    ("charvar.two_bridge_numerator", "charvar", "two_bridge_numerator", None),
    ("charvar.is_square_free", "charvar", "is_square_free", None),
    ("modlin.rref_mod_p", "_modlin", "rref_mod_p", "cells"),
    ("modlin.nullspace_mod_p", "_modlin", "nullspace_mod_p", None),
    ("modlin.primes_covering", "_modlin", "primes_covering", "primes"),
    ("modlin.rational_reconstruct", "_modlin", "rational_reconstruct", None),
)

# Functions that call other traced functions, so their self time differs
# from their inclusive time.
HAS_TRACED_CALLEES = (
    "trace_engine.reduce",
    "exactpoly.poly_divide",
    "skein.abelian_from_vector",
    "skein.multiply",
    "skein.to_laurent",
    "charvar._certified_zero",
    "charvar.harvest_relations",
    "charvar.two_bridge_charpoly",
    "charvar.two_bridge_numerator",
    "modlin.nullspace_mod_p",
)

RULES = (
    "r1_cayley_hamilton",
    "r2_inverse",
    "r3_repeat",
    "r4_sort",
    "r5_size4_rule",
)

# Inclusive time of the outermost reduce calls is the cold reduction time.
RENAMED = {"trace_engine.reduce.s": "trace_engine.reduce.cold_s"}

_EXTRA = {
    "terms_out": lambda args, out: len(out.terms),
    "cells": lambda args, out: args[0].shape[0] * args[0].shape[1],
    "primes": lambda args, out: len(out),
}


def _unit(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit, in order."""
    names: list[str] = []
    for prefix, _, _, extra in WRAPS:
        for metric in (f"{prefix}.calls", f"{prefix}.s"):
            if metric not in names:
                names.append(metric)
        if prefix in HAS_TRACED_CALLEES and f"{prefix}.self_s" not in names:
            names.append(f"{prefix}.self_s")
        if extra and f"{prefix}.{extra}" not in names:
            names.append(f"{prefix}.{extra}")
    names = [RENAMED.get(n, n) for n in names]
    names += [
        "trace_engine.reduce.warm_us",
        "trace_engine.memo.hits",
        "trace_engine.memo.entries",
    ]
    names += [f"trace_engine.rule.{r}" for r in RULES]
    names += ["trace.spans", "trace.overhead_s"]
    return [(n, _unit(n)) for n in names]


class Tracer:
    """Span recorder; install() patches skeinlab, restore() undoes it."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, outermost flag].
        self.spans: list[list] = []
        self.extras: Counter[str] = Counter()
        self._stack: list[int] = []
        self._depth: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn, extra: str | None):
        spans, stack, depth, extras = self.spans, self._stack, self._depth, self.extras
        count = _EXTRA[extra] if extra else None
        key = f"{name}.{extra}"

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                depth[name] -= 1
                stack.pop()
            if count is not None:
                extras[key] += count(args, out)
            return out

        return traced

    def install(self) -> None:
        import importlib

        for name, owner_path, attr, extra in WRAPS:
            module_name, _, cls_name = owner_path.partition(".")
            owner = importlib.import_module(f"skeinlab.{module_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
            else:
                fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(name, fn, extra))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span, to split spans into phases."""
        return len(self.spans)

    def summary(self, start: int = 0, stop: int | None = None) -> dict[str, float]:
        """calls, inclusive time (.s) and self time (.self_s) per span name.

        Inclusive time counts only outermost calls, so a recursive function
        is not counted twice; self time subtracts the time covered by direct
        child spans.
        """
        spans = self.spans[start:stop]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= start:
                child_time[parent - start] += t1 - t0
        out: Counter[str] = Counter()
        for i, (name, t0, t1, _, outer) in enumerate(spans):
            out[f"{name}.calls"] += 1
            if outer:
                out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - child_time[i]
        out["trace.spans"] = len(spans)
        return {RENAMED.get(k, k): v for k, v in out.items()}
