"""Outside-in tracing of the tricirc layers for the benchmark's traced run.

:func:`install` wraps, from outside the package, every public function of
the traced modules plus ``BiPoly.__mul__`` (traced as ``bipoly.mul``).  It
rebinds every module-level reference to those functions in every loaded
``tricirc`` module, including values of module-level dicts, because names
are imported by value: ``phi.BACKENDS`` holds its own ``det_bareiss``,
``circulant`` imports ``exact_div`` and ``permanent`` imports
``cycle_cover_counts``.  :func:`uninstall` restores the originals.

Most functions record one span per call: name, start, end, parent span
and job.  Functions in ``KERNELS`` run thousands of times per job, so
they are rolled up per parent span into a call count and busy time
instead.  A rollup whose call happened inside another kernel is marked
nested and is not subtracted from the parent's self time, since the outer
kernel's time already covers it.

Spans stay in memory and :meth:`Tracer.dump` writes them to a JSON-lines
file when the run ends; :func:`summarize` reads that file back and
computes per-layer calls, busy time, self time and the longest call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from time import perf_counter

MODULES = ("cli", "phi", "circulant", "bipoly", "permanent", "permclass", "verify")

#: leaf functions called thousands of times per job: rolled up, not spanned
KERNELS = frozenset({
    "bipoly.mul",
    "bipoly.exact_div",
    "circulant.window_width",
    "phi.binomial_power",
    "phi.default_backend",
    "phi.support",
    "phi.trial_division",
    "permclass.build_path",
    "permclass.construct_witness",
    "permclass.cycle_from_word",
    "permclass.cyclic_order",
    "permclass.displacement_profile",
    "permclass.path_bound_check",
    "permclass.predict_structure",
    "permclass.reduce_1p",
    "permclass.rotate",
})


class Tracer:
    """In-memory spans, kernel rollups and counters of one traced run."""

    def __init__(self) -> None:
        self.job = -1
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job)
        self.rollups: dict[tuple, list] = {}  # (parent, name, nested) -> [calls, busy]
        self.counters: dict[str, int] = {
            "bipoly.mul.terms_out": 0,
            "bipoly.peak_coeff_bits": 0,
            "circulant.cycle_cover_counts.hits": 0,
            "circulant.cycle_cover_counts.misses": 0,
        }
        self._stack = [0]
        self._depth = 0  # > 0 while a kernel runs
        self._ids = itertools.count(1)

    def kernel(self, name, fn, post=None):
        def wrapper(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._depth -= 1
                key = (self._stack[-1], name, self._depth > 0)
                acc = self.rollups.get(key)
                if acc is None:
                    self.rollups[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
            if post is not None:
                post(result)
            return result

        return functools.wraps(fn)(wrapper)

    def span(self, name, fn, namer=None):
        as_kernel = self.kernel(name, fn)

        def wrapper(*args, **kwargs):
            if self._depth:
                return as_kernel(*args, **kwargs)
            sid = next(self._ids)
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                label = namer(args) if namer else name
                self.spans.append((sid, label, t0, t1, parent, self.job))

        return functools.wraps(fn)(wrapper)

    def count_product(self, poly) -> None:
        """Counters of one ``BiPoly.__mul__`` result (terms, coefficient bits)."""
        terms = getattr(poly, "terms", None)
        if terms is None:  # NotImplemented
            return
        c = self.counters
        c["bipoly.mul.terms_out"] += len(terms)
        if terms:
            bits = max(abs(v) for v in terms.values()).bit_length()
            if bits > c["bipoly.peak_coeff_bits"]:
                c["bipoly.peak_coeff_bits"] = bits

    def count_cache(self, info) -> None:
        """Add one job's ``cycle_cover_counts.cache_info()`` to the counters."""
        self.counters["circulant.cycle_cover_counts.hits"] += info.hits
        self.counters["circulant.cycle_cover_counts.misses"] += info.misses

    def dump(self, path, meta: dict) -> None:
        """Write the header, every span and every rollup as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "counters": self.counters}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(["s", *s]) + "\n")
            for (parent, name, nested), (calls, busy) in self.rollups.items():
                fh.write(json.dumps(["r", parent, name, int(nested), calls, busy]) + "\n")


def _traceable(mod, attr, obj) -> bool:
    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def _run_case_name(args) -> str:
    return f"verify.run_case.{args[0][0]}"


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the traced functions and rebind every reference; returns the undo list."""
    wrapped = {}  # id(original) -> (original, wrapper)
    for short in MODULES:
        mod = importlib.import_module(f"tricirc.{short}")
        for attr, obj in vars(mod).items():
            if not _traceable(mod, attr, obj):
                continue
            name = f"{short}.{attr}"
            if name in KERNELS:
                w = tracer.kernel(name, obj)
            else:
                w = tracer.span(name, obj, _run_case_name if name == "verify.run_case" else None)
            for extra in ("cache_info", "cache_clear"):
                if hasattr(obj, extra):
                    setattr(w, extra, getattr(obj, extra))
            wrapped[id(obj)] = (obj, w)

    bipoly = importlib.import_module("tricirc.bipoly")
    mul = bipoly.BiPoly.__mul__
    undo = [(bipoly.BiPoly, "__mul__", mul, False)]
    bipoly.BiPoly.__mul__ = tracer.kernel("bipoly.mul", mul, tracer.count_product)

    def swap(value):
        hit = wrapped.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for modname, mod in list(sys.modules.items()):
        if modname != "tricirc" and not modname.startswith("tricirc."):
            continue
        for attr, value in list(vars(mod).items()):
            w = swap(value)
            if w is not None:
                setattr(mod, attr, w)
                undo.append((mod, attr, value, False))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    w = swap(item)
                    if w is not None:
                        value[key] = w
                        undo.append((value, key, item, True))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for target, key, original, is_dict in reversed(undo):
        if is_dict:
            target[key] = original
        else:
            setattr(target, key, original)


def summarize(path) -> tuple[dict, dict]:
    """Read a dump back: (counters, name -> calls/busy_s/self_s/max_s)."""
    spans = []
    covered: dict[int, float] = {}  # span id -> time covered by direct children
    agg: dict[str, dict] = {}

    def entry(name):
        return agg.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0})

    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        for line in fh:
            rec = json.loads(line)
            if rec[0] == "s":
                _, sid, name, t0, t1, parent, _job = rec
                spans.append((sid, name, t1 - t0))
                covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
            else:
                _, parent, name, nested, calls, busy = rec
                e = entry(name)
                e["calls"] += calls
                e["busy_s"] += busy
                if not nested:
                    covered[parent] = covered.get(parent, 0.0) + busy
    for sid, name, dur in spans:
        e = entry(name)
        e["calls"] += 1
        e["busy_s"] += dur
        e["self_s"] += dur - covered.get(sid, 0.0)
        e["max_s"] = max(e["max_s"], dur)
    return head["counters"], agg
