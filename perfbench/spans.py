"""Span tracing of the laxflow layers from outside the program.

`Tracer.install` wraps every public function of the laxflow modules and puts
the wrapper at each name under which a laxflow module (or the package) holds
that function, which is where its callers look it up: `run_scheme` calls
`laxflow.scheme.apply_group_many`, `PropagatorCache.get_or_build` calls
`laxflow.propagator.eig_hermitian`, the CLI calls `laxflow.cli.write_csv`.

Spans stay in memory: name, start, end, parent span and the operation they
belong to. A span opened in a worker thread with no open span of its own
(the diagnostics thread pool) takes as parent the innermost span open in the
thread that runs the operation. `layer_metrics` turns the spans of one
operation into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

MODULES = ("spectral", "lax", "propagator", "scheme", "diagnostics", "cli")

SUITES = (
    "diagnostics.run_bound_suite",
    "diagnostics.run_resolvent_convergence",
    "diagnostics.run_propagator_sweep",
)

MIB = float(1 << 20)


def _apply_flops(args, result):
    # the dense group application Q (phases * (Q^H V)): two complex M x M by
    # M x T products, 8 real flops per complex multiply-add; computed from
    # the array shapes, not counted by the hardware
    m, t = args[3].shape
    return {"gflop": 16.0 * m * m * t / 1e9}


def _scheme_counters(args, result):
    cache = result.cache
    live = getattr(cache, "_store", {}).values()
    nbytes = sum(e.eigenvalues.nbytes + e.eigenvectors.nbytes for e in live)
    return {"decompositions": result.decompositions, "cache_hits": cache.hits,
            "cache_mib": nbytes / MIB}


def _csv_bytes(args, result):
    return {"mib": os.path.getsize(args[0]) / MIB}


# extra numbers recorded on a span, from the call's arguments and result
ANNOTATE = {
    "propagator.apply_group_many": _apply_flops,
    "scheme.run_scheme": _scheme_counters,
    "cli.write_csv": _csv_bytes,
}


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "extra")

    def __init__(self, id, name, parent, op, start):
        self.id, self.name, self.parent, self.op, self.start = id, name, parent, op, start
        self.end = None
        self.extra = {}

    def as_list(self):
        return [self.id, self.name, self.parent, self.op, self.start, self.end, self.extra]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # index of the operation being traced; None = off
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stack = []  # open spans of the thread running the operation

    def install(self):
        """Wrap the public functions of every laxflow module where they are looked up."""
        mods = [importlib.import_module("laxflow")]
        mods += [importlib.import_module(f"laxflow.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods[1:]):
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def begin_op(self, index):
        self._op_stack = self._stack()
        self.op = index

    def end_op(self):
        self.op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            outer = stack or self._op_stack
            with self._lock:
                span = Span(len(self.spans), name, outer[-1].id if outer else None, op,
                            time.perf_counter())
                self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.extra = annotate(args, result)
            return result

        return traced


def _union(intervals):
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans):
    """Per-layer metrics of one operation from its closed spans."""
    by_name, children = {}, {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def total(name, key=None):
        group = by_name.get(name, [])
        if key is None:
            return sum(s.end - s.start for s in group)
        return sum(s.extra.get(key, 0.0) for s in group)

    def calls(*names):
        return sum(len(by_name.get(n, [])) for n in names)

    def self_time(name, separate=()):
        # time in the span not covered by a span of another layer or of a
        # function with its own metric; spans of the same layer count as self
        layer = name.split(".")[0] + "."

        def covered(span):
            for c in children.get(span.id, []):
                if c.name.startswith(layer) and c.name not in separate:
                    yield from covered(c)
                else:
                    yield c.start, c.end

        return sum(s.end - s.start - _union(covered(s)) for s in by_name.get(name, []))

    suites = [(s.start, s.end) for n in SUITES for s in by_name.get(n, [])]
    apply_s = total("propagator.apply_group_many")
    apply_gflop = total("propagator.apply_group_many", "gflop")
    return {
        "scheme.run_scheme.s": total("scheme.run_scheme"),
        "scheme.run_scheme.self_s": self_time("scheme.run_scheme"),
        "propagator.apply_group_many.s": apply_s,
        "propagator.apply_group_many.calls": calls("propagator.apply_group_many"),
        "propagator.apply_group_many.gflop": apply_gflop,
        "propagator.apply_group_many.gflop_per_s": apply_gflop / apply_s if apply_s else 0.0,
        "propagator.eig_hermitian.s": total("propagator.eig_hermitian"),
        "propagator.eig_hermitian.calls": calls("propagator.eig_hermitian"),
        "propagator.decompositions": total("scheme.run_scheme", "decompositions"),
        "propagator.cache_hits": total("scheme.run_scheme", "cache_hits"),
        "propagator.cache_mib": total("scheme.run_scheme", "cache_mib"),
        "propagator.find_kappa_zero.s": total("propagator.find_kappa_zero"),
        "lax.build.s": total("lax.build_bo_lax") + total("lax.build_ccm_lax"),
        "lax.build.calls": calls("lax.build_bo_lax", "lax.build_ccm_lax"),
        "spectral.analyze_profile.s": total("spectral.analyze_profile"),
        "spectral.synthesize.s": total("spectral.synthesize"),
        "spectral.synthesize.calls": calls("spectral.synthesize"),
        "diagnostics.run_bound_suite.s": total(SUITES[0]),
        "diagnostics.run_resolvent_convergence.s": total(SUITES[1]),
        "diagnostics.run_propagator_sweep.s": total(SUITES[2]),
        "diagnostics.pool_overlap":
            sum(e - s for s, e in suites) / _union(suites) if suites else 0.0,
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_time("cli.main", ("cli.write_csv", "cli.write_manifest")),
        "cli.write_csv.s": total("cli.write_csv"),
        "cli.write_csv.mib": total("cli.write_csv", "mib"),
        "cli.write_manifest.s": total("cli.write_manifest"),
    }
