"""Span tracer that wraps the public functions of each wgauss layer.

``Tracer.install()`` replaces every public module-level function of a layer
module, at every ``wgauss`` module that imported it by name, and every public
method of the layer's classes, with a wrapper that records a span: name,
start, end, parent span and trial id.  Spans stay in memory; ``dump`` writes
them out once and ``summary`` folds them into per-name call counts, inclusive
time and self time (duration minus the time covered by direct children).

Element arithmetic (``algebra.fields``, the ``Poly`` class, points, sparse
multivariate helpers) is not wrapped: it runs millions of times per rep and a
wrapper there would measure the wrapper.  Its cost shows as self time of the
layer function that called it.
"""

import importlib
import inspect
import json
import sys
from time import perf_counter_ns

# module -> layer name used in span and metric names
LAYERS = {
    "wgauss.algebra.poly": "algebra.poly",
    "wgauss.algebra.linalg": "algebra.linalg",
    "wgauss.curves": "curves",
    "wgauss.divisors": "divisors",
    "wgauss.spans": "spans",
    "wgauss.gauss": "gauss",
    "wgauss.linsys": "linsys",
    "wgauss.harness": "harness",
}

# hot helpers left unwrapped: whole classes, except the methods in _KEEP,
# and module functions by prefix
_SKIP_CLASSES = {
    ("algebra.poly", "Poly"),
    ("curves", "HomForm"),
    ("curves", "HyperellipticPoint"),
    ("curves", "ProjectivePoint"),
    ("divisors", "Divisor"),
    ("divisors", "HyperellipticForm"),
    ("harness", "ExperimentConfig"),
}
_KEEP = {("divisors", "Divisor", "subdivisors")}
_SKIP_PREFIXES = {"curves": ("mp_",)}

_RUNS = ("run_fiber_census", "run_locus_census", "run_reconstruct")


def _skipped(layer, cls, name):
    if cls is None:
        return name.startswith(_SKIP_PREFIXES.get(layer, ()))
    return (layer, cls) in _SKIP_CLASSES and (layer, cls, name) not in _KEEP


class Tracer:
    def __init__(self):
        self.names = []            # name id -> "layer.[Class.]func"
        self.keys = []             # name id -> "layer.func"
        self.layers = []           # name id -> layer
        self.spans = []            # (name id, start ns, end ns, parent, trial)
        self.stack = []
        self.counts = {}           # extra counters, e.g. "curves.points_over.points"
        self.trial = -1
        self.trial_ms = []
        self._trial_start = None
        self._run_start = None
        self._sampled = False

    # -- trials ---------------------------------------------------------
    # A trial starts at each sample_smooth_divisor call and ends at the next
    # one or when the harness call returns; a harness call that samples
    # nothing (a reconstruction) is one trial.
    def _run_enter(self, now):
        self.trial += 1
        self._run_start = now
        self._sampled = False

    def _sample_enter(self, now):
        self._close_trial(now)
        self.trial += 1
        self._trial_start = now
        self._sampled = True

    def _run_exit(self, now):
        if self._sampled:
            self._close_trial(now)
        else:
            self.trial_ms.append((now - self._run_start) / 1e6)

    def _close_trial(self, now):
        if self._trial_start is not None:
            self.trial_ms.append((now - self._trial_start) / 1e6)
            self._trial_start = None

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers -------------------------------------------------------
    def _wrap(self, layer, cls, short, fn):
        """Span-recording wrapper of ``fn``; spans aggregate under the key
        "layer.function" (class dropped, so the three curve models' methods
        merge)."""
        key = f"{layer}.{short}"
        if inspect.isgeneratorfunction(fn):
            key = f"{key}.yielded"

            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self._count(key)
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        nid = len(self.names)
        self.names.append(f"{layer}.{cls}.{short}" if cls else key)
        self.keys.append(key)
        self.layers.append(layer)
        spans, stack = self.spans, self.stack
        is_run = layer == "harness" and short in _RUNS
        is_sample = key == "harness.sample_smooth_divisor"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            if is_sample:
                self._sample_enter(start)
            elif is_run:
                self._run_enter(start)
            trial = self.trial
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, start, end, parent, trial)
                if is_run:
                    self._run_exit(end)
            self._observe(short, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, short, result):
        if short == "points_over":
            self._count("curves.points_over.points", len(result[1]))
        elif short == "roots_in_splitting_extension":
            self._count(f"algebra.poly.roots_in_splitting_extension.ext_degree."
                        f"{result[0].degree}")

    def install(self):
        """Wrap every public function and method of the layer modules."""
        replaced = {}
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    # aliases (harness.cmd_*) share the original's wrapper
                    if obj not in replaced and not _skipped(layer, None, obj.__name__):
                        replaced[obj] = self._wrap(layer, None, obj.__name__, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if (attr.startswith("_") or not inspect.isfunction(fn)
                                or _skipped(layer, name, attr)):
                            continue
                        setattr(obj, attr, self._wrap(layer, name, attr, fn))
        # rebind at every import site, including the defining module
        for modname, mod in list(sys.modules.items()):
            if modname != "wgauss" and not modname.startswith("wgauss."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    # -- output ---------------------------------------------------------
    def summary(self):
        """Per "layer.function": calls, inclusive seconds (outermost calls
        only, so recursion is not counted twice) and self seconds; self
        seconds per layer; call counts per (function, caller) pair; trial
        latencies and counters."""
        spans, keys, layers = self.spans, self.keys, self.layers
        child = [0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_ns, layer_ns, edges = {}, {}, {}, {}, {}
        for i, (nid, start, end, parent, _) in enumerate(spans):
            key, dur = keys[nid], end - start
            calls[key] = calls.get(key, 0) + 1
            self_ns[key] = self_ns.get(key, 0) + dur - child[i]
            layer_ns[layers[nid]] = layer_ns.get(layers[nid], 0) + dur - child[i]
            p = parent
            while p >= 0 and keys[spans[p][0]] != key:
                p = spans[p][3]
            if p < 0:
                incl[key] = incl.get(key, 0) + dur
            if parent >= 0:
                edge = (key, keys[spans[parent][0]])
                edges[edge] = edges.get(edge, 0) + 1
        return {
            "calls": calls,
            "incl_s": {k: v / 1e9 for k, v in incl.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "layer_self_s": {k: v / 1e9 for k, v in layer_ns.items()},
            "parent_calls": [[c, p, n] for (c, p), n in sorted(edges.items())],
            "counts": dict(self.counts),
            "trial_ms": self.trial_ms,
            "trials": len(self.trial_ms),
            "spans": len(spans),
        }

    def dump(self, path):
        """Write the span table as JSON lines: one header, one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent", "trial"]}) + "\n")
            for nid, start, end, parent, trial in self.spans:
                fh.write(f"[{nid},{start},{end},{parent},{trial}]\n")
