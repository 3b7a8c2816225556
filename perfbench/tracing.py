"""Span tracing of the program's public functions, from outside.

``Tracer.install`` replaces the public functions of the traced modules
(and a few hot methods) with wrappers, in every module namespace of the
package that holds a reference to them, so calls made inside the program
are seen as well.  Each wrapped call is one span: name, start, end and
parent.  Aggregates (calls, inclusive and self time) are kept for every
name; individual spans are kept in memory for the non-leaf layers, up to
a cap, and written out by ``write``.

A layer's self time is its span time minus the time covered by its child
spans; leaf calls that are not kept as spans still count as children.

The recursive walkers of ``expr`` (evaluate, differentiate, free_names,
to_text) call themselves through their module global, so their wrapper
sees every node: only the outermost call is a span; inner calls are
counted as nodes.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("expr", "manifold", "curvature", "symmetry", "obstruction",
                  "catalog", "cli")
# expression constructors: called per node during differentiation and
# parsing, they are the inside of the expr layer, not a boundary of it
UNTRACED = {"expr": {"add", "sub", "mul", "div", "pow_", "neg", "call"}}
RECURSIVE = {("expr", "evaluate"), ("expr", "differentiate"),
             ("expr", "free_names"), ("expr", "to_text")}
METHODS = {
    "manifold": {"ManifoldSpec": ("evaluate", "metric_eval", "metric_derivs",
                                  "field_eval", "field_derivs")},
    "curvature": {"ScalarDerivs": ("value", "gradient", "coordinate_hessian")},
}


def _point_key(args, kwargs):
    spec, p = args[0], args[1]
    return spec.name, tuple(np.round(np.asarray(p, dtype=float), 12))


def _scan_key(args, kwargs):
    spec, xname = args[0], args[1]
    return spec.name, xname, repr(args[2:]), repr(sorted(kwargs.items()))


# calls whose distinct arguments are counted per operation: the points of
# the per-point queries, and the scans (chart, field, grid) of scan_extrema
KEYED = {"manifold.ManifoldSpec.metric_derivs": _point_key,
         "manifold.ManifoldSpec.metric_eval": _point_key,
         "obstruction.scan_extrema": _scan_key}
LEAF_PREFIXES = ("expr.", "manifold.ManifoldSpec.", "curvature.ScalarDerivs.",
                 "manifold.riem_norm_sq", "manifold.causal_character")
SPAN_CAP = 100_000


class _Stat:
    __slots__ = ("calls", "total", "self_time", "nodes")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.nodes = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.keys: dict[str, set] = {n: set() for n in KEYED}
        self.key_counts = {n: 0 for n in KEYED}
        self._stack: list[list] = []      # [span id, start, child time]
        self._next_id = 1
        self._paused = 0
        self._origin = time.perf_counter()
        self._restore: list[tuple] = []

    # -- bookkeeping ---------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _enter(self):
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, st: _Stat, frame, keep: bool):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        st.calls += 1
        st.total += dur
        st.self_time += dur - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if keep:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[0], parent[0] if parent else 0, name,
                                   frame[1] - self._origin, end - self._origin))
            else:
                self.dropped_spans += 1

    @contextmanager
    def paused(self):
        """Calls made inside are neither counted nor timed."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def new_operation(self):
        """Distinct arguments are counted per operation."""
        for name, seen in self.keys.items():
            self.key_counts[name] += len(seen)
            seen.clear()

    def distinct(self, name: str) -> int:
        return self.key_counts[name] + len(self.keys[name])

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one traced name so far."""
        st = self.stats.get(name)
        return (st.calls, st.total) if st else (0, 0.0)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self._stat(name)
        keep = not name.startswith(LEAF_PREFIXES)
        keyfn, seen = KEYED.get(name), self.keys.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if keyfn is not None:
                seen.add(keyfn(args, kwargs))
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(name, st, frame, keep)

        return wrapper

    def _wrap_recursive(self, name: str, fn):
        st = self._stat(name)
        tracer = self
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] or tracer._paused:
                if depth[0]:
                    st.nodes += 1
                return fn(*args, **kwargs)
            st.nodes += 1
            depth[0] = 1
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0
                tracer._leave(name, st, frame, False)

        return wrapper

    def install(self, package):
        """Wrap the traced functions of ``package`` (the imported
        ``lorentzgeo``) in every module namespace that refers to them."""
        modules = {short: getattr(package, short) for short in TRACED_MODULES}
        replaced = {}
        for short, mod in modules.items():
            skip = UNTRACED.get(short, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if (short, attr) in RECURSIVE:
                    replaced[id(obj)] = (obj, self._wrap_recursive(name, obj))
                else:
                    replaced[id(obj)] = (obj, self._wrap(name, obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
                    self._restore.append((cls, meth, fn))
        namespaces = [package] + [getattr(package, s) for s in TRACED_MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._restore.append((ns, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------------

    def summary(self) -> dict:
        return {name: {"calls": st.calls, "nodes": st.nodes,
                       "total_ms": 1e3 * st.total, "self_ms": 1e3 * st.self_time}
                for name, st in sorted(self.stats.items()) if st.calls}

    def write(self, path, extra: dict):
        """Spans as JSON lines [id, parent, name, start_s, end_s] after a
        header line holding the aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            header = dict(extra, layers=self.summary(), spans_kept=len(self.spans),
                          spans_dropped=self.dropped_spans)
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
