"""In-memory span tracing around the public functions of maxsurf.

`Tracer.installed()` replaces every public function of the traced modules
by a wrapper, under every name the package's modules bind it to (so
`cli.solve_bjorling` is wrapped as well as `bjorling.solve_bjorling`), and
puts the originals back when the block ends.  Nothing under `src/` is
edited.  The far-field quadrature calls the Lorentz algebra about 1500
times per point, so its wrappers only count calls; every other wrapper
records a span:

    [name, start, end, parent span, op id, thread id, counts]

A span opened on a worker thread of the sampling pool has no open span of
its own thread, so its parent is the innermost open span of the client
thread, which is blocked waiting for the pool.  Self time therefore has
to subtract the *union* of the child intervals: pool threads overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import Counter

import numpy as np

import maxsurf
from maxsurf import (bjorling, catalog, cli, frames, lorentz, motions,
                     verify, weierstrass)

MODULES = (cli, catalog, frames, lorentz, verify, bjorling, weierstrass,
           motions)
COUNT_ONLY = (lorentz,)
SCANS = ("verify.mean_curvature_scan", "verify.conformality_residual",
         "verify.spacelike_region")

NAME, START, END, PARENT, OP, THREAD, COUNTS = range(7)


def _eval_points(args, kwargs):
    return {"points": int(np.broadcast(np.asarray(args[1]),
                                       np.asarray(args[2])).size)}


def _grid_nodes(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"nodes": grid.nu * grid.nv}


def _segment_points(args, kwargs):
    z = np.asarray(args[1] if len(args) > 1 else kwargs["z"], dtype=complex)
    far = int(np.count_nonzero(np.abs(z.imag) > 2.0))
    return {"near": int(z.size) - far, "far": far}


# Counts recorded on the span at the call, from the call's arguments.
MEASURES = {
    "catalog.eval_surface": _eval_points,
    "verify.mean_curvature_scan": _grid_nodes,
    "verify.conformality_residual": _grid_nodes,
    "verify.spacelike_region": _grid_nodes,
    "bjorling.segment_integral": _segment_points,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self.active = False
        self._lock = threading.Lock()
        self._stacks = {}
        self._client = threading.get_ident()

    def count(self, key, n=1):
        if self.active:
            with self._lock:
                self.counts[key] += n

    def _parent(self):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack, stack[-1]
        client = self._stacks.get(self._client)
        return stack, (client[-1] if client else None)

    def _spanned(self, name, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack, parent = self._parent()
            counts = measure(args, kwargs) if measure else None
            rec = [name, 0.0, 0.0, parent, self.op_id,
                   threading.get_ident(), counts]
            self.spans.append(rec)
            stack.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _wrappers(self):
        """Map id(original) -> (original, wrapper) for every public function."""
        out = {}
        for mod in MODULES:
            layer = mod.__name__.rsplit(".", 1)[1]
            make = self._counted if mod in COUNT_ONLY else self._spanned
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                out[id(obj)] = (obj, make(f"{layer}.{attr}", obj))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions for the duration of the block."""
        wrappers = self._wrappers()
        restore = []
        try:
            for ns in (maxsurf,) + MODULES:
                for attr, obj in list(vars(ns).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(ns, attr, hit[1])
                        restore.append((ns, attr, obj))
            apply = motions.MotionGroup.apply
            motions.MotionGroup.apply = self._spanned(
                "motions.MotionGroup.apply", apply)
            restore.append((motions.MotionGroup, "apply", apply))
            yield self
        finally:
            for ns, attr, obj in reversed(restore):
                setattr(ns, attr, obj)

    def export(self):
        """Spans as JSON-ready rows, parents replaced by row indices."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [[rec[NAME], rec[START], rec[END],
                 None if rec[PARENT] is None else index[id(rec[PARENT])],
                 rec[OP], rec[THREAD], rec[COUNTS]] for rec in self.spans]


def union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(rows):
    """Span duration minus the union of its children, for exported rows."""
    children = [[] for _ in rows]
    for row in rows:
        if row[PARENT] is not None:
            children[row[PARENT]].append((row[START], row[END]))
    return [row[END] - row[START]
            - union_length(children[i], row[START], row[END])
            for i, row in enumerate(rows)]


def anchors(rows):
    """Index of the outermost span of the same layer above each span.

    A layer's named entry point is charged with the self time of the
    same-layer helpers it calls, e.g. `verify.fundamental_forms` under
    `verify.mean_curvature_scan`.
    """
    out = []
    for i, row in enumerate(rows):
        j = i
        while (rows[j][PARENT] is not None
               and layer_of(rows[rows[j][PARENT]][NAME]) == layer_of(row[NAME])):
            j = rows[j][PARENT]
        out.append(j)
    return out


def has_ancestor(rows, i, names) -> bool:
    j = rows[i][PARENT]
    while j is not None:
        if rows[j][NAME] in names:
            return True
        j = rows[j][PARENT]
    return False


def layer_metrics(rows, counts, ops) -> dict:
    """Per-layer numbers of one traced run over `ops` (times are totals).

    `counts` must hold the normal-field point counts the client recorded
    under "normal_field_points.<op kind>".
    """
    own = self_times(rows)
    anchor = anchors(rows)
    by_anchor = Counter()
    by_layer = Counter()
    for i, row in enumerate(rows):
        by_anchor[rows[anchor[i]][NAME]] += own[i]
        by_layer[layer_of(row[NAME])] += own[i]

    evals = [i for i, r in enumerate(rows) if r[NAME] == "catalog.eval_surface"]
    points = sum(rows[i][COUNTS]["points"] for i in evals)
    eval_s = sum(own[i] for i in evals)
    scan_nodes = sum(r[COUNTS]["nodes"] for r in rows if r[NAME] in SCANS)
    scan_points = sum(rows[i][COUNTS]["points"] for i in evals
                      if has_ancestor(rows, i, SCANS))

    kind = {op.index: op.kind for op in ops}
    near_pts = near_s = far_pts = far_s = far_op_pts = 0
    for i, r in enumerate(rows):
        if r[NAME] != "bjorling.segment_integral":
            continue
        if r[COUNTS]["far"]:
            far_pts += r[COUNTS]["far"]
            far_s += own[i]
            if kind.get(r[OP]) == "far":
                far_op_pts += r[COUNTS]["far"]
        else:
            near_pts += r[COUNTS]["near"]
            near_s += own[i]

    weier = by_layer["weierstrass"]
    tc = by_anchor["weierstrass.total_curvature"]
    per = by_anchor["weierstrass.period"]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    return {
        "cli.self_ms_per_op": ratio(by_layer["cli"], len(ops), 1e3),
        "catalog.eval_calls": len(evals),
        "catalog.eval_points": points,
        "catalog.ns_per_point": ratio(eval_s, points, 1e9),
        "verify.mean_curvature_scan_ms":
            by_anchor["verify.mean_curvature_scan"] * 1e3,
        "verify.conformality_residual_ms":
            by_anchor["verify.conformality_residual"] * 1e3,
        "verify.bjorling_recovery_ms":
            by_anchor["verify.bjorling_recovery"] * 1e3,
        "verify.equivariance_ms": by_anchor["verify.equivariance"] * 1e3,
        "verify.evals_per_node": ratio(scan_points, scan_nodes),
        "verify.spacelike_region_ms":
            by_anchor["verify.spacelike_region"] * 1e3,
        "bjorling.near_points": near_pts,
        "bjorling.near_us_per_point": ratio(near_s, near_pts, 1e6),
        "bjorling.far_points": far_pts,
        "bjorling.far_ms_per_point": ratio(far_s, far_pts, 1e3),
        # Includes the GL64 pass over all of a far op's points, near ones too.
        "bjorling.integrand_evals_per_point":
            ratio(counts["normal_field_points.far"], far_op_pts),
        "frames.bjorling_data_ms": by_layer["frames"] * 1e3,
        "lorentz.cross_calls": counts["lorentz.lorentz_cross"],
        "lorentz.dot_calls": counts["lorentz.lorentz_dot"],
        "weierstrass.total_curvature_ms": tc * 1e3,
        "weierstrass.forms_ms": (weier - tc - per) * 1e3,
        "weierstrass.period_ms": per * 1e3,
        "motions.apply_ms": by_anchor["motions.MotionGroup.apply"] * 1e3,
    }
