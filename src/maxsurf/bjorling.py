"""Numerical solver for the Björling integral representation.

A maximal surface through a spacelike curve alpha with prescribed unit
timelike normal V along it is

    X(u, v) = Re( alpha(z) + i * Integral_{0}^{z} V(w) x alpha'(w) dw ),

z = u + iv, with the Lorentzian cross product.  Any real start point gives
the same surface: the integral along the real axis is real, so it drops out
of Re(i * ...).  The integrand is entire for every built-in curve family,
so the integral may follow any path from 0 to z.  segment_integral takes
the real axis to Re z, then the vertical line to z, and cuts both on a
fixed lattice of unit panels.  Each panel that any point's path crosses is
integrated once, by error-controlled Gauss-Legendre quadrature, and shared
by all the points whose paths cross it; the last, partial panel of a path
is integrated from the panel's Legendre interpolant.  A pass takes the
interpolant integrals of all its panels at all the distinct fractions in
one product and gives each path its (panel, fraction) entry, unless that
product is more than twice the pass's partial panels; it then integrates
them one by one, as many at a time as the pass has panels.  The cost
follows the panels crossed, not the number of points, and every value stays
pointwise.

Björling data are real on the real axis, so the integrand obeys Schwarz's
reflection, F(conj w) = conj F(w): solve_bjorling solves each point below
the axis as its mirror image, and a grid symmetric about the axis takes
half the column panels (34 instead of 66 on a 32x32 grid).

All of this but the integrand's values depends on the points alone, so it
is planned once per point set: the lattice lines, the passes, the partial
panels and the interpolant weights of their distinct fractions, nothing
per panel.  The plans of the 4 most recently used sets of at most 1024
points are kept (0.06 MB for a 32x32 grid, under 0.72 MB for any 1024
points), so a later solve on the same points in the same process only
evaluates the integrand and sums.  A process that solves each point set
once, as a `maxsurf verify` run does with its oracle grid, builds every
plan it uses and gains nothing from the cache.  A round that redoes the
missed points on a finer lattice is a fresh plan of those points alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .frames import BjorlingData
from .lorentz import lorentz_cross, lorentz_dot

# Gauss-Legendre nodes per panel, relative tolerance of a point's integral,
# length of a lattice panel, and the cap on the panels along one point's
# path, each counted as the panels it splits into on a round's finer
# lattice.
NODES = 32
_RTOL = 1e-11
_PANEL = 1.0
_MAX_PANELS = 1024
# Integrand points per pass.  segment_integral holds one block of 7
# complex planes of this many points (the values, the nodes and the rows of
# the partial panels), 0.9 MB at 1<<13, within a core's L2 (2 MB on the
# 2-vCPU Xeon measured).  There, with 32-node panels and an earlier block
# of 13 planes, 1<<12 / 1<<13 / 1<<14 gave bench/run.py's bjorling-solve
# op_p50_ms 7.0 / 6.3 / 6.1 and verify-catalog peak_rss_mb 44.6 / 45.3 /
# 46.9 (46.0 with the allocating passes at 1<<14): 1<<13 is the largest
# size that does not raise peak memory.  weierstrass.total_curvature's
# blocks, verify.spacelike_region's row blocks and, at half the size, the
# row blocks of the `sample` mesh text (cli._TEXT_NODES) follow it.  The
# split changes no bit of the result, since every value is computed
# pointwise.
_PASS_POINTS = 1 << 13
# The most nodes a grid may have: numpy makes no array of more than intp.max
# bytes, and the largest array a job makes per node is a solve's
# interpolant weights (_interpolant_weights) for the point's two partial
# panels, 2 NODES doubles.
_MAX_NODES = np.iinfo(np.intp).max // (2 * NODES * 8)
# A pass integrates its partial panels as one table, every panel of the
# pass at every distinct fraction, when that table has at most
# _TABLE_RATIO entries per partial panel, and one by one otherwise.  Both
# take each panel line's dot product with the weights by einsum's
# contiguous kernel, so they give the same bits (a BLAS product of the two
# would not, nor keep a value pointwise).  On the 2-vCPU Xeon, the
# table took 0.66 / 0.74 / 0.84 / 0.95 / 1.11 / 1.56 times the time of the
# panels one by one at 1.1 / 1.4 / 1.8 / 2.3 / 2.8 / 4.4 entries per panel
# (21x21 and 32x32 grids on [-a, a]^2, interleaved in one process).
_TABLE_RATIO = 2
# Plans kept for the most recently used sets of at most _PASS_POINTS // 8
# points (_point_plan), as planned (mirrored where segment_integral
# reflects): 0.06 MB for a 32x32 grid, mirrored or not, 0.67-0.71 MB for
# 1024 points from [-1, 1]^2 out to the 1024-panel reach.  Refinement
# rounds plan their missed points afresh (_plan) and keep nothing.
_PLAN_CACHE = 4
# Complex step of the tangents in `derivatives`: its truncation error, of
# relative order (a * eps)^2 on a twist a, is below rounding for a up to
# 1e11.  a * eps is a normal float for a down to COMPLEX_STEP_MIN_TWIST
# (2.2e-288); catalog.patch keeps smaller twists on Richardson.
_COMPLEX_STEP = 1e-20
COMPLEX_STEP_MIN_TWIST = np.finfo(float).tiny / _COMPLEX_STEP


@functools.cache
def _legendre():
    """(nodes, weights, null rule, antiderivative rows) of the NODES-point
    Gauss-Legendre rule on [0, 1], read-only, built on the first call so
    that numpy.polynomial is imported only by a process that integrates.
    The (2, NODES) null rule gives the discrete Legendre coefficients of
    degree NODES - 2 and NODES - 1 (Berntsen & Espelid, ACM TOMS 17, 1991).
    Row n of the antiderivative rows weighs the node values by
    weights * P_n / 2, which gives the Legendre coefficient c_n over
    2 (2n + 1), so that sum_n J_n(2t - 1) row_n weighs them to the
    interpolant's integral over [0, t] (_interpolant_weights)."""
    from numpy.polynomial.legendre import leggauss, legvander
    x, w = leggauss(NODES)
    wt, vander = 0.5 * w, legvander(x, NODES - 1)
    null = (np.arange(NODES - 2, NODES)[:, None] + 0.5) * w * vander[:, -2:].T
    rule = (0.5 * (x + 1.0), wt, null, 0.5 * (vander * wt[:, None]).T)
    for a in rule:
        a.flags.writeable = False
    return rule


class QuadratureError(RuntimeError):
    """Raised when the contour integration fails to reach its tolerance at
    the point `z`; `estimate` and `tol` are its last error estimate and the
    tolerance that estimate had to meet, where known."""

    def __init__(self, message, z=None, estimate=None, tol=None):
        super().__init__(message)
        self.z = z
        self.estimate = estimate
        self.tol = tol


@dataclass(frozen=True)
class SurfacePatch:
    """A parametrized surface piece: evaluator plus domain metadata.

    `func` maps real arrays (u, v) of one shape to an array of that shape
    with a trailing axis of 3 coordinates; `domain` = (u_min, u_max, v_min,
    v_max) is descriptive only: no computation reads it, and the patch need
    not be regular or accurate there; `label` identifies the
    construction.  `broadcasts` declares that `func` also broadcasts u of
    shape (nu, 1) against v of shape (1, nv) to a (nu, nv, 3) result, so
    grid scans may hand it a sparse mesh.  `func` also takes shifted_values'
    leading stack axis: (k, nu, 1) against (k, 1, nv) with `broadcasts`.
    `analytic` declares that `func` also takes complex u and v and is
    holomorphic in each, so that `derivatives` may take complex steps; by
    Hartogs' theorem X is then holomorphic in (u, v) jointly, as the
    diagonal step of its second derivatives needs.  The closed-form
    catalog patches (catalog.patch) declare it.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: tuple[float, float, float, float] = (-np.pi, np.pi, -1.0, 1.0)
    label: str = ""
    broadcasts: bool = False
    analytic: bool = False

    def __call__(self, u, v):
        return self.func(u, v)


def shifted_values(patch: SurfacePatch, u, v, offsets):
    """Patch values at (u + du, v + dv) for each (du, dv) in offsets: the
    shifted meshes stacked on a leading axis, as many per call as fit in
    _PASS_POINTS points, or one per call, unstacked, for a mesh of more than
    half a pass.  Values are pointwise, and complex when any offset is, so
    the split changes no bit."""
    kind = complex if np.iscomplexobj(offsets) else float
    u, v = np.asarray(u, dtype=kind), np.asarray(v, dtype=kind)
    if not patch.broadcasts or u.ndim != v.ndim:
        u, v = np.broadcast_arrays(u, v)
    step = max(1, _PASS_POINTS // np.broadcast(u, v).size)
    out = []
    for i in range(0, len(offsets), step):
        part = [(u + du if du else u, v + dv if dv else v)
                for du, dv in offsets[i:i + step]]
        out.extend([patch(*part[0])] if step == 1
                   else patch(*map(np.stack, zip(*part))))
    return out


def richardson(patch: SurfacePatch, u, v, h: float, second: bool = False):
    """Richardson-extrapolated central differences of the patch at (u, v):
    (xu, xv) from 8 shifted values or, with `second`, (xu, xv, xuu, xuv,
    xvv) from 17, the value at (u, v) among them, in one shifted_values."""
    units = ((1, 0), (-1, 0), (0, 1), (0, -1)) + (
        ((1, 1), (1, -1), (-1, 1), (-1, -1)) if second else ())
    offsets = [(a * s, b * s) for s in (h, h / 2.0) for a, b in units]
    vals = shifted_values(patch, u, v, offsets + [(0.0, 0.0)] * second)
    levels = []
    for k, s in enumerate((h, h / 2.0)):
        up, um, vp, vm, *mixed = vals[k * len(units):(k + 1) * len(units)]
        levels.append([(up - um) / (2.0 * s), (vp - vm) / (2.0 * s)])
        if second:
            x, (pp, pm, mp, mm) = vals[-1], mixed
            try:
                sq = s**2
            except OverflowError:  # a huge finite step fails its checks
                sq = np.inf
            levels[-1] += [(up - 2.0 * x + um) / sq,
                           (pp - pm - mp + mm) / (4.0 * sq),
                           (vp - 2.0 * x + vm) / sq]
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(*levels))


def derivatives(patch: SurfacePatch, u, v, h: float, second: bool = False):
    """(xu, xv), or with `second` (xu, xv, xuu, xuv, xvv), at (u, v):
    richardson(patch, u, v, h, second) unless the patch is analytic.

    On an analytic patch the tangents are Im X(u + i eps, v) / eps and its v
    twin (Squire & Trapp, SIAM Review 40, 1998), and with w = h e^{i pi/4},
    Im[X(u + w, v) + X(u - w, v)] = h^2 X_uu - h^6 X_uuuuuu / 360 + ... in
    u, in v and along the diagonal (w, w), which gives X_uu + 2 X_uv + X_vv
    (cf. Lai & Crassidis, J. Comput. Appl. Math. 219, 2008): no real parts
    are subtracted, so rounding grows as eps / h, not eps / h^2.  The steps
    take one shifted_values call."""
    if not patch.analytic:
        return richardson(patch, u, v, h, second)
    eps, w = 1j * _COMPLEX_STEP, h * np.exp(0.25j * np.pi)
    offsets = [(eps, 0.0), (0.0, eps)] + second * [
        (w, 0.0), (-w, 0.0), (0.0, w), (0.0, -w), (w, w), (-w, -w)]
    xu, xv, *rest = (x.imag for x in shifted_values(patch, u, v, offsets))
    out = (xu / _COMPLEX_STEP, xv / _COMPLEX_STEP)
    if not second:
        return out
    uu, vv, dd = ((p + m) / (h * h) for p, m in zip(rest[::2], rest[1::2]))
    return out + (uu, 0.5 * (dd - uu - vv), vv)


def segment_integral(integrand, z, reflect=False):
    """Integral of `integrand` from 0 to z, vectorized over the points z.

    integrand(w, out=) writes its (..., 3) values at the complex nodes w
    into `out`, as BjorlingData.integrand does; the nodes are read-only.

    The path runs along the real axis from 0 to Re z, then vertically to z;
    for an entire integrand it gives the straight segment's value.  Both
    legs are cut on a fixed lattice of panels of length _PANEL, counted from
    0 along the real axis and from the real axis along each column.  Each
    panel that some point's path crosses is integrated once per round by the
    NODES-point Gauss-Legendre rule, in passes of at most _PASS_POINTS
    integrand points, so the cost follows the panels crossed, not the number
    of points.  A point sums its full panels from 0 outward and adds the
    integral of the last panel's Legendre interpolant up to the point; a
    point on a lattice line has no partial panel.  Every step is pointwise:
    a point's value does not depend on the other points of the call.

    What depends on the points alone is their plan (_point_plan): the
    lattice, the passes, the partial panels and their interpolant weights.
    A small cache keeps the plans of recent sets of at most 1024 points, so
    a later call with the same points only evaluates the integrand and sums.

    A point's error estimate, the sum over the panels of its path of |span|
    times the null-rule coefficients of the largest real or imaginary part,
    must be within _RTOL of max |integral|, or else of the integrand's size
    along the path (QUADPACK's resabs, by the same largest part).  The
    points that miss are redone on a lattice of half, a quarter, ... the
    panel length, each round on a fresh plan of those points alone, in
    passes of the same size, as long as the panels of a path, each counted
    as the panels it splits into on that lattice, number at most
    _MAX_PANELS.  QuadratureError names the first point whose estimate is
    not finite or still misses at that cap, and, before any evaluation, the
    first point that is not finite or whose path crosses more than
    _MAX_PANELS panels.

    `reflect` vouches that integrand(conj w) = conj integrand(w): each
    point with Im z < 0 (strictly: -0.0 and NaN stay) is then planned,
    integrated and refined as conj z, and its integral's imaginary part
    negated, which for the built-in families keeps every bit but the sign
    of an exact zero; errors name the caller's point as without it.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    low = np.flatnonzero(flat.imag < 0) if reflect else []
    points = flat.copy()
    points.imag[low] *= -1
    try:
        plan = _point_plan(points)
    except QuadratureError:
        if len(low):  # the caller's points fail at the same index
            _plan(flat)
        raise
    out = np.empty((flat.size, 3), dtype=complex)
    todo = np.arange(flat.size)
    block = np.empty(0, dtype=complex)
    while todo.size:
        # One block for a pass's values, nodes and panel rows, grown on need.
        need = 7 * min(plan.rows, plan.panels) * NODES
        block = block if block.size >= need else np.empty(need, complex)
        # Legs 0 to b - 1 run along the real axis, one per column, and leg
        # b + k up or down its column to point todo[k].
        value, err, size = _leg_integrals(integrand, plan, block)
        a, b = plan.col, plan.columns
        total = value[a] + value[b:]
        mag = np.abs(total)
        err, tol = err[a] + err[b:], _RTOL * np.maximum(
            np.maximum(np.maximum(mag[:, 0], mag[:, 1]), mag[:, 2]),
            size[a] + size[b:])
        ok = np.isfinite(err) & (err <= tol)
        out[todo[ok]] = total[ok]
        stuck = ~ok & (~np.isfinite(err)
                       | (2 * plan.pieces * plan.path > _MAX_PANELS))
        if np.any(stuck):
            k = np.flatnonzero(stuck)[0]
            i = todo[k]
            raise QuadratureError(
                f"Gauss-Legendre quadrature missed its tolerance at "
                f"z={flat[i]} on its {plan.path[k]} lattice panel(s) of "
                f"{plan.pieces} piece(s) each (at most {_MAX_PANELS} pieces "
                f"along a path): error estimate {err[k]:.3g}, tolerance "
                f"{tol[k]:.3g}",
                z=flat[i], estimate=float(err[k]), tol=float(tol[k]))
        todo = todo[~ok]
        if todo.size:
            plan = _plan(points[todo], 2 * plan.pieces)
    out.imag[low] *= -1
    return out.reshape(z.shape + (3,))


class _Plan(NamedTuple):
    """What segment_integral and _leg_integrals need of a point set, on the
    lattice of panels `pieces` times shorter than _PANEL.  `col` maps each
    point to its column, of which there are `columns`, and `path` counts
    the unit panels of each point's path.  The legs are the columns' runs
    along the real axis followed by the points' own runs up or down their
    columns.  Lattice line l holds the panels first[l] to first[l + 1] - 1,
    from the real axis (or 0) outward, `panels` in all; `origin` is its
    real part.  Pass s takes panels s * rows to (s + 1) * rows and forms
    their nodes and steps from their lines, so a plan keeps nothing per
    panel.  The legs that end inside a panel are `inside`, sorted by pass
    and cut by `inside_cut`, with that panel's index in its pass and the
    row of its fraction in `weights`: the leg's entry in its pass's table
    of every panel at every fraction (_leg_integrals).  The panels j are
    starts[:depth[j - 1]] + j, `starts` holding the lines' first panels,
    the longest lines first; each leg takes its prefix sum at panel
    whole_at and its error and size sums at panel reach_at, -1 where it
    has no such panel."""

    col: np.ndarray
    columns: int
    path: np.ndarray
    pieces: int
    panels: int
    rows: int
    first: np.ndarray
    origin: np.ndarray
    inside: np.ndarray
    inside_panel: np.ndarray
    inside_row: np.ndarray
    inside_cut: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    depth: np.ndarray
    whole_at: np.ndarray
    reach_at: np.ndarray


def _point_plan(flat):
    """The plan of `flat`, kept if it has at most _PASS_POINTS // 8 points."""
    small = flat.size <= _PASS_POINTS // 8
    return _kept_plan(flat.tobytes()) if small else _plan(flat)


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _kept_plan(key):
    """The plan of the points whose bytes are `key`, kept for the
    _PLAN_CACHE most recently used keys.  Sets that are not finite or reach
    past _MAX_PANELS panels raise on every call, since the cache keeps no
    exception."""
    return _plan(np.frombuffer(key, complex))


def _plan(flat, pieces=1):
    """The _Plan of the points `flat` on the lattice of panels `pieces`
    times shorter than _PANEL, every array read-only; raises
    QuadratureError at the first point that is not finite or whose path
    crosses more than _MAX_PANELS unit panels."""
    bad = ~np.isfinite(flat)
    if np.any(bad):
        at = flat[np.flatnonzero(bad)[0]]
        raise QuadratureError(f"cannot integrate up to the non-finite point "
                              f"z={at}", z=at)
    # One leg along the real axis per column (bit pattern of Re z, so -0.0
    # is a column of its own), then one leg up or down the column per point.
    # Line 0 / 1 is the positive / negative real axis, line 2 + 2c / 3 + 2c
    # the upper / lower half of column c; odd lines run toward -1 or -i.
    x, y = flat.real, flat.imag
    bits, col = np.unique(x.view(np.int64), return_inverse=True)
    cols = bits.view(float)
    line = np.concatenate([np.signbit(cols), 2 + 2 * col + np.signbit(y)])
    length = np.concatenate([np.abs(cols), np.abs(y)]) / _PANEL
    crossed = np.ceil(length)  # counted in floats: int64 wraps past 2**63
    path = crossed[col] + crossed[cols.size:]
    far = path > _MAX_PANELS
    if np.any(far):
        i = np.flatnonzero(far)[0]
        raise QuadratureError(
            f"the path from 0 to z={flat[i]} crosses {path[i]:.0f} lattice "
            f"panels, more than {_MAX_PANELS}", z=flat[i])
    length = length * pieces
    crossed = np.ceil(length).astype(np.int64)
    whole = np.floor(length).astype(np.int64)
    frac = length - whole
    origin = np.concatenate([[0.0, 0.0], np.repeat(cols, 2)])
    counts = np.zeros(origin.size, dtype=np.int64)
    np.maximum.at(counts, line, crossed)
    first = np.concatenate([[0], np.cumsum(counts)])
    panels = int(first[-1])
    rows = max(1, _PASS_POINTS // NODES)
    # The legs that end inside a panel, by panel.
    last = first[line] + whole
    inside = np.flatnonzero(frac > 0.0)
    inside = inside[np.argsort(last[inside], kind="stable")]
    fractions, row = np.unique(frac[inside], return_inverse=True)
    deep = np.argsort(-counts, kind="stable")
    plan = _Plan(
        col=col, columns=cols.size, path=path.astype(np.int64),
        pieces=pieces, panels=panels, rows=rows,
        first=first, origin=origin, inside=inside,
        inside_panel=last[inside] % rows, inside_row=row, inside_cut=(
            np.searchsorted(last[inside], np.arange(0, panels + rows, rows))),
        weights=_interpolant_weights(fractions, rows),
        starts=first[deep], depth=np.searchsorted(
            -counts[deep], -np.arange(1, counts.max(initial=0))),
        whole_at=np.where(whole > 0, last - 1, -1),
        reach_at=np.where(crossed > 0, first[line] + crossed - 1, -1))
    # kept plans are shared
    for field in plan:
        if isinstance(field, np.ndarray):
            field.flags.writeable = False
    return plan


def _leg_integrals(integrand, plan, block):
    """(value, err, size) of the legs of a _Plan: each leg's integral, and
    the sums of the error estimates and of the integrand's size (resabs)
    over the panels it crosses, its partial panel in full.  Each panel
    crossed is integrated once, in `block`, and a zero row after the panels
    stands for a leg's missing prefix panel.  A pass integrates the
    interpolants of its panels at all the plan's fractions as one table,
    one einsum, and takes each partial leg's (panel, fraction) entry; when
    the table would have more than _TABLE_RATIO entries per partial leg, it
    integrates the legs' panels one by one, `rows` at a time."""
    panels, rows = plan.panels, plan.rows
    unit_nodes, wt, null, _ = _legendre()
    total = np.empty((panels + 1, 3), dtype=complex)
    err, size = np.empty(panels + 1), np.empty(panels + 1)
    total[-1], err[-1], size[-1] = 0.0, 0.0, 0.0
    part = np.zeros((plan.whole_at.size, 3), dtype=complex)
    step = _PANEL / plan.pieces
    # line l's signed panel length and step: odd lines run toward -1 or -i
    line_signed = np.full(plan.origin.size, step)
    line_signed[1::2] = -step
    line_h = line_signed * 1j
    line_h[:2] = line_signed[:2]
    for s, start in enumerate(range(0, panels, rows)):
        shape = (min(rows, panels - start), NODES)
        idx = slice(start, start + shape[0])
        m = shape[0] * NODES
        vals = block[:3 * m].reshape(shape + (3,))
        w = block[3 * m:4 * m].reshape(shape)
        # panel p of the pass is panel p - first[line] of its line
        p = np.arange(start, start + shape[0]).reshape(-1, 1)
        line = np.searchsorted(plan.first, p, side="right") - 1
        up, k = line >= 2, (p - plan.first[line]).astype(float)
        h = line_h[line]
        pos = (k + unit_nodes) * line_signed[line]
        w.real = np.where(up, plan.origin[line], pos)
        w.imag = np.where(up, pos, 0.0)
        nodes = w.view()
        nodes.flags.writeable = False
        integrand(nodes, out=vals)
        # each panel's mean, taken on the real planes: the complex einsum
        # gives the same bits more slowly, as products with w + 0i, which
        # make an infinite value's other part NaN (0 * inf)
        total[idx] = h * np.einsum(
            "k,pkj->pj", wt, vals.view(float)).view(complex)
        coef = np.abs(null @ vals.view(float))
        err[idx] = step * np.max(coef[:, 0] + coef[:, 1], axis=-1)
        # each panel's values as 6 real rows of NODES; their absolute
        # values then take the place of the integrand's values
        lines = block[4 * m:7 * m].view(float).reshape(-1, 6, NODES)
        np.copyto(lines, vals.view(float).reshape(-1, NODES, 6)
                  .transpose(0, 2, 1))
        mags = np.abs(lines, out=vals.view(float).reshape(lines.shape))
        # a dot product per panel: a matrix-vector product rounds differently
        size[idx] = step * (np.max(mags, axis=1)[:, None] @ wt)[:, 0]
        lo, hi = plan.inside_cut[s:s + 2]
        if lo < hi and (shape[0] * plan.weights.shape[0]
                        <= _TABLE_RATIO * (hi - lo)):
            # one table of every panel of the pass at every fraction, then
            # each leg's (panel, fraction) entry
            r = slice(lo, hi)
            table = np.einsum("pjk,tk->pjt", lines, plan.weights)
            part[plan.inside[r]] += h[plan.inside_panel[r]] * table[
                plan.inside_panel[r], :, plan.inside_row[r]].view(complex)
            continue
        for c in range(lo, hi, rows):
            r = slice(c, min(c + rows, hi))
            part[plan.inside[r]] += h[plan.inside_panel[r]] * np.einsum(
                "lk,ljk->lj", plan.weights[plan.inside_row[r]],
                lines[plan.inside_panel[r]]).view(complex)
    # Panels summed from 0 outward along each line, in place, depth by depth.
    for j, n in enumerate(plan.depth, 1):
        later = plan.starts[:n] + j
        total[later] += total[later - 1]
        err[later] += err[later - 1]
        size[later] += size[later - 1]
    return (total[plan.whole_at] + part, err[plan.reach_at],
            size[plan.reach_at])


def _interpolant_weights(t, rows):
    """(len(t), NODES) weights that take a panel's node values to the
    integral of their Legendre interpolant over [0, t] of the panel, for
    fractions t in (0, 1).

    The interpolant is sum_n c_n P_n(2s - 1), and the integral of P_n from
    -1 to x is J_n(x) / (2n + 1), J_0 = x + 1 and J_n = P_{n+1} - P_{n-1};
    the weights are formed `rows` fractions at a time, a pass's panels.
    """
    from numpy.polynomial.legendre import legvander
    anti = _legendre()[3]
    out = np.empty((t.size, NODES))
    for c in range(0, t.size, rows):
        p = legvander(2.0 * t[c:c + rows] - 1.0, NODES)
        j = p[:, 1:] - np.concatenate([-p[:, :1], p[:, :-2]], axis=1)
        out[c:c + rows] = np.einsum("un,nk->uk", j, anti)
    return out


def solve_bjorling(data: BjorlingData) -> SurfacePatch:
    """Surface patch evaluating the Björling integral numerically."""

    def func(u, v):
        # z from its parts: u + 1j * v would turn an infinite v into NaN
        # with a warning, and flip the sign of a zero u
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(v, dtype=float))
        z = np.empty(u.shape, dtype=complex)
        z.real, z.imag = u, v
        integral = segment_integral(data.integrand, z, reflect=True)
        return np.real(data.alpha(z) + 1j * integral)

    return SurfacePatch(func=func, label="bjorling")


def reference_normal(patch: SurfacePatch, u, h: float = 1e-4):
    """Unit normal of a patch along v = 0 from its `derivatives` at step h.

    Returns a (..., 3) array with <N, N> = -1 for a spacelike patch; the
    overall sign is whatever the (u, v) orientation produces.  Raises
    ValueError where the tangent plane degenerates (lightlike normal).
    """
    n = lorentz_cross(*derivatives(patch, u, 0.0, h))
    q = lorentz_dot(n, n)
    bad = np.abs(q) <= 1e-10 * (1.0 + np.sum(n * n, axis=-1))
    if np.any(bad):
        at = np.broadcast_to(u, bad.shape)[bad].flat[0]
        raise ValueError(f"degenerate tangent plane along the core curve "
                         f"at u={float(at)!r}")
    return n / np.sqrt(np.abs(q))[..., None]
