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
is integrated from the panel's Legendre interpolant.  The cost follows the
panels crossed, not the number of points, and every value stays pointwise.

All of this but the integrand's values depends on the points alone, so it
is planned once per point set: the lattice, the passes, the partial panels
and the interpolant weights of their distinct fractions.  The plans of the
4 most recently used sets of at most _PASS_POINTS points are kept, each
within 2 MB together with its key, the points' bytes (a 32x32 grid takes
0.1 MB), so a later solve on the same points in the same process only
evaluates the integrand and sums.  A process that solves each point set
once, as a `maxsurf verify` run does with its oracle grid, builds every
plan it uses and gains nothing from the cache.  Rounds that cut panels
into pieces are planned afresh every time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .frames import BjorlingData
from .lorentz import lorentz_cross, lorentz_dot

# Gauss-Legendre nodes per panel, relative tolerance of a point's integral,
# length of a lattice panel, and the cap on the panels along one point's
# path, each lattice panel counted with the pieces it is cut into.
NODES = 32
_RTOL = 1e-11
_PANEL = 1.0
_MAX_PANELS = 1024
# The rule's nodes and weights on [0, 1], and the (2, NODES) null rule
# giving the discrete Legendre coefficients of degree NODES - 2 and
# NODES - 1 (Berntsen & Espelid, ACM TOMS 17, 1991); read-only.
_X, _W = leggauss(NODES)
_S, _WT = 0.5 * (_X + 1.0), 0.5 * _W
_NULL = ((np.arange(NODES - 2, NODES)[:, None] + 0.5) * _W
         * legvander(_X, NODES - 1)[:, -2:].T)
# Row n of _ANTI weighs the node values by _WT * P_n / 2, which gives the
# Legendre coefficient c_n over 2 (2n + 1), so that sum_n J_n(2t - 1)
# _ANTI[n] weighs them to the interpolant's integral over [0, t]
# (_interpolant_weights).
_ANTI = 0.5 * (legvander(_X, NODES - 1) * _WT[:, None]).T
_S.flags.writeable = _WT.flags.writeable = False
_NULL.flags.writeable = _ANTI.flags.writeable = False
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
# Partial panels that a pass integrates at a time: their gathered node
# values fill 3 planes of _PASS_POINTS points, as a pass's integrand values
# do.
_PARTIALS = _PASS_POINTS // NODES
# Point-set plans kept for reuse (_point_plan), most recently used last:
# at most _PLAN_CACHE plans, each of at most _PLAN_BYTES with its key of
# 16 bytes per point.  A 32x32 grid on [-1, 1]^2 takes 0.1 MB, a 90x90 grid
# on [-3, 3] x [-30, 30] 1.2 MB, and 8 192 scattered points about 6 MB,
# mostly the weights of their 16 384 distinct fractions, so they are not
# kept.
_PLAN_CACHE = 4
_PLAN_BYTES = 1 << 21
_PLANS: dict = {}
_PLANS_LOCK = threading.Lock()
# Complex step of the tangents in `derivatives`: its truncation error, of
# relative order (a * eps)^2 on a twist a, is below rounding for a up to
# 1e11.  a * eps is a normal float for a down to COMPLEX_STEP_MIN_TWIST
# (2.2e-288); catalog.patch keeps smaller twists on Richardson.
_COMPLEX_STEP = 1e-20
COMPLEX_STEP_MIN_TWIST = np.finfo(float).tiny / _COMPLEX_STEP


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
    xvv, x) from 17, x being the value at (u, v), in one shifted_values."""
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
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(*levels)) + tuple(
        vals[len(offsets):])


def derivatives(patch: SurfacePatch, u, v, h: float, second: bool = False):
    """(xu, xv), or with `second` (xu, xv, xuu, xuv, xvv, x), at (u, v):
    richardson(patch, u, v, h, second) unless the patch is analytic.

    On an analytic patch the tangents are Im X(u + i eps, v) / eps and its v
    twin (Squire & Trapp, SIAM Review 40, 1998), and with w = h e^{i pi/4},
    Im[X(u + w, v) + X(u - w, v)] = h^2 X_uu - h^6 X_uuuuuu / 360 + ... in
    u, in v and along the diagonal (w, w), which gives X_uu + 2 X_uv + X_vv
    (cf. Lai & Crassidis, J. Comput. Appl. Math. 219, 2008): no real parts
    are subtracted, so rounding grows as eps / h, not eps / h^2.  The steps
    take one shifted_values call; x is the real evaluation."""
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
    return out + (uu, 0.5 * (dd - uu - vv), vv,
                  shifted_values(patch, u, v, [(0.0, 0.0)])[0])


def segment_integral(integrand, z):
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
    A small cache keeps the plans of recent point sets, so a later call
    with the same points only evaluates the integrand and sums.

    A point's error estimate, the sum over the panels of its path of |span|
    times the null-rule coefficients of the largest real or imaginary part,
    must be within _RTOL of max |integral|, or else of the integrand's size
    along the path (QUADPACK's resabs, by the same largest part).  The
    points that miss are redone with every panel of their paths cut into 2,
    4, 8, ... equal pieces, as long as a path holds at most _MAX_PANELS
    pieces.  QuadratureError names the first point whose estimate is not
    finite or still misses at that cap, and, before any evaluation, the
    first point that is not finite or whose path crosses more than
    _MAX_PANELS panels.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    plan = _point_plan(flat)
    out = np.empty((flat.size, 3), dtype=complex)
    todo, legs, a = np.arange(flat.size), plan.legs, plan.col
    while todo.size:
        # Legs 0 to b - 1 run along the real axis, one per column still to
        # do, and leg b + k up or down its column to point todo[k].
        value, err, size = _leg_integrals(integrand, legs)
        b = value.shape[0] - todo.size
        total = value[a] + value[b:]
        mag = np.abs(total)
        err, tol = err[a] + err[b:], _RTOL * np.maximum(
            np.maximum(np.maximum(mag[:, 0], mag[:, 1]), mag[:, 2]),
            size[a] + size[b:])
        ok = np.isfinite(err) & (err <= tol)
        out[todo[ok]] = total[ok]
        stuck = ~ok & (~np.isfinite(err)
                       | (2 * legs.pieces * plan.path[todo] > _MAX_PANELS))
        if np.any(stuck):
            k = np.flatnonzero(stuck)[0]
            i = todo[k]
            raise QuadratureError(
                f"Gauss-Legendre quadrature missed its tolerance at "
                f"z={flat[i]} on its {plan.path[i]} lattice panel(s) of "
                f"{legs.pieces} piece(s) each (at most {_MAX_PANELS} pieces "
                f"along a path): error estimate {err[k]:.3g}, tolerance "
                f"{tol[k]:.3g}",
                z=flat[i], estimate=float(err[k]), tol=float(tol[k]))
        todo = todo[~ok]
        if todo.size:
            columns, a = np.unique(plan.col[todo], return_inverse=True)
            pick = np.concatenate([columns, plan.columns + todo])
            legs = _leg_plan(plan.line[pick], plan.length[pick], plan.origin,
                             2 * legs.pieces)
    return out.reshape(z.shape + (3,))


class _LegPlan(NamedTuple):
    """What _leg_integrals needs of a set of legs, for `pieces` pieces per
    panel.  Panel p (0 <= p < `panels`) is panel k[p] of its line; pass s
    takes panels s * rows to (s + 1) * rows.  Per panel, shaped (panels, 1,
    1): `upright`, `origin` (the line's real part) and `signed` (the
    direction, +-_PANEL) place the nodes, and `h` is the step of a piece
    along the line.  The nodes themselves are placed in each pass's block:
    kept, they would take 16 NODES bytes per piece, 0.5 MB per point at the
    deepest refinement.  `ended`[e] is a leg whose partial panel starts with
    whole pieces, summed up to the pass's flat piece `ended_at`[e]; the
    legs that end inside a piece are `inside`, with that piece's index
    in the pass, the row of its fraction in `weights` and the step `inside_h`
    of their panel.  Both lists are sorted by pass and cut by `ended_cut`
    and `inside_cut`.  `later` lists, for k = 1, 2, ..., the panels k of the
    lines that have one; legs `whole` take the prefix sum at panel
    `whole_at`, and legs `reach` their error and size sums at panel
    `reach_at`."""

    legs: int
    pieces: int
    panels: int
    rows: int
    k: np.ndarray
    upright: np.ndarray
    origin: np.ndarray
    signed: np.ndarray
    h: np.ndarray
    ended: np.ndarray
    ended_at: np.ndarray
    ended_cut: np.ndarray
    inside: np.ndarray
    inside_piece: np.ndarray
    inside_row: np.ndarray
    inside_h: np.ndarray
    inside_cut: np.ndarray
    weights: np.ndarray
    later: tuple
    whole: np.ndarray
    whole_at: np.ndarray
    reach: np.ndarray
    reach_at: np.ndarray


class _PointPlan(NamedTuple):
    """A point set's lattice: `col` maps each point to its column, of which
    there are `columns`; the legs are the columns' runs along the real axis
    followed by the points' own runs along their columns, each `length`
    panels along the lattice line `line`, and `origin` is each line's real
    part; `path` counts the panels of each point's path; `legs` is the
    first round's _LegPlan, and `nbytes` the size of all these arrays."""

    col: np.ndarray
    columns: int
    line: np.ndarray
    length: np.ndarray
    origin: np.ndarray
    path: np.ndarray
    legs: _LegPlan
    nbytes: int = 0


def _point_plan(flat):
    """The plan of the points `flat`, built, or taken from the cache of the
    _PLAN_CACHE most recently used sets of at most _PASS_POINTS points whose
    plans and keys take at most _PLAN_BYTES.  Sets that are not finite or reach past
    _MAX_PANELS panels raise on every call, since they never enter the
    cache."""
    key = flat.tobytes() if flat.size <= _PASS_POINTS else None
    with _PLANS_LOCK:
        plan = _PLANS.pop(key, None)
    if plan is None:
        plan = _plan(flat)
    if key is not None and plan.nbytes + len(key) <= _PLAN_BYTES:
        with _PLANS_LOCK:
            _PLANS[key] = plan
            while len(_PLANS) > _PLAN_CACHE:
                del _PLANS[next(iter(_PLANS))]
    return plan


def _plan(flat):
    """The _PointPlan of the points `flat`; raises QuadratureError at the
    first point that is not finite or whose path crosses more than
    _MAX_PANELS panels."""
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
    origin = np.concatenate([[0.0, 0.0], np.repeat(cols, 2)])
    crossed = np.ceil(length)  # counted in floats: int64 wraps past 2**63
    path = crossed[col] + crossed[cols.size:]
    far = path > _MAX_PANELS
    if np.any(far):
        i = np.flatnonzero(far)[0]
        raise QuadratureError(
            f"the path from 0 to z={flat[i]} crosses {path[i]:.0f} lattice "
            f"panels, more than {_MAX_PANELS}", z=flat[i])
    return _frozen(_PointPlan(col, cols.size, line, length, origin,
                              path.astype(np.int64),
                              _leg_plan(line, length, origin, 1)))


def _leg_plan(line, length, origin, pieces):
    """The _LegPlan of the legs that run `length` panels along the lattice
    lines `line` (with real parts `origin` by line), each panel cut into
    `pieces` pieces."""
    crossed = np.ceil(length).astype(np.int64)
    whole = np.floor(length).astype(np.int64)
    frac = length - whole
    counts = np.zeros(origin.size, dtype=np.int64)
    np.maximum.at(counts, line, crossed)
    first = np.concatenate([[0], np.cumsum(counts)])
    panels = int(first[-1])
    rows = max(1, _PASS_POINTS // (pieces * NODES))
    # Panel p is panel k of its line: offsets k to k + 1 along the line.
    p_line = np.repeat(np.arange(counts.size), counts)
    k = np.arange(panels) - first[p_line]
    sign = 1.0 - 2.0 * (p_line & 1)
    upright = p_line >= 2
    h = np.where(upright, 1j, 1.0) * (sign * (_PANEL / pieces))
    # The legs that end inside a panel, by panel: from whole pieces summed,
    # then from the interpolant of the piece they end in.
    last = first[line] + whole
    ends = np.flatnonzero(frac > 0.0)
    ends = ends[np.argsort(last[ends], kind="stable")]
    tau = frac[ends] * pieces
    i = np.floor(tau).astype(np.int64)
    piece = last[ends] % rows * pieces + i
    cut = np.searchsorted(last[ends], np.arange(0, panels + rows, rows))
    into = tau > i
    inside = ends[into]
    fractions, row = np.unique(tau[into] - i[into], return_inverse=True)
    ended = np.flatnonzero(i > 0)
    reach = np.flatnonzero(crossed > 0)
    has = np.flatnonzero(whole > 0)
    shape = (panels, 1, 1)
    return _LegPlan(
        legs=line.size, pieces=pieces, panels=panels, rows=rows,
        k=k.astype(float).reshape(shape), upright=upright.reshape(shape),
        origin=origin[p_line].reshape(shape),
        signed=(sign * _PANEL).reshape(shape), h=h.reshape(shape),
        ended=ends[ended], ended_at=piece[ended] - 1,
        ended_cut=np.searchsorted(ended, cut),
        inside=inside, inside_piece=piece[into], inside_row=row,
        inside_h=h[last[inside], None],
        inside_cut=np.searchsorted(np.flatnonzero(into), cut),
        weights=_interpolant_weights(fractions),
        later=tuple(first[:-1][counts > j] + j
                    for j in range(1, counts.max(initial=0))),
        whole=has, whole_at=last[has] - 1,
        reach=reach, reach_at=first[line[reach]] + crossed[reach] - 1)


def _frozen(plan):
    """The plan, with its arrays and those of its leg plan read-only, and
    their size."""
    arrays = [field for part in (plan, plan.legs) for field in part
              if isinstance(field, np.ndarray)] + list(plan.legs.later)
    for array in arrays:
        array.flags.writeable = False
    return plan._replace(nbytes=sum(array.nbytes for array in arrays))


def _leg_integrals(integrand, plan):
    """(value, err, size) of the legs of a _LegPlan: each leg's integral,
    and the sums of the error estimates and of the integrand's size (resabs)
    over the panels it crosses, its partial panel in full.  Each panel
    crossed is integrated once, cut into the plan's pieces."""
    pieces, panels, rows = plan.pieces, plan.panels, plan.rows
    total = np.empty((panels, 3), dtype=complex)
    err, size = np.empty(panels), np.empty(panels)
    part = np.zeros((plan.legs, 3), dtype=complex)
    # One block holds a pass's integrand values, its nodes and the rows of
    # its pieces.
    block = np.empty(7 * min(rows, panels) * pieces * NODES, dtype=complex)
    offset = (np.arange(pieces)[:, None] + _S) / pieces
    step = _PANEL / pieces
    for s, start in enumerate(range(0, panels, rows)):
        idx = slice(start, start + rows)
        shape = (min(rows, panels - start), pieces, NODES)
        m = shape[0] * pieces * NODES
        vals = block[:3 * m].reshape(shape + (3,))
        w = block[3 * m:4 * m].reshape(shape)
        up, pos = plan.upright[idx], (plan.k[idx] + offset) * plan.signed[idx]
        w.real = np.where(up, plan.origin[idx], pos)
        w.imag = np.where(up, pos, 0.0)
        nodes = w.view()
        nodes.flags.writeable = False
        integrand(nodes, out=vals)
        sums = np.cumsum(plan.h[idx] * np.einsum("k,...kj->...j", _WT, vals),
                         axis=1)
        total[idx] = sums[:, -1]
        coef = np.abs(_NULL @ vals.view(float))
        err[idx] = step * np.sum(
            np.max(coef[..., 0, :] + coef[..., 1, :], axis=-1), axis=-1)
        # each piece's values as 6 real rows of NODES; their absolute
        # values then take the place of the integrand's values
        lines = block[4 * m:7 * m].view(float).reshape(-1, 6, NODES)
        np.copyto(lines, vals.view(float).reshape(-1, NODES, 6)
                  .transpose(0, 2, 1))
        mags = np.abs(lines, out=vals.view(float).reshape(lines.shape))
        size[idx] = step * np.sum(
            np.max(mags, axis=1).reshape(shape) @ _WT, axis=-1)
        e = slice(*plan.ended_cut[s:s + 2])
        part[plan.ended[e]] = sums.reshape(-1, 3)[plan.ended_at[e]]
        lo, hi = plan.inside_cut[s:s + 2]
        for c in range(lo, hi, _PARTIALS):
            r = slice(c, min(c + _PARTIALS, hi))
            part[plan.inside[r]] += plan.inside_h[r] * np.einsum(
                "lk,ljk->lj", plan.weights[plan.inside_row[r]],
                lines[plan.inside_piece[r]]).view(complex)
    # Panels summed from 0 outward along each line, in place.
    for later in plan.later:
        total[later] += total[later - 1]
        err[later] += err[later - 1]
        size[later] += size[later - 1]
    value = np.zeros((plan.legs, 3), dtype=complex)
    value[plan.whole] = total[plan.whole_at]
    value += part
    leg_err, leg_size = np.zeros(plan.legs), np.zeros(plan.legs)
    leg_err[plan.reach], leg_size[plan.reach] = (err[plan.reach_at],
                                                 size[plan.reach_at])
    return value, leg_err, leg_size


def _interpolant_weights(t):
    """(len(t), NODES) weights that take a piece's node values to the
    integral of their Legendre interpolant over [0, t] of the piece, for
    fractions t in (0, 1).

    The interpolant is sum_n c_n P_n(2s - 1), and the integral of P_n from
    -1 to x is J_n(x) / (2n + 1), J_0 = x + 1 and J_n = P_{n+1} - P_{n-1};
    the weights are formed _PARTIALS fractions at a time.
    """
    out = np.empty((t.size, NODES))
    for c in range(0, t.size, _PARTIALS):
        p = legvander(2.0 * t[c:c + _PARTIALS] - 1.0, NODES)
        j = p[:, 1:] - np.concatenate([-p[:, :1], p[:, :-2]], axis=1)
        out[c:c + _PARTIALS] = np.einsum("un,nk->uk", j, _ANTI)
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
        integral = segment_integral(data.integrand, z)
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
