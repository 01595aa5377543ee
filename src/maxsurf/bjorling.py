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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .frames import WORK_PLANES, BjorlingData
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
# (_interpolant_integral).
_ANTI = 0.5 * (legvander(_X, NODES - 1) * _WT[:, None]).T
_S.flags.writeable = _WT.flags.writeable = False
_NULL.flags.writeable = _ANTI.flags.writeable = False
# Integrand points per pass.  segment_integral holds one block of
# 4 + WORK_PLANES = 13 complex planes of this many points, 1.7 MB at 1<<13,
# within a core's L2 (2 MB on the 2-vCPU Xeon measured).  There, with
# 32-node panels, 1<<12 / 1<<13 / 1<<14 gave bench/run.py's bjorling-solve
# op_p50_ms 7.0 / 6.3 / 6.1 and verify-catalog peak_rss_mb 44.6 / 45.3 /
# 46.9 (46.0 with the allocating passes at 1<<14): 1<<13 is the largest
# size that does not raise peak memory.  weierstrass.total_curvature's
# blocks, verify.spacelike_region's row blocks and, at half the size, the
# row blocks of the `sample` mesh text (cli._TEXT_NODES) follow it.  The
# split changes no bit of the result, since every value is computed
# pointwise.
_PASS_POINTS = 1 << 13
# Partial panels that _interpolant_integral integrates at a time: their
# gathered node values fill 3 planes of _PASS_POINTS points, as a pass's
# integrand values do.
_PARTIALS = _PASS_POINTS // NODES


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
    v_max) records the strip the patch is meant for (evaluation outside is
    allowed, accuracy is the caller's concern); `label` identifies the
    construction.  `broadcasts` declares that `func` also broadcasts u of
    shape (nu, 1) against v of shape (1, nv) to a (nu, nv, 3) result, so
    grid scans may hand it a sparse mesh.  `func` also takes shifted_values'
    leading stack axis: (k, nu, 1) against (k, 1, nv) with `broadcasts`.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: tuple[float, float, float, float] = (-np.pi, np.pi, -1.0, 1.0)
    label: str = ""
    broadcasts: bool = False

    def __call__(self, u, v):
        return self.func(u, v)


def shifted_values(patch: SurfacePatch, u, v, offsets):
    """Patch values at (u + du, v + dv) for each (du, dv) in offsets: the
    shifted meshes stacked on a leading axis, as many per call as fit in
    _PASS_POINTS points, or one per call, unstacked, for a mesh of more than
    half a pass.  Values are pointwise, so the split changes no bit."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
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
            levels[-1] += [(up - 2.0 * x + um) / s**2,
                           (pp - pm - mp + mm) / (4.0 * s**2),
                           (vp - 2.0 * x + vm) / s**2]
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(*levels)) + tuple(
        vals[len(offsets):])


def segment_integral(integrand, z):
    """Integral of `integrand` from 0 to z, vectorized over the points z.

    integrand(w, out=, work=) writes its (..., 3) values at the complex
    nodes w into `out`, with `work` its WORK_PLANES scratch planes shaped
    like w, as BjorlingData.integrand does.

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
    crossed = np.ceil(length).astype(np.int64)
    path = crossed[col] + crossed[cols.size:]
    far = path > _MAX_PANELS
    if np.any(far):
        i = np.flatnonzero(far)[0]
        raise QuadratureError(
            f"the path from 0 to z={flat[i]} crosses {path[i]} lattice "
            f"panels, more than {_MAX_PANELS}", z=flat[i])
    out = np.empty((flat.size, 3), dtype=complex)
    todo, pieces = np.arange(flat.size), 1
    while todo.size:
        # The legs of the points still to do: their columns' legs along the
        # real axis, then their own.
        columns, a = np.unique(col[todo], return_inverse=True)
        legs = np.concatenate([columns, cols.size + todo])
        value, err, size = _leg_integrals(integrand, line[legs],
                                          length[legs], origin, pieces)
        b = columns.size + np.arange(todo.size)
        total = value[a] + value[b]
        err, tol = err[a] + err[b], _RTOL * np.maximum(
            np.max(np.abs(total), axis=-1), size[a] + size[b])
        ok = np.isfinite(err) & (err <= tol)
        out[todo[ok]] = total[ok]
        stuck = ~ok & (~np.isfinite(err)
                       | (2 * pieces * path[todo] > _MAX_PANELS))
        if np.any(stuck):
            k = np.flatnonzero(stuck)[0]
            i = todo[k]
            raise QuadratureError(
                f"Gauss-Legendre quadrature missed its tolerance at "
                f"z={flat[i]} on its {path[i]} lattice panel(s) of "
                f"{pieces} piece(s) each (at most {_MAX_PANELS} pieces "
                f"along a path): error estimate {err[k]:.3g}, tolerance "
                f"{tol[k]:.3g}",
                z=flat[i], estimate=float(err[k]), tol=float(tol[k]))
        todo, pieces = todo[~ok], 2 * pieces
    return out.reshape(z.shape + (3,))


def _leg_integrals(integrand, line, length, origin, pieces):
    """(value, err, size) of the legs that run `length` panels along the
    lattice lines `line` (with real parts `origin` by line): each leg's
    integral, and the sums of the error estimates and of the integrand's
    size (resabs) over the panels it crosses, its partial panel in full.
    Each panel crossed is integrated once, cut into `pieces` pieces."""
    crossed = np.ceil(length).astype(np.int64)
    whole = np.floor(length).astype(np.int64)
    frac = length - whole
    counts = np.zeros(origin.size, dtype=np.int64)
    np.maximum.at(counts, line, crossed)
    first = np.concatenate([[0], np.cumsum(counts)])
    # Panel p is panel k of its line: offsets k to k + 1 along the line.
    p_line = np.repeat(np.arange(counts.size), counts)
    p_k = np.arange(first[-1]) - first[p_line]
    sign = 1.0 - 2.0 * (p_line & 1)
    upright = p_line >= 2
    origin = origin[p_line]
    last = first[line] + whole
    ends = np.flatnonzero(frac > 0.0)
    ends = ends[np.argsort(last[ends], kind="stable")]
    total = np.empty((first[-1], 3), dtype=complex)
    err, size = np.empty(first[-1]), np.empty(first[-1])
    part = np.zeros((line.size, 3), dtype=complex)
    rows = max(1, _PASS_POINTS // (pieces * NODES))
    # One block holds a pass's integrand values, nodes and work planes.
    block = np.empty((4 + WORK_PLANES) * min(rows, first[-1]) * pieces
                     * NODES, dtype=complex)
    step = _PANEL / pieces
    for start in range(0, first[-1], rows):
        idx = np.arange(start, min(start + rows, first[-1]))
        shape = (idx.size, pieces, NODES)
        m = idx.size * pieces * NODES
        vals = block[:3 * m].reshape(shape + (3,))
        w = block[3 * m:4 * m].reshape(shape)
        work = block[4 * m:(4 + WORK_PLANES) * m].reshape(
            (WORK_PLANES,) + shape)
        up = upright[idx, None, None]
        pos = sign[idx, None, None] * (p_k[idx, None, None] + (
            np.arange(pieces)[:, None] + _S) / pieces) * _PANEL
        w.real = np.where(up, origin[idx, None, None], pos)
        w.imag = np.where(up, pos, 0.0)
        integrand(w, out=vals, work=work)
        h = np.where(upright[idx], 1j, 1.0) * (sign[idx] * step)
        sums = np.cumsum(h[:, None, None] * np.einsum(
            "k,...kj->...j", _WT, vals), axis=1)
        total[idx] = sums[:, -1]
        coef = np.abs(_NULL @ vals.view(float))
        err[idx] = step * np.sum(
            np.max(coef[..., 0, :] + coef[..., 1, :], axis=-1), axis=-1)
        size[idx] = step * np.sum(
            np.max(np.abs(vals.view(float)), axis=-1) @ _WT, axis=-1)
        # The legs that end inside a panel of this pass.
        lo, hi = np.searchsorted(last[ends], (idx[0], idx[-1] + 1))
        leg = ends[lo:hi]
        q = last[leg] - idx[0]
        tau = frac[leg] * pieces
        i = np.floor(tau).astype(np.int64)
        part[leg] = np.where((i > 0)[:, None], sums[q, i - 1], 0.0)
        inside = tau > i
        leg, q, i = leg[inside], q[inside], i[inside]
        if leg.size:
            # each piece's values as 6 real rows of NODES, written into the
            # work planes, which the integrand no longer needs
            lines = work.reshape(-1).view(float)[:6 * m].reshape(
                -1, 6, NODES)
            np.copyto(lines, vals.view(float).reshape(-1, NODES, 6)
                      .transpose(0, 2, 1))
            part[leg] += h[q, None] * _interpolant_integral(
                lines, q * pieces + i, tau[inside] - i)
    # Panels summed from 0 outward along each line, in place.
    for k in range(1, counts.max(initial=0)):
        later = first[:-1][counts > k] + k
        total[later] += total[later - 1]
        err[later] += err[later - 1]
        size[later] += size[later - 1]
    value = np.zeros((line.size, 3), dtype=complex)
    value[whole > 0] = total[last[whole > 0] - 1]
    value += part
    reach = crossed > 0
    end = first[line[reach]] + crossed[reach] - 1
    leg_err, leg_size = np.zeros(line.size), np.zeros(line.size)
    leg_err[reach], leg_size[reach] = err[end], size[end]
    return value, leg_err, leg_size


def _interpolant_integral(lines, piece, t):
    """Integral over [0, t] of the Legendre interpolant of each `piece` of a
    pass, for (L,) fractions t in (0, 1) of a unit span; `lines` holds the
    pieces' node values as (pieces, 6, NODES) real rows.  Pointwise in L.

    The interpolant is sum_n c_n P_n(2s - 1), and the integral of P_n from
    -1 to x is J_n(x) / (2n + 1), J_0 = x + 1 and J_n = P_{n+1} - P_{n-1}.
    The weights are formed once per distinct t, and both they and the
    gathered rows are taken _PARTIALS at a time.
    """
    ts, inv = np.unique(t, return_inverse=True)
    out = np.empty((t.size, 3), dtype=complex)
    for c in range(0, ts.size, _PARTIALS):
        p = legvander(2.0 * ts[c:c + _PARTIALS] - 1.0, NODES)
        j = p[:, 1:] - np.concatenate([-p[:, :1], p[:, :-2]], axis=1)
        weights = np.einsum("un,nk->uk", j, _ANTI)
        legs = np.flatnonzero((inv >= c) & (inv < c + _PARTIALS))
        for r in np.split(legs, range(_PARTIALS, legs.size, _PARTIALS)):
            out[r] = np.einsum("lk,ljk->lj", weights[inv[r] - c],
                               lines[piece[r]]).view(complex)
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
    """Unit normal of a patch along v = 0 by Richardson finite differences.

    Returns a (..., 3) array with <N, N> = -1 for a spacelike patch; the
    overall sign is whatever the (u, v) orientation produces.  Raises
    ValueError where the tangent plane degenerates (lightlike normal).
    """
    n = lorentz_cross(*richardson(patch, u, 0.0, h))
    q = lorentz_dot(n, n)
    bad = np.abs(q) <= 1e-10 * (1.0 + np.sum(n * n, axis=-1))
    if np.any(bad):
        at = np.broadcast_to(u, bad.shape)[bad].flat[0]
        raise ValueError(f"degenerate tangent plane along the core curve "
                         f"at u={float(at)!r}")
    return n / np.sqrt(np.abs(q))[..., None]
