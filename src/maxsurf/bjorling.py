"""Numerical solver for the Björling integral representation.

A maximal surface through a spacelike curve alpha with prescribed unit
timelike normal V along it is

    X(u, v) = Re( alpha(z) + i * Integral_{u0}^{z} V(w) x alpha'(w) dw ),

z = u + iv, with the Lorentzian cross product.  The integrand is entire for
every built-in curve family, so the integral is taken along the straight
segment from u0 to z, by error-controlled Gauss-Legendre quadrature that
is vectorized over all points (see segment_integral).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .frames import WORK_PLANES, BjorlingData
from .lorentz import lorentz_cross, lorentz_dot

# Gauss-Legendre nodes per panel, relative tolerance of a segment integral,
# and panel count at which a point still missing it raises.
NODES = 32
_RTOL = 1e-11
_MAX_PANELS = 1024
# The rule's nodes and weights on [0, 1], and the (2, NODES) null rule
# giving the discrete Legendre coefficients of degree NODES - 2 and
# NODES - 1 (Berntsen & Espelid, ACM TOMS 17, 1991); read-only.
_X, _W = leggauss(NODES)
_S, _WT = 0.5 * (_X + 1.0), 0.5 * _W
_NULL = ((np.arange(NODES - 2, NODES)[:, None] + 0.5) * _W
         * legvander(_X, NODES - 1)[:, -2:].T)
_S.flags.writeable = _WT.flags.writeable = _NULL.flags.writeable = False
# Integrand points per pass.  segment_integral holds one block of
# 4 + WORK_PLANES = 13 complex planes of this many points, 1.7 MB at 1<<13,
# within a core's L2 (2 MB on the 2-vCPU Xeon measured).  There, with
# 32-node panels, 1<<12 / 1<<13 / 1<<14 gave bench/run.py's bjorling-solve
# op_p50_ms 7.0 / 6.3 / 6.1 and verify-catalog peak_rss_mb 44.6 / 45.3 /
# 46.9 (46.0 with the allocating passes at 1<<14): 1<<13 is the largest
# size that does not raise peak memory.  weierstrass.total_curvature's
# blocks use the same size.  The split changes no bit of the result, since
# every value is computed pointwise.
_PASS_POINTS = 1 << 13


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


def segment_integral(data: BjorlingData, z):
    """Integral of V x alpha' from u0 to z (straight segment), vectorized.

    One pass of the NODES-point Gauss-Legendre rule covers every point, split
    into passes of at most _PASS_POINTS integrand points.  Its error
    estimate, |span| times the null-rule coefficients of the largest
    real or imaginary part, must be within _RTOL of max |integral|, or else
    of the integrand's size (QUADPACK's resabs); the points that miss are
    redone on 2, 4, 8, ... equal panels, and raise QuadratureError where
    the estimate is not finite or still misses at _MAX_PANELS panels.
    Of `data` only u0 and integrand(w, out, work) are read.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    span = flat - data.u0
    out = np.empty(flat.shape + (3,), dtype=complex)
    block = np.empty(0, dtype=complex)
    todo, panels = np.arange(flat.size), 1
    while todo.size:
        left = []
        rows = max(1, _PASS_POINTS // (panels * NODES))
        # One block holds a pass's integrand values, nodes and work planes;
        # it is replaced only when a round's passes outgrow it.
        need = (4 + WORK_PLANES) * min(rows, todo.size) * panels * NODES
        if block.size < need:
            block = np.empty(need, dtype=complex)
        for idx in np.split(todo, range(rows, todo.size, rows)):
            shape = (idx.size, panels, NODES)
            n = idx.size * panels * NODES
            vals = block[:3 * n].reshape(shape + (3,))
            w = block[3 * n:4 * n].reshape(shape)
            work = block[4 * n:(4 + WORK_PLANES) * n].reshape(
                (WORK_PLANES,) + shape)
            h = span[idx, None] / panels
            np.add((data.u0 + np.arange(panels) * h)[..., None],
                   np.multiply(_S, h[..., None], out=w[:, :1]), out=w)
            data.integrand(w, out=vals, work=work)
            mean = np.einsum("k,...kj->...j", _WT, vals)
            total = np.sum(h[..., None] * mean, axis=-2)
            coef = np.abs(_NULL @ np.ascontiguousarray(vals).view(float))
            err = np.sum(np.abs(h) * np.max(coef[..., 0, :] + coef[..., 1, :],
                                            axis=-1), axis=-1)
            tol = _RTOL * np.max(np.abs(total), axis=-1)
            low = ~(err <= tol)
            tol[low] = _RTOL * np.sum(np.abs(h[low]) * (
                np.max(np.abs(vals[low]), axis=-1) @ _WT), axis=-1)
            ok = np.isfinite(err) & (err <= tol)
            out[idx[ok]] = total[ok]
            stuck = ~ok & (~np.isfinite(err) | (panels >= _MAX_PANELS))
            if np.any(stuck):
                i = np.flatnonzero(stuck)[0]
                raise QuadratureError(
                    f"Gauss-Legendre quadrature missed its tolerance at "
                    f"z={flat[idx[i]]} with {panels} panel(s): error "
                    f"estimate {err[i]:.3g}, tolerance {tol[i]:.3g}",
                    z=flat[idx[i]], estimate=float(err[i]), tol=float(tol[i]))
            left.append(idx[~ok])
        todo = np.concatenate(left)
        panels *= 2
    return out.reshape(z.shape + (3,))


def solve_bjorling(data: BjorlingData,
                   domain=(-np.pi, np.pi, -1.0, 1.0)) -> SurfacePatch:
    """Surface patch evaluating the Björling integral numerically."""

    def func(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        z = u + 1j * v
        integral = segment_integral(data, z)
        return np.real(data.alpha(z) + 1j * integral)

    label = "bjorling"
    if data.family is not None:
        label += f":{data.family.tag}"
        if data.family.lam is not None:
            label += f":lam={data.family.lam:g}"
    if data.spec is not None:
        label += f":{data.spec.kind}:a={data.spec.a:g}"
    return SurfacePatch(func=func, domain=tuple(float(x) for x in domain), label=label)


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
