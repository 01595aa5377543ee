"""Holomorphic representation layer for the surface families.

Six of the nine Björling families carry, in their catalog records, a triple
of holomorphic 1-form coefficients phi_k (the forms are phi_k dz) satisfying
the Lorentzian null condition phi1^2 + phi2^2 - phi3^2 = 0, held as one
function z -> (phi1, phi2, phi3); this module holds what needs no family.
From the triple the Weierstrass pair (g, omega) follows as
g = phi3/(phi1 - i phi2), omega = (phi1 - i phi2) dz, and the triple is
recovered from the pair.  Multiplying phi1 and phi2 by i turns a Lorentzian
triple into a Euclidean-minimal one (the dual surface); the pair transforms
as (g, omega) -> (-i g, i omega).

Charts.  The "exp" chart uses the complexified curve parameter, where the
forms of the circle families are 2 pi periodic in the real direction.  For
the spacelike-axis families the substitution that replaces e^z by the
coordinate itself turns the strip into the punctured plane; in that
"punctured" chart the forms are rational for integer twist rate, which is
where residues and period integrals live.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Complex
from typing import Callable

import numpy as np

from .bjorling import (_PASS_POINTS, NODES, QuadratureError, _legendre,
                       segment_integral)
from .catalog import EXP_CHART, FAMILY_INFO, PUNCTURED_CHART, CatalogSurface
from .frames import check_curvature_domain, finite_real
from .lorentz import vec3

LORENTZ = "lorentz"
EUCLID = "euclid"

# period's first node count, tolerance over 1 + |value| and node cap;
# total_curvature's starting rule (nr, nth), ceil(nr / NODES) log-r panels
# with nth angles per ring, its tolerance relative to its largest ring
# value, its density's difference step over 1 + r (near eps^(1/3), where
# truncation and rounding errors balance), and its caps on the angles of
# one ring and on the density nodes of one call, which bound a call that
# cannot settle to about 4 times the cost of a 401 x 256 grid.  The start
# changes the cost, not the tolerance.
_PERIOD_NODES, _PERIOD_TOL, _PERIOD_CAP = 512, 1e-10, 16384
_CURVATURE_GRID = (128, 32)
_CURVATURE_RTOL, _DENSITY_STEP = 1e-7, 4e-6
_RING_NODES, _CURVATURE_NODES = 8192, 4 * 401 * 256


@dataclass(frozen=True)
class FormTriple:
    """Three analytic 1-form coefficients sharing a chart and a signature.

    func maps a complex array z to the tuple (phi1, phi2, phi3) of
    coefficients at z, arrays or constants; signature says which null
    condition the triple satisfies ("lorentz": +,+,-; "euclid": +,+,+);
    singularities lists the points of the chart where the coefficients are
    not analytic (period loops must avoid them).
    """

    func: Callable
    chart: str = EXP_CHART
    signature: str = LORENTZ
    singularities: tuple = ()
    label: str = ""

    def __call__(self, z):
        return vec3(*self.func(np.asarray(z, dtype=complex))).astype(
            complex, copy=False)

    def null_residual(self, z):
        """Pointwise defect of the null condition for this signature."""
        p1, p2, p3 = self.func(np.asarray(z, dtype=complex))
        q = p1 ** 2 + p2 ** 2
        if self.signature == LORENTZ:
            return np.abs(q - p3 ** 2)
        return np.abs(q + p3 ** 2)


@dataclass(frozen=True)
class WeierstrassData:
    """Meromorphic g and coefficient f of omega = f dz, on one chart."""

    g: object
    f: object
    chart: str = EXP_CHART
    signature: str = LORENTZ
    singularities: tuple = ()
    label: str = ""


def forms_for(surface: CatalogSurface, chart: str = EXP_CHART) -> FormTriple:
    """Holomorphic form triple of a catalog surface on a chart, where the
    family's record in FAMILY_INFO has forms on that chart."""
    fam = surface.family
    if chart not in (EXP_CHART, PUNCTURED_CHART):
        raise ValueError(f"unknown chart {chart!r}")
    info = FAMILY_INFO[fam]
    forms = info.forms if chart == EXP_CHART else info.punctured
    if forms is None:
        raise ValueError(f"{fam} has no punctured-chart forms"
                         if chart == PUNCTURED_CHART else
                         f"{fam} has no holomorphic form triple here")
    return FormTriple(functools.partial(forms, surface), chart=chart,
                      singularities=(0j,) if chart == PUNCTURED_CHART else (),
                      label=f"forms:{fam}:{chart}")


_PROBE_CENTER, _PROBE_RADIUS = 0.07j, 0.8  # probe_ring's circle


def probe_ring(n: int):
    """n equally spaced points on the circle |z - 0.07i| = 0.8.

    The ring stays clear of the real-axis zeros of omega and of the
    punctured-chart origin; form identities are sampled on it.
    """
    k = np.arange(n)
    return _PROBE_RADIUS * np.exp(2j * np.pi * k / n) + _PROBE_CENTER


def weierstrass_pair(triple: FormTriple) -> WeierstrassData:
    """Extract (g, omega) from a form triple, either signature.

    g = p3/(p1 - i p2) and omega = (p1 - i p2) dz; the same quotient works
    for the Euclidean flavor.  Raises when omega vanishes on the whole probe
    ring (planar degenerate triple).
    """
    forms = triple.func

    def f(z):
        p1, p2, _ = forms(z)
        return p1 - 1j * p2

    if np.max(np.abs(f(probe_ring(7)))) < 1e-13:
        raise ValueError("omega vanishes identically; the pair is undefined")

    def g(z):
        p1, p2, p3 = forms(z)
        return p3 / (p1 - 1j * p2)

    return WeierstrassData(g=g, f=f, chart=triple.chart,
                           signature=triple.signature,
                           singularities=triple.singularities,
                           label=triple.label)


def reconstruct_forms(w: WeierstrassData) -> FormTriple:
    """Form triple built back from a Weierstrass pair: (1 + g^2, i(1 - g^2),
    2g) f/2 for Lorentzian data, and the same with -g^2 for Euclidean."""
    lorentz = w.signature == LORENTZ

    def forms(z):
        g, f = w.g(z), w.f(z)
        # negation is exact, so 1 + (-g^2) has the bits of 1 - g^2
        g2 = g ** 2 if lorentz else -(g ** 2)
        return 0.5 * (1.0 + g2) * f, 0.5j * (1.0 - g2) * f, g * f

    return FormTriple(forms, chart=w.chart, signature=w.signature,
                      singularities=w.singularities,
                      label=w.label + ":reconstructed")


def gauss_map(w: WeierstrassData, z, tol: float = 1e-9):
    """Unit normal from g by inverse stereographic projection.

    Lorentzian data lands on the upper unit hyperboloid (undefined where
    |g| = 1, which is the degeneracy locus); Euclidean data lands on the
    round sphere.
    """
    gz = np.asarray(w.g(np.asarray(z, dtype=complex)))
    m2 = np.abs(gz) ** 2
    if w.signature == LORENTZ:
        den = 1.0 - m2
        if np.any(np.abs(den) <= tol * (1.0 + m2)):
            raise ValueError("Gauss map degenerates where |g| = 1")
        return vec3(2.0 * gz.real / den, 2.0 * gz.imag / den, (1.0 + m2) / den)
    den = 1.0 + m2
    return vec3(2.0 * gz.real / den, 2.0 * gz.imag / den, (m2 - 1.0) / den)


def dualize(t: FormTriple) -> FormTriple:
    """Swap a Lorentzian triple with its Euclidean-minimal partner.

    (p1, p2, p3) -> (i p1, i p2, p3) going out, (-i p1, -i p2, p3) coming
    back, so dualize(dualize(t)) reproduces t.  On Weierstrass pairs this
    is (g, omega) -> (-i g, i omega).
    """
    unit, sig = (1j, EUCLID) if t.signature == LORENTZ else (-1j, LORENTZ)

    def forms(z):
        p1, p2, p3 = t.func(z)
        return unit * p1, unit * p2, p3

    if t.label.endswith(":dual"):
        label = t.label[:-len(":dual")]
    else:
        label = t.label + ":dual"
    return FormTriple(forms, chart=t.chart, signature=sig,
                      singularities=t.singularities, label=label)


@dataclass(frozen=True)
class Loop:
    """Counterclockwise circle for contour integrals: a complex center, not
    a bool, whose parts are finite_reals, and a positive finite_real radius."""

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        c = self.center
        if not (isinstance(c, Complex) and not isinstance(c, bool)
                and finite_real(c.real) and finite_real(c.imag)
                and finite_real(self.radius) and self.radius > 0):
            raise ValueError(f"loop needs a finite center and a finite positive"
                             f" radius, got {self.center}, {self.radius}")
        object.__setattr__(self, "center", complex(c))
        object.__setattr__(self, "radius", float(self.radius))


def _trapezoid(sums, count, n, tol, cap, budget):
    """(value, estimate, tolerance, angles) of each of `count` rows by the
    periodic trapezoid rule, which converges exponentially for analytic
    periodic integrands (Trefethen & Weideman, SIAM Review 56, 2014); a
    row's angles are also the nodes evaluated for it.  sums(rows, n, offset)
    gives each row's sums over the n angles 2 pi (k + offset) / n and over
    their even-numbered ones.  The first estimate compares n angles with
    their even half; the rows that miss tol(value) (a NaN misses) are
    doubled by their midpoints only, within cap angles and budget nodes."""
    rows = np.arange(count)
    full, even = sums(rows, n, 0.0)
    value = full * (2.0 * np.pi / n)
    est = np.abs(value - even * (4.0 * np.pi / n))
    tols, angles = np.empty(count), np.full(count, n)
    while True:
        tols[rows] = tol(value[rows])
        rows = rows[~(est[rows] <= tols[rows])]
        if (not rows.size or 2 * n > cap
                or angles.sum() + rows.size * n > budget):
            return value, est, tols, angles
        full[rows] += sums(rows, n, 0.5)[0]
        n *= 2
        angles[rows] = n
        last, value[rows] = value[rows], full[rows] * (2.0 * np.pi / n)
        est[rows] = np.abs(value[rows] - last)


def period(triple: FormTriple, k, loop: Loop):
    """Contour integral of the k-th component (1-based) around the loop.

    _trapezoid from _PERIOD_NODES nodes to _PERIOD_TOL (1 + |value|), which
    is spectral for the punctured chart's rational forms at integer twist;
    a component that misses at _PERIOD_CAP nodes raises QuadratureError
    with its estimate and tolerance.  For a sequence of indices k, returns
    a list with, for each, the value or the QuadratureError that the index
    alone raises, from one triple evaluation per node set for the running
    components, so each entry has the bits of its own call.
    """
    if triple.chart != PUNCTURED_CHART:
        raise ValueError("periods are taken on the punctured chart")
    single = np.ndim(k) == 0
    ks = [k] if single else list(k)
    for c in ks:
        if (isinstance(c, bool) or not isinstance(c, (int, np.integer))
                or not 1 <= c <= 3):
            raise ValueError(f"component index must be 1, 2 or 3, got {c}")
    for s in triple.singularities:
        if abs(abs(s - loop.center) - loop.radius) < 1e-9 * (1.0 + loop.radius):
            raise ValueError(f"loop passes through the singularity at {s}")
    comps = list(dict.fromkeys(ks))
    if not comps:
        return []

    def sums(rows, n, offset):
        th = 2.0 * np.pi * (np.arange(n) + offset) / n
        z = loop.center + loop.radius * np.exp(1j * th)
        phi, dz = triple.func(z), 1j * (z - loop.center)
        terms = np.array([phi[comps[i] - 1] * dz for i in rows])
        return np.array([terms.sum(axis=1), terms[:, ::2].sum(axis=1)])

    value, est, tol, n = _trapezoid(
        sums, len(comps), _PERIOD_NODES,
        lambda v: _PERIOD_TOL * (1.0 + np.abs(v)), _PERIOD_CAP, math.inf)
    done = {c: complex(value[i]) if est[i] <= tol[i] else QuadratureError(
        f"contour integral did not settle after {n[i]} nodes", z=loop.center,
        estimate=est[i], tol=tol[i]) for i, c in enumerate(comps)}
    if single and isinstance(done[k], QuadratureError):
        raise done[k]
    return done[k] if single else [done[c] for c in ks]


def _spherical_density(w: WeierstrassData, z, h):
    """|g'|^2 / (1 + |g|^2)^2, the pullback density of the round metric, from
    2 evaluations of g, at z + h and z - h for a real step h: g' is their
    central difference and g(z) their mean, both with O(h^2) error.  Where
    |g(z + h) g(z - h)| > 1 both take 1/g instead, which is analytic across
    the poles of g and keeps the difference well conditioned."""
    gp, gm = np.asarray(w.g(z + h)), np.asarray(w.g(z - h))
    big = np.abs(gp * gm) > 1.0
    gp, gm = (np.divide(1.0, gv, out=np.array(gv, dtype=complex), where=big)
              for gv in (gp, gm))
    return (np.abs((gp - gm) / (2.0 * h)) ** 2
            / (1.0 + np.abs(0.5 * (gp + gm)) ** 2) ** 2)


def _ring_sums(w, r, n, offset):
    """_trapezoid's sums of the r^2-weighted density on each ring r.

    Blocks of whole rings of at most _PASS_POINTS points (one ring when a
    ring holds more) keep the stencil's arrays in cache; each point's value
    depends on that point alone and each sum on its ring alone, so the block
    size changes no bit.  A non-finite value raises at its first node."""
    th = 2.0 * np.pi * (np.arange(n) + offset) / n
    e = np.exp(1j * th)
    sums = np.empty((2, r.size))
    rows = max(1, _PASS_POINTS // n)
    for i in range(0, r.size, rows):
        ring = r[i:i + rows, None]
        radial = _spherical_density(w, ring * e, _DENSITY_STEP * (1.0 + ring)
                                    ) * (ring * ring)
        if not np.isfinite(radial).all():
            k, j = divmod(int(np.argmin(np.isfinite(radial))), n)
            raise QuadratureError(
                f"total curvature integrand is not finite at "
                f"r = {r[i + k]:.6g}, theta = {th[j]:.6g}",
                z=complex(r[i + k] * e[j]))
        sums[0, i:i + rows] = radial.sum(axis=1)
        sums[1, i:i + rows] = radial[:, ::2].sum(axis=1)
    return sums


def _unsettled(w, what, r, n, estimate, tol):
    """The QuadratureError of a rule that reached its cap `what`, located on
    the ring r at its largest density node of n."""
    th = 2.0 * np.pi * np.arange(n) / n
    dens = _spherical_density(w, r * np.exp(1j * th),
                              _DENSITY_STEP * (1.0 + r))
    t = th[int(np.argmax(dens))]
    return QuadratureError(
        f"total curvature does not settle within {what}: estimate "
        f"{estimate:.3g} against {tol:.3g} at r = {r:.6g}, theta = {t:.6g}",
        z=complex(r * np.exp(1j * t)), estimate=estimate, tol=tol)


def _rings(w, s, nth, used, top):
    """(value, n, used, top) of the rings at log radii s: each ring's
    _trapezoid sum of its r^2-weighted density over its n angles from nth,
    the density nodes `used` so far and the largest ring value `top` of any
    pass so far, settled or not, whose _CURVATURE_RTOL is every ring's
    tolerance; a ring that misses at a cap raises _unsettled."""
    r = np.exp(s)

    def tol(value):
        nonlocal top
        top = max(top, float(np.max(value, initial=0.0)))
        return _CURVATURE_RTOL * top

    value, est, tols, n = _trapezoid(
        lambda rows, m, offset: _ring_sums(w, r[rows], m, offset),
        s.size, nth, tol, _RING_NODES, _CURVATURE_NODES - used)
    k = int(np.argmax(np.where(est <= tols, -np.inf, est)))
    if not est[k] <= tols[k]:
        what = (f"{_RING_NODES} angles per ring" if 2 * n[k] > _RING_NODES
                else f"{_CURVATURE_NODES} density nodes")
        raise _unsettled(w, what, r[k], n[k], float(est[k]), tols[k])
    return value, n, used + int(n.sum()), top


def total_curvature(w: WeierstrassData, annulus) -> float:
    """Total curvature -4 * integral of the spherical density over an annulus.

    The annulus (r_in, r_out) is centered at 0.  In s = log r the rule
    integrates on Gauss-Legendre panels of bjorling's NODES-point rule,
    starting from ceil(nr / NODES) equal panels, (nr, nth) being
    _CURVATURE_GRID, and bisects each panel whose null-rule estimate
    (Berntsen & Espelid, ACM TOMS 17, 1991) exceeds _CURVATURE_RTOL times
    the largest ring value times its width.  Each of a panel's rings
    r = e^s integrates r^2 times the density over theta by the periodic
    trapezoid rule of period (_trapezoid), from nth angles, doubled on the
    rings that need it (_rings).  The density takes 2 evaluations of g per
    node, at r e^{i theta} +- _DENSITY_STEP (1 + r).  For a meromorphic g of
    degree d the value tends to -4 pi d as the annulus exhausts the plane.

    The caps bound the refinement: a ring that would need more than
    _RING_NODES angles, or a step that would take the call past
    _CURVATURE_NODES density nodes, raises QuadratureError naming r, theta
    and the estimate.  A non-finite integrand raises at its first node.  The
    block size of the density's passes changes no bit of the result.
    """
    check_curvature_domain(annulus)
    lo, hi = np.log(annulus[0]), np.log(annulus[1])
    count, nth = -(-_CURVATURE_GRID[0] // NODES), _CURVATURE_GRID[1]
    left = lo + (hi - lo) * np.arange(count) / count
    width = np.full(count, (hi - lo) / count)
    used, top, parts = 0, 0.0, []
    unit_nodes, wt, null, _ = _legendre()
    with np.errstate(all="ignore"):
        while True:
            s = left[:, None] + width[:, None] * unit_nodes
            value, n, used, top = _rings(w, s.ravel(), nth, used, top)
            value, n = value.reshape(s.shape), n.reshape(s.shape)
            est = width * np.sum(np.abs(value @ null.T), axis=1)
            tol = _CURVATURE_RTOL * top * width
            miss = est > tol
            parts.extend(width[~miss] * (value[~miss] @ wt))
            if not miss.any():
                return -4.0 * math.fsum(parts)
            # Each half of a missed panel has as many rings as the whole,
            # nearer to what the whole missed: a round is begun only if it
            # can take twice the nodes of the panels it bisects.
            if used + 2 * int(n[miss].sum()) > _CURVATURE_NODES:
                p = int(np.argmax(np.where(miss, est / tol, -np.inf)))
                k = int(np.argmax(value[p]))
                raise _unsettled(w, f"{_CURVATURE_NODES} density nodes",
                                 float(np.exp(s[p, k])), int(n[p, k]),
                                 float(est[p]), float(tol[p]))
            half = 0.5 * width[miss]
            left = np.column_stack([left[miss], left[miss] + half]).ravel()
            width = np.repeat(half, 2)


def integrate_forms(triple: FormTriple, z):
    """Integral of the triple from 0 to z.

    bjorling.segment_integral's error-controlled Gauss-Legendre panels on its
    lattice path (along the real axis, then vertically), which gives the
    straight segment's value for forms analytic on the rectangle between,
    and raises QuadratureError where a point misses its tolerance.  Each
    pass writes the triple's three coefficients straight into the pass's
    value planes.  Returns a (..., 3) complex array; on the exp chart its
    real part is the surface displacement X(z) - X(0) of the matching family.
    """
    def integrand(w, out):
        for k, phi in enumerate(triple.func(w)):
            out[..., k] = phi

    return segment_integral(integrand, z)
