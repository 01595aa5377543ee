"""Holomorphic representation layer for the surface families.

Each Björling family carries a triple of holomorphic 1-form coefficients
phi_k (the forms are phi_k dz) satisfying the Lorentzian null condition
phi1^2 + phi2^2 - phi3^2 = 0, held as one function z -> (phi1, phi2, phi3).
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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog
from .bjorling import _PASS_POINTS, QuadratureError, segment_integral
from .catalog import CatalogSurface
from .lorentz import vec3

EXP_CHART = "exp"
PUNCTURED_CHART = "punctured"
LORENTZ = "lorentz"
EUCLID = "euclid"

# period's first trapezoid node count, agreement of two successive passes
# and doublings before it raises; total_curvature's relative agreement with
# its half-resolution grid, and its difference step over 1 + r (near
# eps^(1/3), where truncation and rounding errors balance).
_PERIOD_NODES, _PERIOD_TOL, _PERIOD_DOUBLINGS = 256, 1e-10, 6
_CURVATURE_RTOL, _DENSITY_STEP = 0.05, 4e-6


def cpow(z, a):
    """Principal-branch power with an exact path for integer exponents
    (z itself for 1, which numpy would send through its general loop)."""
    z = np.asarray(z, dtype=complex)
    n = round(a)
    if abs(a - n) < 1e-12:
        return z if n == 1 else z ** int(n)
    return z ** a


@dataclass(frozen=True)
class FormTriple:
    """Three analytic 1-form coefficients sharing a chart and a signature.

    func maps a complex array z to the tuple (phi1, phi2, phi3) of
    coefficients at z; signature says which null condition the triple
    satisfies ("lorentz": +,+,-; "euclid": +,+,+); singularities lists the
    points of the chart where the coefficients are not analytic (period
    loops must avoid them).
    """

    func: Callable
    chart: str = EXP_CHART
    signature: str = LORENTZ
    singularities: tuple = ()
    label: str = ""

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return np.stack([np.asarray(c, dtype=complex) for c in self.func(z)],
                        axis=-1)

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


def _forms_bending_timelike(a):
    def forms(z):
        s, c, ch = np.sin(z), np.cos(z), np.cosh(a * z)
        return -s - 1j * c * ch, c - 1j * s * ch, 1j * np.sinh(a * z)

    return forms


def _forms_bending_spacelike_exp(a):
    def forms(z):
        ch, sh, sha = np.cosh(z), np.sinh(z), np.sinh(a * z)
        return (-1j * np.cosh(a * z), ch - 1j * sh * sha,
                sh - 1j * ch * sha)

    return forms


def _forms_bending_spacelike_punctured(a):
    # Every power of z comes from z^a and z^2: on the principal branch all
    # of them share Log z, so z^(2a) = z^a z^a, z^(a+2) = z^a z^2 and so on.
    def forms(z):
        za, z2 = cpow(z, a), z * z
        zaa, zaz2 = za * za, za * z2
        return (-1j * (zaa + 1.0) / (2.0 * (za * z)),
                (-1j * (zaa * z2) + 1j * zaa + 2.0 * zaz2 + 2.0 * za
                 + 1j * z2 - 1j) / (4.0 * zaz2),
                (-1j * (zaa * z2) - 1j * zaa + 2.0 * zaz2 - 2.0 * za
                 + 1j * z2 + 1j) / (4.0 * zaz2))

    return forms


def _forms_lightlike(a):
    ca, sa = np.cosh(a), np.sinh(a)

    def forms(z):
        z2 = z * z
        return (z + 0.5j * ((z2 - 2.0) * ca - z2 * sa),
                1.0 + 1j * z * (ca - sa),
                z + 0.5j * (z2 * ca - (z2 + 2.0) * sa))

    return forms


def _forms_helicoidal_timelike(a, lam, mu):
    def forms(z):
        s, c, ch = np.sin(z), np.cos(z), np.cosh(a * z)
        sh = np.sinh(a * z)
        t = 1.0 + 1j * lam * sh
        return (1j * mu * c * ch - s * t, c * t + 1j * mu * s * ch,
                lam + 1j * sh)

    return forms


def _forms_helicoidal_spacelike_i_exp(a, lam, mu):
    def forms(z):
        ch, sh = np.cosh(z), np.sinh(z)
        cha, sha = np.cosh(a * z), np.sinh(a * z)
        return (lam + 1j * sha, sh + 1j * (lam * sh * sha - mu * ch * cha),
                ch + 1j * (lam * ch * sha - mu * sh * cha))

    return forms


def _forms_helicoidal_spacelike_i_punctured(a, lam, mu):
    def forms(z):
        za, z2 = cpow(z, a), z * z
        zaa, zaz2 = za * za, za * z2
        return ((1j * zaa + 2.0 * lam * za - 1j) / (2.0 * (za * z)),
                (1j * (lam - mu) * (zaa * z2 + 1.0)
                 - 1j * (lam + mu) * (zaa + z2)
                 + 2.0 * zaz2 - 2.0 * za) / (4.0 * zaz2),
                (1j * (lam - mu) * (zaa * z2 - 1.0)
                 + 1j * (lam + mu) * (zaa - z2)
                 + 2.0 * zaz2 + 2.0 * za) / (4.0 * zaz2))

    return forms


def _forms_helicoidal_spacelike_ii_exp(a, lam, mu):
    def forms(z):
        ch, sh = np.cosh(z), np.sinh(z)
        cha, sha = np.cosh(a * z), np.sinh(a * z)
        return (lam - 1j * cha, ch + 1j * (lam * ch * cha - mu * sh * sha),
                sh + 1j * (lam * sh * cha - mu * ch * sha))

    return forms


def _forms_helicoidal_spacelike_ii_punctured(a, lam, mu):
    def forms(z):
        za, z2 = cpow(z, a), z * z
        zaa, zaz2 = za * za, za * z2
        return ((-1j * zaa + 2.0 * lam * za - 1j) / (2.0 * (za * z)),
                (1j * (lam - mu) * (zaa * z2 + 1.0)
                 + 1j * (lam + mu) * (zaa + z2)
                 + 2.0 * zaz2 + 2.0 * za) / (4.0 * zaz2),
                (1j * (lam - mu) * (zaa * z2 - 1.0)
                 - 1j * (lam + mu) * (zaa - z2)
                 + 2.0 * zaz2 - 2.0 * za) / (4.0 * zaz2))

    return forms


def integer_twist(surface: CatalogSurface) -> bool:
    """Whether the twist rate is integral (punctured forms are rational)."""
    return abs(surface.a - round(surface.a)) <= 1e-9


@dataclass(frozen=True)
class Representation:
    """The holomorphic facts of one family, as functions of the surface:
    the form map on each chart (the constant-twist rotational
    surfaces have theirs through the lightlike family only); the real part
    of the phi2 period around the unit circle at twist rate 1, the only
    nonzero real period at integer rate; and the chart and total curvature
    of the dual surface, or None where there is no closed-form target."""

    exp: Callable | None = None
    punctured: Callable | None = None
    unit_period: Callable | None = None
    curvature: Callable = lambda s: None


REPRESENTATIONS = {
    catalog.BENDING_TIMELIKE: Representation(
        lambda s: _forms_bending_timelike(s.a)),
    catalog.BENDING_SPACELIKE: Representation(
        lambda s: _forms_bending_spacelike_exp(s.a),
        lambda s: _forms_bending_spacelike_punctured(s.a),
        unit_period=lambda s: -np.pi,
        curvature=lambda s: (
            (PUNCTURED_CHART, -4.0 * np.pi * (round(s.a) + 1))
            if integer_twist(s) else None)),
    catalog.LIGHTLIKE_ROTATIONAL: Representation(
        lambda s: _forms_lightlike(s.a),
        curvature=lambda s: (EXP_CHART, -4.0 * np.pi)),
    catalog.HELICOIDAL_TIMELIKE: Representation(
        lambda s: _forms_helicoidal_timelike(s.a, s.lam, s.mu)),
    catalog.HELICOIDAL_SPACELIKE_I: Representation(
        lambda s: _forms_helicoidal_spacelike_i_exp(s.a, s.lam, s.mu),
        lambda s: _forms_helicoidal_spacelike_i_punctured(s.a, s.lam, s.mu),
        unit_period=lambda s: np.pi * (s.lam + s.mu)),
    catalog.HELICOIDAL_SPACELIKE_II: Representation(
        lambda s: _forms_helicoidal_spacelike_ii_exp(s.a, s.lam, s.mu),
        lambda s: _forms_helicoidal_spacelike_ii_punctured(s.a, s.lam, s.mu),
        unit_period=lambda s: -np.pi * (s.lam + s.mu)),
    catalog.ELLIPTIC_CATENOID: Representation(),
    catalog.HYPERBOLIC_CATENOID: Representation(),
    catalog.HELICOIDAL_TIMELIKE_CONSTANT: Representation(),
    catalog.ENNEPER_SECOND_KIND: Representation(),
}


def forms_for(surface: CatalogSurface, chart: str = EXP_CHART) -> FormTriple:
    """Holomorphic form triple of a catalog surface on a chart, for the
    families and charts that REPRESENTATIONS covers."""
    fam = surface.family
    if chart not in (EXP_CHART, PUNCTURED_CHART):
        raise ValueError(f"unknown chart {chart!r}")
    rep = REPRESENTATIONS[fam]
    maker = rep.exp if chart == EXP_CHART else rep.punctured
    if maker is None:
        raise ValueError(f"{fam} has no punctured-chart forms"
                         if chart == PUNCTURED_CHART else
                         f"{fam} has no holomorphic form triple here")
    return FormTriple(maker(surface), chart=chart,
                      singularities=(0j,) if chart == PUNCTURED_CHART else (),
                      label=f"forms:{fam}:{chart}")


def probe_ring(n: int):
    """n equally spaced points on the circle |z - 0.07i| = 0.8.

    The ring stays clear of the real-axis zeros of omega and of the
    punctured-chart origin; form identities are sampled on it.
    """
    k = np.arange(n)
    return 0.8 * np.exp(2j * np.pi * k / n) + 0.07j


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
    """Counterclockwise circle for contour integrals."""

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"loop radius must be positive, got {self.radius}")


def period(triple: FormTriple, k, loop: Loop):
    """Contour integral of the k-th component (1-based) around the loop.

    Trapezoidal rule on the circle, node count doubled from _PERIOD_NODES
    until two successive values agree to _PERIOD_TOL; spectrally accurate
    for the rational forms the punctured chart produces at integer twist
    rate.  For a sequence of indices k, returns a list with, for each, the
    value or the QuadratureError that the index alone raises: the triple is
    evaluated once per node count for all the components still running, and
    each stops at its own node count, so each entry has the bits of its own
    call.
    """
    if triple.chart != PUNCTURED_CHART:
        raise ValueError("periods are taken on the punctured chart")
    single = isinstance(k, (int, np.integer))
    ks = [k] if single else list(k)
    for c in ks:
        if not 1 <= c <= 3:
            raise ValueError(f"component index must be 1, 2 or 3, got {c}")
    for s in triple.singularities:
        if abs(abs(s - loop.center) - loop.radius) < 1e-9 * (1.0 + loop.radius):
            raise ValueError(f"loop passes through the singularity at {s}")
    forms = triple.func

    def contour(n, running):
        th = 2.0 * np.pi * np.arange(n) / n
        z = loop.center + loop.radius * np.exp(1j * th)
        dz = 1j * (z - loop.center)
        phi = forms(z)
        return {c: np.sum(phi[c - 1] * dz) * (2.0 * np.pi / n)
                for c in running}

    n, running, done = _PERIOD_NODES, list(dict.fromkeys(ks)), {}
    val = contour(n, running)
    for _ in range(_PERIOD_DOUBLINGS):
        n *= 2
        nxt = contour(n, running)
        for c in running:
            if abs(nxt[c] - val[c]) <= _PERIOD_TOL * (1.0 + abs(nxt[c])):
                done[c] = complex(nxt[c])
        running = [c for c in running if c not in done]
        if not running:
            break
        val = nxt
    for c in running:
        done[c] = QuadratureError(
            f"contour integral did not settle after {n} nodes", z=loop.center)
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


def check_curvature_domain(annulus, grid):
    """Raise ValueError unless 0 < r_in < r_out and both grid sides are even
    (for the half-resolution restriction) and at least 8."""
    if not 0 < annulus[0] < annulus[1]:
        raise ValueError(f"annulus needs 0 < r_in < r_out, got {annulus}")
    if any(n < 8 or n % 2 for n in grid):
        raise ValueError(f"curvature grid sides must be even and at least 8, "
                         f"got {grid}")


def total_curvature(w: WeierstrassData, annulus, grid=(400, 256)) -> float:
    """Total curvature -4 * integral of the spherical density over an annulus.

    The annulus (r_in, r_out) is centered at 0 and sampled on a log-radial
    trapezoid grid; the value is checked against its own half-resolution
    restriction and must agree to _CURVATURE_RTOL.  For a meromorphic g of
    degree d the value tends to -4 pi d as the annulus exhausts the plane.

    The density is evaluated in blocks of whole grid rows, at most
    _PASS_POINTS points each (one row when a row holds more), so that the
    stencil's arrays stay in cache, at the nodes r e^{i theta} with step
    _DENSITY_STEP (1 + r): 2 evaluations of g per node.  Each block adds the
    fine and coarse sums of its r^2-weighted rows as it goes; each point's
    density depends on that point alone and each row sum on its row alone,
    so the block size changes no bit of the result.  A non-finite integrand
    raises at its first node.
    """
    check_curvature_domain(annulus, grid)
    r_in, r_out = annulus
    nr, nth = grid
    s = np.linspace(np.log(r_in), np.log(r_out), nr + 1)
    th = 2.0 * np.pi * np.arange(nth) / nth
    r, e = np.exp(s), np.exp(1j * th)
    h = _DENSITY_STEP * (1.0 + r)
    sums = np.empty((2, nr + 1))  # fine and coarse sum of each row
    rows = max(1, _PASS_POINTS // nth)
    with np.errstate(all="ignore"):
        for i in range(0, nr + 1, rows):
            radial = _spherical_density(
                w, r[i:i + rows, None] * e[None, :],
                h[i:i + rows, None]) * np.exp(2.0 * s[i:i + rows, None])
            if not np.isfinite(radial).all():
                k, j = divmod(int(np.argmin(np.isfinite(radial))), nth)
                raise QuadratureError(
                    f"total curvature integrand is not finite at "
                    f"r = {r[i + k]:.6g}, theta = {th[j]:.6g}",
                    z=complex(r[i + k] * e[j]))
            sums[0, i:i + rows] = radial.sum(axis=1)
            sums[1, i:i + rows] = radial[:, ::2].sum(axis=1)

    def trapezoid(row_sums, ds, dth):
        wts = np.full(row_sums.size, 1.0)
        wts[0] = wts[-1] = 0.5
        return float(np.sum(row_sums * wts) * ds * dth)

    ds = (s[-1] - s[0]) / nr
    dth = 2.0 * np.pi / nth
    fine = trapezoid(sums[0], ds, dth)
    coarse = trapezoid(sums[1, ::2], 2.0 * ds, 2.0 * dth)
    if abs(fine - coarse) > _CURVATURE_RTOL * (abs(fine) + 1e-12):
        raise QuadratureError("curvature grid too coarse for the requested "
                              f"tolerance ({coarse:g} vs {fine:g})")
    return -4.0 * fine


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
