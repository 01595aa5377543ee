"""Holomorphic representation layer for the surface families.

Each Björling family carries a triple of holomorphic 1-form coefficients
phi_k (the forms are phi_k dz) satisfying the Lorentzian null condition
phi1^2 + phi2^2 - phi3^2 = 0.  From the triple the Weierstrass pair
(g, omega) follows as g = phi3/(phi1 - i phi2), omega = (phi1 - i phi2) dz,
and the triple is recovered from the pair.  Multiplying the first two
components by i turns a Lorentzian triple into a Euclidean-minimal one (the
dual surface); the pair transforms as (g, omega) -> (-i g, i omega).

Charts.  The "exp" chart uses the complexified curve parameter, where the
forms of the circle families are 2 pi periodic in the real direction.  For
the spacelike-axis families the substitution that replaces e^z by the
coordinate itself turns the strip into the punctured plane; in that
"punctured" chart the forms are rational for integer twist rate, which is
where residues and period integrals live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bjorling import QuadratureError, _gauss_legendre
from .catalog import (BENDING_SPACELIKE, BENDING_TIMELIKE, CatalogSurface,
                      HELICOIDAL_SPACELIKE_I, HELICOIDAL_SPACELIKE_II,
                      HELICOIDAL_TIMELIKE, LIGHTLIKE_ROTATIONAL)
from .lorentz import vec3

EXP_CHART = "exp"
PUNCTURED_CHART = "punctured"
LORENTZ = "lorentz"
EUCLID = "euclid"

# Families whose forms are implemented; the constant-twist rotational
# surfaces reach their forms through the lightlike family only.
_PUNCTURED_FAMILIES = (BENDING_SPACELIKE, HELICOIDAL_SPACELIKE_I,
                       HELICOIDAL_SPACELIKE_II)


def cpow(z, a):
    """Principal-branch power with an exact path for integer exponents."""
    z = np.asarray(z, dtype=complex)
    n = round(a)
    if abs(a - n) < 1e-12:
        return z ** int(n)
    return z ** a


@dataclass(frozen=True)
class FormTriple:
    """Three analytic 1-form coefficients sharing a chart and a signature.

    components holds callables z -> complex; signature says which null
    condition the triple satisfies ("lorentz": +,+,-; "euclid": +,+,+);
    singularities lists the points of the chart where the coefficients are
    not analytic (period loops must avoid them).
    """

    components: tuple
    chart: str = EXP_CHART
    signature: str = LORENTZ
    singularities: tuple = ()
    label: str = ""

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return np.stack(
            [np.asarray(c(z), dtype=complex) for c in self.components], axis=-1)

    def null_residual(self, z):
        """Pointwise defect of the null condition for this signature."""
        p = self(z)
        q = p[..., 0] ** 2 + p[..., 1] ** 2
        if self.signature == LORENTZ:
            return np.abs(q - p[..., 2] ** 2)
        return np.abs(q + p[..., 2] ** 2)


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
    def p1(z):
        return -np.sin(z) - 1j * np.cos(z) * np.cosh(a * z)

    def p2(z):
        return np.cos(z) - 1j * np.sin(z) * np.cosh(a * z)

    def p3(z):
        return 1j * np.sinh(a * z)

    return p1, p2, p3


def _forms_bending_spacelike_exp(a):
    def p1(z):
        return -1j * np.cosh(a * z)

    def p2(z):
        return np.cosh(z) - 1j * np.sinh(z) * np.sinh(a * z)

    def p3(z):
        return np.sinh(z) - 1j * np.cosh(z) * np.sinh(a * z)

    return p1, p2, p3


def _forms_bending_spacelike_punctured(a):
    def p1(z):
        return -1j * (cpow(z, 2 * a) + 1.0) / (2.0 * cpow(z, a + 1))

    def p2(z):
        return (-1j * cpow(z, 2 * a + 2) + 1j * cpow(z, 2 * a)
                + 2.0 * cpow(z, a + 2) + 2.0 * cpow(z, a)
                + 1j * z * z - 1j) / (4.0 * cpow(z, a + 2))

    def p3(z):
        return (-1j * cpow(z, 2 * a + 2) - 1j * cpow(z, 2 * a)
                + 2.0 * cpow(z, a + 2) - 2.0 * cpow(z, a)
                + 1j * z * z + 1j) / (4.0 * cpow(z, a + 2))

    return p1, p2, p3


def _forms_lightlike(a):
    ca, sa = np.cosh(a), np.sinh(a)

    def p1(z):
        return z + 0.5j * ((z * z - 2.0) * ca - z * z * sa)

    def p2(z):
        return 1.0 + 1j * z * (ca - sa)

    def p3(z):
        return z + 0.5j * (z * z * ca - (z * z + 2.0) * sa)

    return p1, p2, p3


def _forms_helicoidal_timelike(a, lam, mu):
    def p1(z):
        return 1j * mu * np.cos(z) * np.cosh(a * z) \
            - np.sin(z) * (1.0 + 1j * lam * np.sinh(a * z))

    def p2(z):
        return np.cos(z) * (1.0 + 1j * lam * np.sinh(a * z)) \
            + 1j * mu * np.sin(z) * np.cosh(a * z)

    def p3(z):
        return lam + 1j * np.sinh(a * z)

    return p1, p2, p3


def _forms_helicoidal_spacelike_i_exp(a, lam, mu):
    def p1(z):
        return lam + 1j * np.sinh(a * z)

    def p2(z):
        return np.sinh(z) + 1j * (lam * np.sinh(z) * np.sinh(a * z)
                                  - mu * np.cosh(z) * np.cosh(a * z))

    def p3(z):
        return np.cosh(z) + 1j * (lam * np.cosh(z) * np.sinh(a * z)
                                  - mu * np.sinh(z) * np.cosh(a * z))

    return p1, p2, p3


def _forms_helicoidal_spacelike_i_punctured(a, lam, mu):
    def p1(z):
        return (1j * cpow(z, 2 * a) + 2.0 * lam * cpow(z, a) - 1j) \
            / (2.0 * cpow(z, a + 1))

    def p2(z):
        return (1j * (lam - mu) * (cpow(z, 2 * a + 2) + 1.0)
                - 1j * (lam + mu) * (cpow(z, 2 * a) + z * z)
                + 2.0 * cpow(z, a + 2) - 2.0 * cpow(z, a)) \
            / (4.0 * cpow(z, a + 2))

    def p3(z):
        return (1j * (lam - mu) * (cpow(z, 2 * a + 2) - 1.0)
                + 1j * (lam + mu) * (cpow(z, 2 * a) - z * z)
                + 2.0 * cpow(z, a + 2) + 2.0 * cpow(z, a)) \
            / (4.0 * cpow(z, a + 2))

    return p1, p2, p3


def _forms_helicoidal_spacelike_ii_exp(a, lam, mu):
    def p1(z):
        return lam - 1j * np.cosh(a * z)

    def p2(z):
        return np.cosh(z) + 1j * (lam * np.cosh(z) * np.cosh(a * z)
                                  - mu * np.sinh(z) * np.sinh(a * z))

    def p3(z):
        return np.sinh(z) + 1j * (lam * np.sinh(z) * np.cosh(a * z)
                                  - mu * np.cosh(z) * np.sinh(a * z))

    return p1, p2, p3


def _forms_helicoidal_spacelike_ii_punctured(a, lam, mu):
    def p1(z):
        return (-1j * cpow(z, 2 * a) + 2.0 * lam * cpow(z, a) - 1j) \
            / (2.0 * cpow(z, a + 1))

    def p2(z):
        return (1j * (lam - mu) * (cpow(z, 2 * a + 2) + 1.0)
                + 1j * (lam + mu) * (cpow(z, 2 * a) + z * z)
                + 2.0 * cpow(z, a + 2) + 2.0 * cpow(z, a)) \
            / (4.0 * cpow(z, a + 2))

    def p3(z):
        return (1j * (lam - mu) * (cpow(z, 2 * a + 2) - 1.0)
                - 1j * (lam + mu) * (cpow(z, 2 * a) - z * z)
                + 2.0 * cpow(z, a + 2) - 2.0 * cpow(z, a)) \
            / (4.0 * cpow(z, a + 2))

    return p1, p2, p3


def forms_for(surface: CatalogSurface, chart: str = EXP_CHART) -> FormTriple:
    """Holomorphic form triple of a Björling-derived catalog surface.

    The constant-twist rotational catenoids and the constant-twist helicoid
    are not covered (their closed forms are reached directly); ask for the
    lightlike or twisted families.  The punctured chart exists for the
    spacelike-axis families only.
    """
    fam = surface.family
    if chart not in (EXP_CHART, PUNCTURED_CHART):
        raise ValueError(f"unknown chart {chart!r}")
    if chart == PUNCTURED_CHART:
        if fam not in _PUNCTURED_FAMILIES:
            raise ValueError(f"{fam} has no punctured-chart forms")
        if fam == BENDING_SPACELIKE:
            comps = _forms_bending_spacelike_punctured(surface.a)
        elif fam == HELICOIDAL_SPACELIKE_I:
            comps = _forms_helicoidal_spacelike_i_punctured(
                surface.a, surface.lam, surface.mu)
        else:
            comps = _forms_helicoidal_spacelike_ii_punctured(
                surface.a, surface.lam, surface.mu)
        return FormTriple(comps, chart=PUNCTURED_CHART, singularities=(0j,),
                          label=f"forms:{fam}:punctured")
    if fam == BENDING_TIMELIKE:
        comps = _forms_bending_timelike(surface.a)
    elif fam == BENDING_SPACELIKE:
        comps = _forms_bending_spacelike_exp(surface.a)
    elif fam == LIGHTLIKE_ROTATIONAL:
        comps = _forms_lightlike(surface.a)
    elif fam == HELICOIDAL_TIMELIKE:
        comps = _forms_helicoidal_timelike(surface.a, surface.lam, surface.mu)
    elif fam == HELICOIDAL_SPACELIKE_I:
        comps = _forms_helicoidal_spacelike_i_exp(surface.a, surface.lam, surface.mu)
    elif fam == HELICOIDAL_SPACELIKE_II:
        comps = _forms_helicoidal_spacelike_ii_exp(surface.a, surface.lam, surface.mu)
    else:
        raise ValueError(f"{fam} has no holomorphic form triple here")
    return FormTriple(comps, chart=EXP_CHART, label=f"forms:{fam}:exp")


# Fixed probe ring used to detect an identically vanishing omega.
_PROBE = tuple(0.8 * np.exp(2j * np.pi * k / 7.0) + 0.07j for k in range(7))


def weierstrass_pair(triple: FormTriple) -> WeierstrassData:
    """Extract (g, omega) from a form triple, either signature.

    g = p3/(p1 - i p2) and omega = (p1 - i p2) dz; the same quotient works
    for the Euclidean flavor.  Raises when omega vanishes on the whole probe
    ring (planar degenerate triple).
    """
    p1, p2, p3 = triple.components

    def f(z):
        return p1(z) - 1j * p2(z)

    probe = np.array([f(z) for z in _PROBE])
    if np.max(np.abs(probe)) < 1e-13:
        raise ValueError("omega vanishes identically; the pair is undefined")

    def g(z):
        return p3(z) / f(z)

    return WeierstrassData(g=g, f=f, chart=triple.chart,
                           signature=triple.signature,
                           singularities=triple.singularities,
                           label=triple.label)


def reconstruct_forms(w: WeierstrassData) -> FormTriple:
    """Form triple built back from a Weierstrass pair."""
    gg, ff = w.g, w.f
    if w.signature == LORENTZ:
        def p1(z):
            return 0.5 * (1.0 + gg(z) ** 2) * ff(z)

        def p2(z):
            return 0.5j * (1.0 - gg(z) ** 2) * ff(z)
    else:
        def p1(z):
            return 0.5 * (1.0 - gg(z) ** 2) * ff(z)

        def p2(z):
            return 0.5j * (1.0 + gg(z) ** 2) * ff(z)

    def p3(z):
        return gg(z) * ff(z)

    return FormTriple((p1, p2, p3), chart=w.chart, signature=w.signature,
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
    p1, p2, p3 = t.components
    if t.signature == LORENTZ:
        comps = (lambda z: 1j * p1(z), lambda z: 1j * p2(z), p3)
        sig = EUCLID
    else:
        comps = (lambda z: -1j * p1(z), lambda z: -1j * p2(z), p3)
        sig = LORENTZ
    if t.label.endswith(":dual"):
        label = t.label[:-len(":dual")]
    else:
        label = t.label + ":dual"
    return FormTriple(comps, chart=t.chart, signature=sig,
                      singularities=t.singularities, label=label)


@dataclass(frozen=True)
class Loop:
    """Counterclockwise circle for contour integrals."""

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"loop radius must be positive, got {self.radius}")


def period(triple: FormTriple, k: int, loop: Loop, nodes: int = 256,
           tol: float = 1e-10, max_doublings: int = 6) -> complex:
    """Contour integral of the k-th component (1-based) around the loop.

    Trapezoidal rule on the circle, node count doubled until two successive
    values agree to tol; spectrally accurate for the rational forms the
    punctured chart produces at integer twist rate.
    """
    if triple.chart != PUNCTURED_CHART:
        raise ValueError("periods are taken on the punctured chart")
    if not 1 <= k <= 3:
        raise ValueError(f"component index must be 1, 2 or 3, got {k}")
    for s in triple.singularities:
        if abs(abs(s - loop.center) - loop.radius) < 1e-9 * (1.0 + loop.radius):
            raise ValueError(f"loop passes through the singularity at {s}")
    comp = triple.components[k - 1]

    def contour(n):
        th = 2.0 * np.pi * np.arange(n) / n
        z = loop.center + loop.radius * np.exp(1j * th)
        dz = 1j * (z - loop.center)
        return np.sum(comp(z) * dz) * (2.0 * np.pi / n)

    val = contour(nodes)
    n = nodes
    for _ in range(max_doublings):
        n *= 2
        nxt = contour(n)
        if abs(nxt - val) <= tol * (1.0 + abs(nxt)):
            return complex(nxt)
        val = nxt
    raise QuadratureError(
        f"contour integral did not settle after {n} nodes", z=loop.center)


def complex_derivative(func, z, h=None):
    """Derivative of an analytic function by Richardson central differences."""
    z = np.asarray(z, dtype=complex)
    if h is None:
        h = 1e-5 * (1.0 + np.abs(z))

    def cd(step):
        return (func(z + step) - func(z - step)) / (2.0 * step)

    return (4.0 * cd(h / 2.0) - cd(h)) / 3.0


def _spherical_density(w: WeierstrassData, z):
    """|g'|^2 / (1 + |g|^2)^2, the pullback density of the round metric.

    Where |g| > 1 the same density is computed from 1/g, which is analytic
    across the poles of g, keeping the finite differences well conditioned.
    """
    gz = np.asarray(w.g(z))
    dens = np.empty(gz.shape, dtype=float)
    big = np.abs(gz) > 1.0
    small = ~big
    if np.any(small):
        d = complex_derivative(w.g, z[small])
        dens[small] = np.abs(d) ** 2 / (1.0 + np.abs(gz[small]) ** 2) ** 2
    if np.any(big):
        def inv(zz):
            return 1.0 / w.g(zz)

        d = complex_derivative(inv, z[big])
        hz = 1.0 / gz[big]
        dens[big] = np.abs(d) ** 2 / (1.0 + np.abs(hz) ** 2) ** 2
    return dens


def total_curvature(w: WeierstrassData, annulus, grid=(400, 256),
                    rel_tol: float = 0.05) -> float:
    """Total curvature -4 * integral of the spherical density over an annulus.

    The annulus (r_in, r_out) is centered at 0 and sampled on a log-radial
    trapezoid grid; the value is checked against its own half-resolution
    restriction and must agree to rel_tol.  For a meromorphic g of degree d
    the value tends to -4 pi d as the annulus exhausts the plane.
    """
    r_in, r_out = annulus
    if not 0 < r_in < r_out:
        raise ValueError(f"need 0 < r_in < r_out, got {annulus}")
    nr, nth = grid
    if nr < 8 or nth < 8 or nr % 2 or nth % 2:
        raise ValueError(f"grid sides must be even and at least 8, got {grid}")
    s = np.linspace(np.log(r_in), np.log(r_out), nr + 1)
    th = 2.0 * np.pi * np.arange(nth) / nth
    z = np.exp(s[:, None] + 1j * th[None, :])
    dens = _spherical_density(w, z)
    radial = dens * np.exp(2.0 * s)[:, None]

    def trapezoid(block, ds, dth):
        wts = np.full(block.shape[0], 1.0)
        wts[0] = wts[-1] = 0.5
        return float(np.sum(block * wts[:, None]) * ds * dth)

    ds = (s[-1] - s[0]) / nr
    dth = 2.0 * np.pi / nth
    fine = trapezoid(radial, ds, dth)
    coarse = trapezoid(radial[::2, ::2], 2.0 * ds, 2.0 * dth)
    if abs(fine - coarse) > rel_tol * (abs(fine) + 1e-12):
        raise QuadratureError("curvature grid too coarse for the requested "
                              f"tolerance ({coarse:g} vs {fine:g})")
    return -4.0 * fine


def integrate_forms(triple: FormTriple, z, z0=0.0, nodes: int = 64):
    """Gauss-Legendre integral of the triple along the segment z0 -> z.

    Returns a (..., 3) complex array; on the exp chart its real part is the
    surface displacement X(z) - X(z0) of the matching family.
    """
    span = np.asarray(z, dtype=complex) - z0
    return _gauss_legendre(triple, z0, span, nodes)[0] * span[..., None]
