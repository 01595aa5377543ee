"""Closed-form catalog of the maximal surfaces the solver can also reach.

Each entry evaluates an explicit parametrization X(u, v), transcribed once,
with (u, v) the conformal parameters of the Björling construction (the core
curve sits at v = 0, except for the rotational orbit surface, whose core
circle sits at v = -1/2).  Families:

    bending-timelike(a)                circle, timelike axis, twist a*t
    bending-spacelike(a)               circle, spacelike axis, twist a*t
    lightlike-rotational(a)            circle, lightlike axis, constant twist
    helicoidal-timelike(a, lam)        helix, timelike axis, twist a*t
    helicoidal-spacelike-i(a, lam)     helix type I, spacelike axis, twist a*t
    helicoidal-spacelike-ii(a, lam)    helix type II, spacelike axis, twist a*t
    elliptic-catenoid(a)               circle, timelike axis, constant twist
    hyperbolic-catenoid(a)             circle, spacelike axis, constant twist
    helicoidal-timelike-constant(a, lam)  helix, timelike axis, constant twist
    enneper-second-kind(cubic, offset) orbit of a cubic generating curve
                                       under the parabolic rotation group

The spacelike-axis twisted families' removable singularity at a = 1 sits
in a v sinc((a - 1) v) factor of their kernels, exact at a = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import frames, motions
from .bjorling import COMPLEX_STEP_MIN_TWIST, SurfacePatch
from .lorentz import vec3

BENDING_TIMELIKE = "bending-timelike"
BENDING_SPACELIKE = "bending-spacelike"
LIGHTLIKE_ROTATIONAL = "lightlike-rotational"
HELICOIDAL_TIMELIKE = "helicoidal-timelike"
HELICOIDAL_SPACELIKE_I = "helicoidal-spacelike-i"
HELICOIDAL_SPACELIKE_II = "helicoidal-spacelike-ii"
ELLIPTIC_CATENOID = "elliptic-catenoid"
HYPERBOLIC_CATENOID = "hyperbolic-catenoid"
HELICOIDAL_TIMELIKE_CONSTANT = "helicoidal-timelike-constant"
ENNEPER_SECOND_KIND = "enneper-second-kind"


@dataclass(frozen=True)
class Param:
    """A CatalogSurface field that a family reads: its range as text and as
    a test, and the value `maxsurf` uses when none is given."""

    name: str
    text: str = "real"
    test: Callable[[float], bool] = lambda value: True
    default: float | None = None

    def check(self, family: str, value):
        if not self.test(value):
            raise ValueError(f"{family} needs {self.text}, got {value}")


@dataclass(frozen=True)
class Family:
    """The geometry facts of one family.

    curve and twist name its Björling data, a frames curve tag and a
    normal-field kind (None for the orbit surface).  group maps a surface
    to the motion group that acts on it by a shift in u.  orbit_of is the
    lightlike twist an orbit surface can be derived from.
    """

    params: tuple
    domain: tuple
    evaluate: Callable
    curve: str | None = None
    twist: str | None = None
    group: Callable | None = None
    orbit_of: Param | None = None
    verify_domain: tuple | None = None  # None: the domain


def _bjorling(curve, twist, domain, evaluate, lam=None, group=None):
    """A family of Björling surfaces, with lam the default helix pitch."""
    params = (Param("a", *frames.TWIST_RANGES[twist], 1.0),)
    if lam is not None:
        params += (Param("lam", *frames.PITCH_RANGES[curve], lam),)
    return Family(params, domain, evaluate, curve, twist, group,
                  verify_domain=(-1.0, 1.0, -1.0, 1.0))


_CUBIC = Param("cubic", "cubic > 0", lambda cubic: cubic > 0)


@dataclass(frozen=True)
class CatalogSurface:
    """A catalog entry: family id plus its parameters (unused ones stay 0)."""

    family: str
    a: float = 0.0
    lam: float = 0.0
    cubic: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILY_INFO:
            raise ValueError(f"unknown catalog family {self.family!r}")
        for p in FAMILY_INFO[self.family].params:
            p.check(self.family, getattr(self, p.name))

    @property
    def mu(self) -> float:
        """Helix speed for the helicoidal families."""
        tag = FAMILY_INFO[self.family].curve
        if tag not in frames.HELIX_TAGS:
            raise ValueError(f"{self.family} has no helix speed")
        return frames.CurveFamily(tag, self.lam).mu


def bending_timelike(a: float) -> CatalogSurface:
    return CatalogSurface(BENDING_TIMELIKE, a=a)


def bending_spacelike(a: float) -> CatalogSurface:
    return CatalogSurface(BENDING_SPACELIKE, a=a)


def lightlike_rotational(a: float) -> CatalogSurface:
    return CatalogSurface(LIGHTLIKE_ROTATIONAL, a=a)


def helicoidal_timelike(a: float, lam: float) -> CatalogSurface:
    return CatalogSurface(HELICOIDAL_TIMELIKE, a=a, lam=lam)


def helicoidal_spacelike_i(a: float, lam: float) -> CatalogSurface:
    return CatalogSurface(HELICOIDAL_SPACELIKE_I, a=a, lam=lam)


def helicoidal_spacelike_ii(a: float, lam: float) -> CatalogSurface:
    return CatalogSurface(HELICOIDAL_SPACELIKE_II, a=a, lam=lam)


def elliptic_catenoid(a: float) -> CatalogSurface:
    return CatalogSurface(ELLIPTIC_CATENOID, a=a)


def hyperbolic_catenoid(a: float) -> CatalogSurface:
    return CatalogSurface(HYPERBOLIC_CATENOID, a=a)


def helicoidal_timelike_constant(a: float, lam: float) -> CatalogSurface:
    return CatalogSurface(HELICOIDAL_TIMELIKE_CONSTANT, a=a, lam=lam)


def enneper_second_kind(cubic: float, offset: float) -> CatalogSurface:
    return CatalogSurface(ENNEPER_SECOND_KIND, cubic=cubic, offset=offset)


# ---------------------------------------------------------------------------
# timelike-axis twisted families

def _trig_hyp_products(a, u, v):
    """The four mixed products appearing in the timelike-axis surfaces."""
    cau, sau = np.cosh(a * u), np.sinh(a * u)
    cav, sav = np.cos(a * v), np.sin(a * v)
    cu, su = np.cos(u), np.sin(u)
    cv, sv = np.cosh(v), np.sinh(v)
    pa = cau * sav * cu * cv - sau * cav * su * sv
    pb = sau * sav * su * cv + cau * cav * cu * sv
    pc = cau * sav * su * cv + sau * cav * cu * sv
    pd = sau * sav * cu * cv - cau * cav * su * sv
    return pa, pb, pc, pd


def _eval_bending_timelike(a, u, v):
    pa, pb, pc, pd = _trig_hyp_products(a, u, v)
    den = a * a + 1.0
    x = np.cos(u) * np.cosh(v) + (a * pa + pb) / den
    y = np.sin(u) * np.cosh(v) + (a * pc - pd) / den
    z = -np.sinh(a * u) * np.sin(a * v) / a
    return vec3(x, y, z)


def _eval_helicoidal_timelike(a, lam, mu, u, v):
    pa, pb, pc, pd = _trig_hyp_products(a, u, v)
    den = a * a + 1.0
    x = np.cos(u) * np.cosh(v) - ((a * mu + lam) * pa + (mu - a * lam) * pb) / den
    y = np.sin(u) * np.cosh(v) - ((a * mu + lam) * pc + (a * lam - mu) * pd) / den
    z = lam * u - np.sinh(a * u) * np.sin(a * v) / a
    return vec3(x, y, z)


# ---------------------------------------------------------------------------
# spacelike-axis twisted families

def _kernels(a, lam, mu, v):
    """Kernel pair (r, s) of the spacelike-axis surfaces: (1/2)[(mu - lam)
    sin((a + 1) v) / (a + 1) +- (mu + lam) v sinc((a - 1) v)], the
    cancellation-free form of ((a mu + lam) cos v sin av - (a lam + mu)
    sin v cos av) / (a^2 - 1) for r, sines and cosines swapped for s."""
    fast = (mu - lam) * np.sin((a + 1.0) * v) / (a + 1.0)
    slow = (mu + lam) * v * np.sinc((a - 1.0) * v / np.pi)
    return 0.5 * (fast + slow), 0.5 * (fast - slow)


def _hyp_products(a, u):
    cau, sau = np.cosh(a * u), np.sinh(a * u)
    cu, su = np.cosh(u), np.sinh(u)
    return cau * cu, sau * su, cau * su, sau * cu


def _eval_bending_spacelike(a, u, v):
    r, s = _kernels(a, 0.0, 1.0, v)
    cc, ss, cs, sc = _hyp_products(a, u)
    x = np.cosh(a * u) * np.sin(a * v) / a
    y = np.sinh(u) * np.cos(v) + ss * r + cc * s
    z = np.cosh(u) * np.cos(v) + sc * r + cs * s
    return vec3(x, y, z)


def _eval_helicoidal_spacelike_i(a, lam, mu, u, v):
    r, s = _kernels(a, lam, mu, v)
    cc, ss, cs, sc = _hyp_products(a, u)
    x = lam * u - np.sinh(a * u) * np.sin(a * v) / a
    y = np.cosh(u) * np.cos(v) + cc * r + ss * s
    z = np.sinh(u) * np.cos(v) + cs * r + sc * s
    return vec3(x, y, z)


def _eval_helicoidal_spacelike_ii(a, lam, mu, u, v):
    r, s = _kernels(a, lam, mu, v)
    cc, ss, cs, sc = _hyp_products(a, u)
    x = lam * u + np.cosh(a * u) * np.sin(a * v) / a
    y = np.sinh(u) * np.cos(v) + ss * r + cc * s
    z = np.cosh(u) * np.cos(v) + sc * r + cs * s
    return vec3(x, y, z)


# ---------------------------------------------------------------------------
# constant-twist surfaces and the lightlike-axis families

def _eval_elliptic_catenoid(a, u, v):
    radial = np.cosh(a) * np.sinh(v) + np.cosh(v)
    return vec3(np.cos(u) * radial, np.sin(u) * radial,
                -np.sinh(a) * v)


def _eval_hyperbolic_catenoid(a, u, v):
    p = np.sinh(a) * np.sin(v) + np.cos(v)
    return vec3(np.cosh(a) * v,
                np.sinh(u) * p, np.cosh(u) * p)


def _eval_helicoidal_timelike_constant(a, lam, mu, u, v):
    ca, sa = np.cosh(a), np.sinh(a)
    x = -mu * ca * np.cos(u) * np.sinh(v) + lam * sa * np.sin(u) * np.sinh(v) \
        + np.cos(u) * np.cosh(v)
    y = np.cosh(v) * np.sin(u) - mu * ca * np.sin(u) * np.sinh(v) \
        - lam * sa * np.cos(u) * np.sinh(v)
    z = lam * u - np.sinh(a) * v
    return vec3(x, y, z)


def _eval_lightlike_rotational(a, u, v):
    decay = np.sinh(a) - np.cosh(a)
    cubic_part = u * u * v / 2.0 - v**3 / 6.0
    quad = u * u / 2.0 - v * v / 2.0
    x = decay * cubic_part + v * np.cosh(a) + quad - 1.0
    y = u + decay * u * v
    z = decay * cubic_part + v * np.sinh(a) + quad
    return vec3(x, y, z)


def apply_lightlike_rotation(theta, points):
    """Parabolic rotation about the axis (1, 0, 1), broadcast over theta.

    theta may be any shape broadcastable against points[..., 0].
    """
    theta = np.asarray(theta)
    q = 0.5 * theta * theta
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    return vec3((1.0 - q) * x + theta * y + q * z,
                -theta * x + y + theta * z,
                -q * x + theta * y + (q + 1.0) * z)


@dataclass(frozen=True)
class GeneratingCurve:
    """Planar curve (h(v)+v, 0, h(v)-v) with h(v) = cubic*v^3 + offset.

    Its orbit under the parabolic rotation group is a zero mean curvature
    surface exactly when the cubic coefficient is matched to the mean
    curvature ODE of the orbit (see ode_residual).
    """

    cubic: float
    offset: float

    def __post_init__(self):
        _CUBIC.check("generating curve", self.cubic)

    def height(self, v):
        return self.cubic * np.asarray(v) ** 3 + self.offset


def eval_generating_curve(curve: GeneratingCurve, v):
    """Points (h+v, 0, h-v) of the generating curve, shape (..., 3)."""
    v = np.asarray(v)
    h = curve.height(v)
    return vec3(h + v, np.zeros_like(v), h - v)


def generating_curve_for(a: float) -> GeneratingCurve:
    """Constants matching the orbit surface to the lightlike-axis Björling
    surface with constant twist a: the orbit through v = -1/2 is then the
    core circle and the surface normal along it is the prescribed field.
    Raises ValueError where they overflow (a above about 354.9)."""
    with np.errstate(over="ignore", invalid="ignore"):
        offset = -(np.cosh(a) - 2.0 * np.sinh(a)) * (np.sinh(a) + np.cosh(a)) / 3.0
        cubic = 8.0 * offset + 4.0
    if not (np.isfinite(offset) and np.isfinite(cubic)):
        raise ValueError(f"generating curve overflows at a={a:g}: "
                         f"cubic={cubic:g}, offset={offset:g}")
    return GeneratingCurve(cubic=float(cubic), offset=float(offset))


def ode_residual(curve: GeneratingCurve, c: float, b: float, v):
    """Residual of the orbit zero-mean-curvature ODE on the generating curve.

    The curve (s, 0, f(s)) generates a zero mean curvature orbit surface iff
    c*(s-f)^3 + (s-f) = 2s + b for constants c > 0, b.  In the (h, v)
    parametrization s - f = 2v exactly and s = h + v; substituting the
    exact difference keeps the cubed term from amplifying roundoff in h.
    """
    v = np.asarray(v, dtype=float)
    h = curve.height(v)
    diff = 2.0 * v
    return np.abs(c * diff**3 + diff - 2.0 * (h + v) - b)


def _eval_enneper_second_kind(cubic, offset, u, v):
    curve = GeneratingCurve(cubic=cubic, offset=offset)
    beta = eval_generating_curve(curve, v)
    return apply_lightlike_rotation(u, beta)


def lightlike_identification_check(a: float, u, v) -> float:
    """Largest residual tying the orbit surface to the lightlike-axis
    Björling surface with constant twist a.

    Two identities are checked over the given parameter samples: the orbit
    of the matched generating curve through v = -1/2 reproduces the core
    circle at every u, and sliding the orbit parameter matches shifting u
    in the closed-form patch at every (u, v) pair.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    curve = generating_curve_for(a)
    core_point = eval_generating_curve(curve, -0.5)
    orbit = apply_lightlike_rotation(u, core_point)
    circle = vec3(u * u / 2.0 - 1.0, u, u * u / 2.0)
    res_core = float(np.max(np.abs(orbit - circle)))

    section = _eval_lightlike_rotational(a, 0.0, v)
    rotated = apply_lightlike_rotation(u[:, None], section)
    direct = _eval_lightlike_rotational(a, u[:, None], v[None, :])
    res_orbit = float(np.max(np.abs(rotated - direct)))
    return max(res_core, res_orbit)


# ---------------------------------------------------------------------------
# the family registry

FAMILY_INFO = {
    BENDING_TIMELIKE: _bjorling(
        frames.CIRCLE_TIMELIKE, "linear", (-np.pi, np.pi, -0.35, 0.35),
        lambda s, u, v: _eval_bending_timelike(s.a, u, v)),
    BENDING_SPACELIKE: _bjorling(
        frames.CIRCLE_SPACELIKE, "linear", (-1.2, 1.2, -0.4, 0.4),
        lambda s, u, v: _eval_bending_spacelike(s.a, u, v)),
    LIGHTLIKE_ROTATIONAL: _bjorling(
        frames.CIRCLE_LIGHTLIKE, "constant", (-1.0, 1.0, -0.9, 0.9),
        lambda s, u, v: _eval_lightlike_rotational(s.a, u, v),
        group=lambda s: motions.rotation_lightlike_axis()),
    HELICOIDAL_TIMELIKE: _bjorling(
        frames.HELIX_TIMELIKE, "linear", (-np.pi, np.pi, -0.35, 0.35),
        lambda s, u, v: _eval_helicoidal_timelike(s.a, s.lam, s.mu, u, v),
        lam=0.6),
    HELICOIDAL_SPACELIKE_I: _bjorling(
        frames.HELIX_SPACELIKE_I, "linear", (-1.2, 1.2, -0.4, 0.4),
        lambda s, u, v: _eval_helicoidal_spacelike_i(s.a, s.lam, s.mu, u, v),
        lam=2.0),
    HELICOIDAL_SPACELIKE_II: _bjorling(
        frames.HELIX_SPACELIKE_II, "linear", (-1.2, 1.2, -0.4, 0.4),
        lambda s, u, v: _eval_helicoidal_spacelike_ii(s.a, s.lam, s.mu, u, v),
        lam=1.0),
    ELLIPTIC_CATENOID: _bjorling(
        frames.CIRCLE_TIMELIKE, "constant", (-np.pi, np.pi, -0.5, 0.5),
        lambda s, u, v: _eval_elliptic_catenoid(s.a, u, v),
        group=lambda s: motions.rotation_timelike_axis()),
    HYPERBOLIC_CATENOID: _bjorling(
        frames.CIRCLE_SPACELIKE, "constant", (-1.0, 1.0, -0.5, 0.5),
        lambda s, u, v: _eval_hyperbolic_catenoid(s.a, u, v),
        group=lambda s: motions.rotation_spacelike_axis()),
    HELICOIDAL_TIMELIKE_CONSTANT: _bjorling(
        frames.HELIX_TIMELIKE, "constant", (-np.pi, np.pi, -0.6, 0.6),
        lambda s, u, v: _eval_helicoidal_timelike_constant(s.a, s.lam, s.mu,
                                                           u, v),
        lam=0.6, group=lambda s: motions.screw_timelike_axis(s.lam)),
    ENNEPER_SECOND_KIND: Family(
        (_CUBIC, Param("offset", default=0.0)), (-1.0, 1.0, -1.0, -0.1),
        lambda s, u, v: _eval_enneper_second_kind(s.cubic, s.offset, u, v),
        group=lambda s: motions.rotation_lightlike_axis(),
        orbit_of=Param("a", *frames.TWIST_RANGES["constant"], 0.0)),
}

# Each family's default grid domain, recorded on its patch; not a regular
# strip: |g| = 1 crosses it for bending-timelike and helicoidal-timelike.
DEFAULT_DOMAINS = {f: info.domain for f, info in FAMILY_INFO.items()}


def bjorling_data_for(surface: CatalogSurface):
    """Core curve and normal field whose Björling solution the entry equals.

    The orbit surface is the one entry without such data in these
    coordinates; it is tied to the lightlike family by
    lightlike_identification_check instead.
    """
    info = FAMILY_INFO[surface.family]
    if info.curve is None:
        raise ValueError(f"{surface.family} is parametrized as a group "
                         "orbit; it carries no Björling data in these "
                         "coordinates")
    lam = surface.lam if info.curve in frames.HELIX_TAGS else None
    return frames.make_bjorling_data(
        frames.CurveFamily(info.curve, lam),
        frames.NormalFieldSpec(info.twist, surface.a))


# ---------------------------------------------------------------------------
# dispatch

def eval_surface(surface: CatalogSurface, u, v) -> np.ndarray:
    """Evaluate the closed-form parametrization, broadcasting over (u, v).

    Real u and v are taken as float64.  Complex u or v stays complex: each
    family is holomorphic in u and in v, for bjorling.derivatives' steps."""
    u, v = (x if x.dtype.kind == "c" else x.astype(float, copy=False)
            for x in map(np.asarray, (u, v)))
    return FAMILY_INFO[surface.family].evaluate(surface, u, v)


def patch(surface: CatalogSurface) -> SurfacePatch:
    """Wrap a catalog surface as a SurfacePatch on its default domain,
    analytic unless a positive twist is below COMPLEX_STEP_MIN_TWIST."""
    label = ":".join([surface.family] + [
        f"{p.name}={getattr(surface, p.name):g}"
        for p in FAMILY_INFO[surface.family].params])
    return SurfacePatch(func=lambda u, v: eval_surface(surface, u, v),
                        domain=DEFAULT_DOMAINS[surface.family],
                        label=label, broadcasts=True,
                        analytic=not 0.0 < surface.a < COMPLEX_STEP_MIN_TWIST)
