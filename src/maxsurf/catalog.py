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
bending-spacelike is helicoidal-spacelike-ii at lam = 0, mu = 1: the
spacelike circle (0, sinh t, cosh t) is the type-II helix of zero pitch.
helicoidal-spacelike-i is helicoidal-spacelike-ii with cosh au and sinh au
exchanged, the twist term of x negated and y and z exchanged; in its exp-chart
forms the sign of phi1's imaginary part flips and phi2 and phi3 exchange.
bending-timelike is helicoidal-timelike at lam = -0, mu = -1: the timelike
circle is the helix of zero pitch, mu = -1 carries the circle's frame
orientation, and lam = -0 keeps the signed zeros of z that +0 would flip.

FAMILY_INFO holds one Family per family, its holomorphic facts included:
forms, punctured, unit_period and curvature, read by weierstrass and cli.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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


class Param(NamedTuple):
    """A CatalogSurface field that a family reads: its range as text and as
    a test, and the value `maxsurf` uses when none is given."""

    name: str
    text: str = "real"
    test: Callable[[float], bool] = lambda value: True
    default: float | None = None

    def check(self, family: str, value) -> float:
        return frames.check_range(family, self.text, self.test, value)


class Family(NamedTuple):
    """The facts of one family.

    curve and twist name its Björling data, a frames curve tag and a
    normal-field kind (None for the orbit surface).  group maps a surface to
    the motion group that acts on it by a shift in u.  orbit_of is the
    lightlike twist an orbit surface can be derived from.  forms and punctured
    map (surface, z) to the form tuple (phi1, phi2, phi3) at z on the exp
    and the punctured chart, as evaluate maps (surface, u, v) to X(u, v).
    unit_period maps a surface to the real part of its phi2 period around
    the unit circle at twist rate 1, the only nonzero real period at integer
    rate n ≥ 1; curvature to its dual's chart and closed-form total
    curvature, or None.
    """

    params: tuple
    domain: tuple
    evaluate: Callable
    curve: str | None = None
    twist: str | None = None
    group: Callable | None = None
    orbit_of: Param | None = None
    verify_domain: tuple | None = None  # None: the domain
    forms: Callable | None = None
    punctured: Callable | None = None
    unit_period: Callable | None = None
    curvature: Callable = lambda s: None


def _bjorling(curve, twist, domain, evaluate, lam=None, **facts):
    """A family of Björling surfaces, with lam the default helix pitch."""
    params = (Param("a", *frames.TWIST_RANGES[twist], 1.0),)
    if lam is not None:
        params += (Param("lam", *frames.PITCH_RANGES[curve], lam),)
    return Family(params, domain, evaluate, curve, twist,
                  verify_domain=(-1.0, 1.0, -1.0, 1.0), **facts)


_CUBIC = Param("cubic", "cubic > 0", lambda cubic: cubic > 0)
_OFFSET = Param("offset", default=0.0)


@dataclass(frozen=True)
class CatalogSurface:
    """A catalog entry: family id and its float parameters, unused ones 0."""

    family: str
    a: float = 0.0
    lam: float = 0.0
    cubic: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILY_INFO:
            raise ValueError(f"unknown catalog family {self.family!r}")
        for p in FAMILY_INFO[self.family].params:
            value = p.check(self.family, getattr(self, p.name))
            object.__setattr__(self, p.name, value)

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

def _eval_helicoidal_timelike(a, lam, mu, u, v):
    cau, sau = np.cosh(a * u), np.sinh(a * u)
    cav, sav = np.cos(a * v), np.sin(a * v)
    cu, su = np.cos(u), np.sin(u)
    cv, sv = np.cosh(v), np.sinh(v)
    pa = cau * sav * cu * cv - sau * cav * su * sv
    pb = sau * sav * su * cv + cau * cav * cu * sv
    pc = cau * sav * su * cv + sau * cav * cu * sv
    pd = sau * sav * cu * cv - cau * cav * su * sv
    den = a * a + 1.0
    x = cu * cv - ((a * mu + lam) * pa + (mu - a * lam) * pb) / den
    y = su * cv - ((a * mu + lam) * pc + (a * lam - mu) * pd) / den
    z = lam * u - sau * sav / a
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


def _eval_helicoidal_spacelike(a, lam, mu, u, v, type_i=False):
    r, s = _kernels(a, lam, mu, v)
    p, q = np.cosh(a * u), np.sinh(a * u)
    p, q = (q, p) if type_i else (p, q)
    # sin av named: numpy takes p * (big temporary) as temporary * p
    cu, su, cv, sav = np.cosh(u), np.sinh(u), np.cos(v), np.sin(a * v)
    t = p * sav / a
    x = lam * u - t if type_i else lam * u + t
    y = su * cv + q * su * r + p * cu * s
    z = cu * cv + q * cu * r + p * su * s
    return vec3(x, z, y) if type_i else vec3(x, y, z)


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
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cosh(v), np.sinh(v)
    x = -mu * ca * cu * sv + lam * sa * su * sv + cu * cv
    y = cv * su - mu * ca * su * sv - lam * sa * cu * sv
    z = lam * u - sa * v
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
        for p in (_CUBIC, _OFFSET):
            value = p.check("generating curve", getattr(self, p.name))
            object.__setattr__(self, p.name, value)

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
# holomorphic 1-form coefficients, on the exp and punctured charts

EXP_CHART = "exp"
PUNCTURED_CHART = "punctured"


def integer_rate(a: float) -> int | None:
    """The integer n with |a - n| <= 1e-9, else None (NaN and ±inf too)."""
    if np.isfinite(a) and abs(a - round(float(a))) <= 1e-9:
        return round(float(a))
    return None


def cpow(z, a):
    """Principal-branch power, exact at an integer_rate exponent (z itself
    for 1, which numpy would send through its general loop)."""
    z = np.asarray(z, dtype=complex)
    n = integer_rate(a)
    if n is None:
        return z ** a
    return z if n == 1 else z ** n


def _forms_bending_timelike(a, z):
    s, c, ch = np.sin(z), np.cos(z), np.cosh(a * z)
    return -s - 1j * c * ch, c - 1j * s * ch, 1j * np.sinh(a * z)


def _forms_bending_spacelike_exp(a, z):
    ch, sh, sha = np.cosh(z), np.sinh(z), np.sinh(a * z)
    return -1j * np.cosh(a * z), ch - 1j * sh * sha, sh - 1j * ch * sha


def _forms_bending_spacelike_punctured(a, z):
    # Every power of z comes from z^a and z^2: on the principal branch all
    # of them share Log z, so z^(2a) = z^a z^a, z^(a+2) = z^a z^2 and so on.
    za, z2 = cpow(z, a), z * z
    zaa, zaz2 = za * za, za * z2
    return (-1j * (zaa + 1.0) / (2.0 * (za * z)),
            (-1j * (zaa * z2) + 1j * zaa + 2.0 * zaz2 + 2.0 * za
             + 1j * z2 - 1j) / (4.0 * zaz2),
            (-1j * (zaa * z2) - 1j * zaa + 2.0 * zaz2 - 2.0 * za
             + 1j * z2 + 1j) / (4.0 * zaz2))


def _forms_lightlike(a, z):
    # cosh a - sinh a taken as e^-a, which does not cancel at large a
    ea = np.exp(-a)
    z2e = z * z * ea
    return (z + 0.5j * (z2e - 2.0 * np.cosh(a)), 1.0 + 1j * z * ea,
            z + 0.5j * (z2e - 2.0 * np.sinh(a)))


def _forms_helicoidal_timelike(a, lam, mu, z):
    s, c, ch = np.sin(z), np.cos(z), np.cosh(a * z)
    sh = np.sinh(a * z)
    t = 1.0 + 1j * lam * sh
    return (1j * mu * c * ch - s * t, c * t + 1j * mu * s * ch,
            lam + 1j * sh)


def _forms_helicoidal_spacelike_exp(a, lam, mu, z, type_i=False):
    ch, sh = np.cosh(z), np.sinh(z)
    p, q = np.cosh(a * z), np.sinh(a * z)
    p, q = (q, p) if type_i else (p, q)
    phi1 = lam + 1j * p if type_i else lam - 1j * p
    phi2 = ch + 1j * (lam * ch * p - mu * sh * q)
    phi3 = sh + 1j * (lam * sh * p - mu * ch * q)
    return (phi1, phi3, phi2) if type_i else (phi1, phi2, phi3)


def _forms_helicoidal_spacelike_i_punctured(a, lam, mu, z):
    za, z2 = cpow(z, a), z * z
    zaa, zaz2 = za * za, za * z2
    return ((1j * zaa + 2.0 * lam * za - 1j) / (2.0 * (za * z)),
            (1j * (lam - mu) * (zaa * z2 + 1.0)
             - 1j * (lam + mu) * (zaa + z2)
             + 2.0 * zaz2 - 2.0 * za) / (4.0 * zaz2),
            (1j * (lam - mu) * (zaa * z2 - 1.0)
             + 1j * (lam + mu) * (zaa - z2)
             + 2.0 * zaz2 + 2.0 * za) / (4.0 * zaz2))


def _forms_helicoidal_spacelike_ii_punctured(a, lam, mu, z):
    za, z2 = cpow(z, a), z * z
    zaa, zaz2 = za * za, za * z2
    return ((-1j * zaa + 2.0 * lam * za - 1j) / (2.0 * (za * z)),
            (1j * (lam - mu) * (zaa * z2 + 1.0)
             + 1j * (lam + mu) * (zaa + z2)
             + 2.0 * zaz2 + 2.0 * za) / (4.0 * zaz2),
            (1j * (lam - mu) * (zaa * z2 - 1.0)
             - 1j * (lam + mu) * (zaa - z2)
             + 2.0 * zaz2 - 2.0 * za) / (4.0 * zaz2))


# ---------------------------------------------------------------------------
# the family registry

FAMILY_INFO = {
    BENDING_TIMELIKE: _bjorling(
        frames.CIRCLE_TIMELIKE, "linear", (-np.pi, np.pi, -0.35, 0.35),
        lambda s, u, v: _eval_helicoidal_timelike(s.a, -0.0, -1.0, u, v),
        forms=lambda s, z: _forms_bending_timelike(s.a, z)),
    BENDING_SPACELIKE: _bjorling(
        frames.CIRCLE_SPACELIKE, "linear", (-1.2, 1.2, -0.4, 0.4),
        lambda s, u, v: _eval_helicoidal_spacelike(s.a, 0.0, 1.0, u, v),
        forms=lambda s, z: _forms_bending_spacelike_exp(s.a, z),
        punctured=lambda s, z: _forms_bending_spacelike_punctured(s.a, z),
        unit_period=lambda s: -np.pi,
        curvature=lambda s: (
            None if (n := integer_rate(s.a)) is None
            else (PUNCTURED_CHART, -4.0 * np.pi * (n + 1)))),
    LIGHTLIKE_ROTATIONAL: _bjorling(
        frames.CIRCLE_LIGHTLIKE, "constant", (-1.0, 1.0, -0.9, 0.9),
        lambda s, u, v: _eval_lightlike_rotational(s.a, u, v),
        group=lambda s: motions.rotation_lightlike_axis(),
        forms=lambda s, z: _forms_lightlike(s.a, z),
        curvature=lambda s: (EXP_CHART, -4.0 * np.pi)),
    HELICOIDAL_TIMELIKE: _bjorling(
        frames.HELIX_TIMELIKE, "linear", (-np.pi, np.pi, -0.35, 0.35),
        lambda s, u, v: _eval_helicoidal_timelike(s.a, s.lam, s.mu, u, v),
        lam=0.6,
        forms=lambda s, z: _forms_helicoidal_timelike(s.a, s.lam, s.mu, z)),
    HELICOIDAL_SPACELIKE_I: _bjorling(
        frames.HELIX_SPACELIKE_I, "linear", (-1.2, 1.2, -0.4, 0.4),
        lambda s, u, v: _eval_helicoidal_spacelike(s.a, s.lam, s.mu, u, v,
                                                   type_i=True),
        lam=2.0,
        forms=lambda s, z: _forms_helicoidal_spacelike_exp(
            s.a, s.lam, s.mu, z, type_i=True),
        punctured=lambda s, z: _forms_helicoidal_spacelike_i_punctured(
            s.a, s.lam, s.mu, z),
        unit_period=lambda s: np.pi * (s.lam + s.mu)),
    HELICOIDAL_SPACELIKE_II: _bjorling(
        frames.HELIX_SPACELIKE_II, "linear", (-1.2, 1.2, -0.4, 0.4),
        lambda s, u, v: _eval_helicoidal_spacelike(s.a, s.lam, s.mu, u, v),
        lam=1.0,
        forms=lambda s, z: _forms_helicoidal_spacelike_exp(
            s.a, s.lam, s.mu, z),
        punctured=lambda s, z: _forms_helicoidal_spacelike_ii_punctured(
            s.a, s.lam, s.mu, z),
        unit_period=lambda s: -np.pi * (s.lam + s.mu)),
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
        (_CUBIC, _OFFSET), (-1.0, 1.0, -1.0, -0.1),
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
