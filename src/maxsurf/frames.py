"""Core curves and normal fields for the Björling construction.

Six curve families are supported, named by the causal character of the core
curve (and, for helices, of the rotation axis):

    circle-timelike      alpha(t) = (cos t, sin t, 0)
    circle-spacelike     alpha(t) = (0, sinh t, cosh t)
    circle-lightlike     alpha(t) = (-1 + t^2/2, t, t^2/2)
    helix-timelike       alpha(t) = (cos t, sin t, lam*t),      0 < lam < 1
    helix-spacelike-i    alpha(t) = (lam*t, cosh t, sinh t),    lam > 1
    helix-spacelike-ii   alpha(t) = (lam*t, sinh t, cosh t),    lam > 0

"Circle" means an orbit of a rotation group of the ambient space, so the
spacelike and lightlike cases are a hyperbola and a parabola in Euclidean
eyes.  Every evaluator extends analytically: it accepts real or complex
arguments of any shape and returns a (..., 3) array.

Along each curve two frame legs are stored, Lorentz orthonormal normals
with the spacelike leg L1 first and the timelike leg L2 second (for the
lightlike circle, L1 = n - b and L2 = n + b of its null legs n, b with
<n, n> = <b, b> = 0 and <n, b> = -1/2).  A normal field V(t) = analytic
unit timelike field orthogonal to the curve is built by boosting within
the normal plane: V = sinh(phi) L1 + cosh(phi) L2, so that <V, V> = -1,
the hyperbolic angle phi(t) being either constant or linear in t.

With mu the curve's speed (1 for circles), the Björling integrand is
V x alpha' = eps mu (cosh(phi) L1 + sinh(phi) L2), eps = +-1 being the
orientation of the legs against the tangent.  It needs no cross product,
so no e^{2|v|}-sized terms cancel far from the real axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .lorentz import lorentz_cross, vec3

CIRCLE_TIMELIKE = "circle-timelike"
CIRCLE_SPACELIKE = "circle-spacelike"
CIRCLE_LIGHTLIKE = "circle-lightlike"
HELIX_TIMELIKE = "helix-timelike"
HELIX_SPACELIKE_I = "helix-spacelike-i"
HELIX_SPACELIKE_II = "helix-spacelike-ii"

CIRCLE_TAGS = (CIRCLE_TIMELIKE, CIRCLE_SPACELIKE, CIRCLE_LIGHTLIKE)
HELIX_TAGS = (HELIX_TIMELIKE, HELIX_SPACELIKE_I, HELIX_SPACELIKE_II)
ALL_TAGS = CIRCLE_TAGS + HELIX_TAGS

# Parameter ranges as (text, test): the pitch that keeps each helix
# spacelike, and the twist rate of each kind of normal field.
PITCH_RANGES = {
    HELIX_TIMELIKE: ("0 < lam < 1", lambda lam: 0.0 < lam < 1.0),
    HELIX_SPACELIKE_I: ("lam > 1", lambda lam: lam > 1.0),
    HELIX_SPACELIKE_II: ("lam > 0", lambda lam: lam > 0.0),
}
TWIST_RANGES = {
    "constant": ("a >= 0", lambda a: a >= 0.0),
    "linear": ("a > 0", lambda a: a > 0.0),
}


def finite_real(value) -> bool:
    """Whether value is an int, a float or a numpy real scalar, not a bool,
    whose float is finite: an int above the largest float has none."""
    return (not isinstance(value, bool)
            and isinstance(value, (int, float, np.integer, np.floating))
            and (abs(value) <= sys.float_info.max if isinstance(value, int)
                 else math.isfinite(value)))


def check_range(owner: str, text: str, test: Callable[[float], bool], value):
    """float(value) of a family parameter; refuse one that is not a
    finite_real, or fails its range test, with ValueError "<owner> needs
    <text>, got <value>"."""
    if not (finite_real(value) and test(value)):
        raise ValueError(f"{owner} needs {text}, got {value}")
    return float(value)


def check_curvature_domain(annulus):
    """Raise ValueError unless the radii are finite_reals, 0 < r_in < r_out."""
    if not (all(map(finite_real, annulus)) and 0 < annulus[0] < annulus[1]):
        raise ValueError(f"annulus needs 0 < r_in < r_out < inf, "
                         f"got {annulus}")


class AnalyticMap(NamedTuple):
    """Evaluator of a closed-form analytic map C -> C^3 (or C -> C).

    `func` accepts arrays of any shape; `deriv`, when present, evaluates the
    exact complex derivative (no finite differences involved).
    """

    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, z):
        return self.func(z)

    def d(self, z):
        if self.deriv is None:
            raise ValueError("this map carries no derivative evaluator")
        return self.deriv(z)


@dataclass(frozen=True)
class CurveFamily:
    """One of the six core-curve families, with the helix pitch when needed.

    The pitch `lam` must be None for circles, and in PITCH_RANGES for
    helices.
    """

    tag: str
    lam: float | None = None

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown curve family {self.tag!r}; expected one of {ALL_TAGS}")
        if self.tag in CIRCLE_TAGS:
            if self.lam is not None:
                raise ValueError(f"{self.tag} takes no pitch parameter")
            return
        if self.lam is None:
            raise ValueError(f"{self.tag} requires a pitch lam")
        object.__setattr__(self, "lam", check_range(
            self.tag, *PITCH_RANGES[self.tag], self.lam))

    @property
    def mu(self) -> float | None:
        """Speed of the helix, sqrt(|lam^2 -+ 1|); None for circles.  lam *
        lam is inf past overflow, where lam**2 would raise."""
        if self.tag == HELIX_TIMELIKE:
            return float(np.sqrt(1.0 - self.lam * self.lam))
        if self.tag == HELIX_SPACELIKE_I:
            return float(np.sqrt(self.lam * self.lam - 1.0))
        if self.tag == HELIX_SPACELIKE_II:
            return float(np.sqrt(self.lam * self.lam + 1.0))
        return None


@dataclass(frozen=True)
class NormalFieldSpec:
    """Hyperbolic rotation angle phi of the normal field: constant or linear.

    kind "constant": phi(t) = a with a >= 0.
    kind "linear":   phi(t) = a*t with a > 0 (a = 0 degenerates to constant).
    """

    kind: str
    a: float

    def __post_init__(self):
        if self.kind not in TWIST_RANGES:
            raise ValueError(f"normal field kind must be 'constant' or 'linear', got {self.kind!r}")
        object.__setattr__(self, "a", check_range(
            f"{self.kind} twist", *TWIST_RANGES[self.kind], self.a))

    def phi(self, t):
        return self.a if self.kind == "constant" else np.multiply(self.a, t)


@dataclass(frozen=True)
class BjorlingData:
    """A core curve with a normal field along it, as the solve reads them.

    alpha maps C -> C^3 and restricts to the spacelike curve on the real
    axis; normal_field restricts to a unit timelike field orthogonal to
    alpha' there.  Both are entire for every built-in family.
    """

    alpha: AnalyticMap
    normal_field: AnalyticMap

    def integrand(self, w, out=None):
        """The Björling integrand V(w) x alpha'(w), as a (..., 3) array,
        written into `out` when given.

        If the normal field and the curve derivative are the evaluators that
        make_normal_field and make_curve build for one family, it comes from
        the frame identity V x alpha' = eps mu (cosh(phi) L1 + sinh(phi) L2),
        with no cross product: one kernel call, one twist call and the legs,
        one component at a time.  Other data, a swapped map included, takes
        lorentz_cross(normal_field(w), alpha.d(w)).
        """
        field, deriv = self.normal_field.func, self.alpha.deriv
        if (isinstance(field, _NormalField) and isinstance(deriv, _Curve)
                and deriv.derivative and deriv.family == field.family):
            return field.cross_derivative(w, out)
        value = lorentz_cross(self.normal_field(w), self.alpha.d(w))
        if out is None:
            return value
        out[...] = value
        return out


def _sin_cos(z):
    """(sin z, cos z), for complex z from four real ufunc passes:

        sin(x + iy) = sin x cosh y + i cos x sinh y
        cos(x + iy) = cos x cosh y - i sin x sinh y

    numpy's complex sin and cos each cost several times a real pass and
    share no work.  Real input goes straight to the real ufuncs, so it keeps
    its exact values and dtype.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.sin(z), np.cos(z)
    sx, cx = np.sin(z.real), np.cos(z.real)
    shy, chy = np.sinh(z.imag), np.cosh(z.imag)
    sin, cos = np.empty_like(z), np.empty_like(z)
    np.multiply(sx, chy, out=sin.real)
    np.multiply(cx, shy, out=sin.imag)
    np.multiply(cx, chy, out=cos.real)
    np.multiply(np.negative(sx), shy, out=cos.imag)
    return sin, cos


def _sinh_cosh(z):
    """(sinh z, cosh z), for complex z from four real ufunc passes:

        sinh(x + iy) = sinh x cos y + i cosh x sin y
        cosh(x + iy) = cosh x cos y + i sinh x sin y

    Real input goes straight to the real ufuncs, so it keeps its exact
    values and dtype.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.sinh(z), np.cosh(z)
    shx, chx = np.sinh(z.real), np.cosh(z.real)
    sy, cy = np.sin(z.imag), np.cos(z.imag)
    sinh, cosh = np.empty_like(z), np.empty_like(z)
    np.multiply(shx, cy, out=sinh.real)
    np.multiply(chx, sy, out=sinh.imag)
    np.multiply(chx, cy, out=cosh.real)
    np.multiply(shx, sy, out=cosh.imag)
    return sinh, cosh


def _z_square(z):
    """(z, z^2): the lightlike circle's kernel.  np.square is what z**2
    runs."""
    return z, np.square(z)


class _Formulas(NamedTuple):
    """The formulas of one family.  `kernel` maps z to the pair (f, g) the
    others take; `alpha` and `deriv` map (z, f, g) to the components of the
    curve and of its derivative; `legs` holds, per component, the functions
    of (f, g) giving it on the spacelike leg L1 and on the timelike leg L2;
    with T = alpha' / mu, L1 x T = eps L2 and L2 x T = eps L1."""

    kernel: Callable
    alpha: Callable
    deriv: Callable
    legs: tuple
    eps: float


# eps from L1 x T at t = 0: circle-timelike (0, 0, 1) = L2; circle-spacelike
# and the lightlike circle (0, 0, -1) = -L2; helix-timelike (0, lam, 1) / mu
# = -L2; helix-spacelike-i (1, 0, lam) / mu = -L2; helix-spacelike-ii
# (0, 0, -(1 + lam^2) / mu^2) = -L2.  L2 x T = eps L1 likewise.


def _formulas(family: CurveFamily) -> _Formulas:
    tag = family.tag
    if tag == CIRCLE_TIMELIKE:
        return _Formulas(_sin_cos, lambda z, f, g: (g, f, 0.0),
                         lambda z, f, g: (-f, g, 0.0),
                         ((lambda f, g: -g, lambda f, g: 0.0),
                          (lambda f, g: -f, lambda f, g: 0.0),
                          (lambda f, g: 0.0, lambda f, g: 1.0)), 1.0)
    if tag == CIRCLE_SPACELIKE:
        return _Formulas(_sinh_cosh, lambda z, f, g: (0.0, f, g),
                         lambda z, f, g: (0.0, g, f),
                         ((lambda f, g: 1.0, lambda f, g: 0.0),
                          (lambda f, g: 0.0, lambda f, g: f),
                          (lambda f, g: 0.0, lambda f, g: g)), -1.0)
    if tag == CIRCLE_LIGHTLIKE:
        # n - b and n + b of the null legs n = (1, 0, 1) / 2, b = ((g - 1) / 2,
        # f, (g + 1) / 2), unsimplified: 0.0 - f is +0 where -f is -0
        return _Formulas(_z_square, lambda z, f, g: (g / 2 - 1.0, f, g / 2),
                         lambda z, f, g: (f, 1.0, f),
                         ((lambda f, g: 0.5 - (g - 1.0) / 2,
                           lambda f, g: 0.5 + (g - 1.0) / 2),
                          (lambda f, g: 0.0 - f, lambda f, g: 0.0 + f),
                          (lambda f, g: 0.5 - (g + 1.0) / 2,
                           lambda f, g: 0.5 + (g + 1.0) / 2)), -1.0)
    lam, mu = family.lam, family.mu
    k = lam / mu
    if tag == HELIX_TIMELIKE:
        return _Formulas(_sin_cos, lambda z, f, g: (g, f, lam * z),
                         lambda z, f, g: (-f, g, lam),
                         ((lambda f, g: -g, lambda f, g: k * f),
                          (lambda f, g: -f, lambda f, g: -k * g),
                          (lambda f, g: 0.0, lambda f, g: -1.0 / mu)), -1.0)
    if tag == HELIX_SPACELIKE_I:
        return _Formulas(_sinh_cosh, lambda z, f, g: (lam * z, g, f),
                         lambda z, f, g: (lam, f, g),
                         ((lambda f, g: 0.0, lambda f, g: -1.0 / mu),
                          (lambda f, g: g, lambda f, g: -k * f),
                          (lambda f, g: f, lambda f, g: -k * g)), -1.0)
    # helix-spacelike-ii
    return _Formulas(_sinh_cosh, lambda z, f, g: (lam * z, f, g),
                     lambda z, f, g: (lam, g, f),
                     ((lambda f, g: 1.0 / mu, lambda f, g: 0.0),
                      (lambda f, g: -k * g, lambda f, g: f),
                      (lambda f, g: -k * f, lambda f, g: g)), -1.0)


class _Curve:
    """Evaluator z -> (..., 3) array of a family's curve, or of its
    derivative when `derivative` is set."""

    def __init__(self, family: CurveFamily, derivative: bool):
        form = _formulas(family)
        self.family, self.derivative = family, derivative
        self.kernel = form.kernel
        self.comps = form.deriv if derivative else form.alpha

    def __call__(self, z):
        z = np.asarray(z)
        return vec3(*self.comps(z, *self.kernel(z)))


def make_curve(family: CurveFamily) -> AnalyticMap:
    """Analytic extension of the core curve, with its exact derivative."""
    return AnalyticMap(_Curve(family, False), _Curve(family, True))


class _NormalField:
    """Evaluator of V = sinh(phi) L1 + cosh(phi) L2 on a family's frame
    legs; `scale` is eps mu."""

    def __init__(self, family: CurveFamily, spec: NormalFieldSpec):
        self.family, self.spec = family, spec
        self.form = _formulas(family)
        self.scale = self.form.eps * (family.mu or 1.0)

    def twist(self, z):
        """(sinh phi, cosh phi) at z: scalars for a constant twist."""
        return _sinh_cosh(self.spec.phi(z))

    def __call__(self, z):
        return self._combine(z, *self.twist(z))

    def cross_derivative(self, w, out=None):
        """V(w) x alpha'(w) = eps mu (cosh(phi) L1 + sinh(phi) L2), written
        into `out` when given."""
        sh, ch = self.twist(w)
        return self._combine(w, self.scale * ch, self.scale * sh, out)

    def _combine(self, z, p, q, out=None):
        """p L1 + q L2 at z, a component at a time (its temporaries freed
        before the next's), summed straight into out[..., k] when given.
        On the numpy scalars of a 0-d z, `*` takes numpy's scalar complex
        product, which can round otherwise than the ufunc's array loop."""
        z = np.asarray(z)
        f, g = self.form.kernel(z)

        def comp(l1, l2, out=None):
            return np.add(np.multiply(p, l1(f, g)), np.multiply(q, l2(f, g)),
                          out=out)
        if out is None:
            return vec3(*(comp(*legs) for legs in self.form.legs))
        for k, legs in enumerate(self.form.legs):
            comp(*legs, out=out[..., k])
        return out


def make_normal_field(family: CurveFamily, spec: NormalFieldSpec) -> AnalyticMap:
    """Unit timelike analytic field V with <V, alpha'> = 0 and <V, V> = -1."""
    if family.tag == CIRCLE_LIGHTLIKE and spec.kind != "constant":
        raise ValueError("the lightlike circle supports a constant twist "
                         "only; a parameter-dependent angle does not combine "
                         "with its null frame into an integrable normal field")
    return AnalyticMap(_NormalField(family, spec))


def make_bjorling_data(family: CurveFamily,
                       spec: NormalFieldSpec) -> BjorlingData:
    """Assemble curve and normal field into Björling data."""
    return BjorlingData(alpha=make_curve(family),
                        normal_field=make_normal_field(family, spec))
