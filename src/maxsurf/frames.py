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

Along each curve two normal legs (n, b) are stored, Lorentz orthonormal
with one of them timelike (for the lightlike circle, null legs with
<n, n> = <b, b> = 0 and <n, b> = -1/2).  A normal field V(t) = analytic
unit timelike field orthogonal to the curve is built by boosting within
the normal plane: the hyperbolic angle phi(t) is either constant or
linear in t, and sinh(phi) attaches to the spacelike normal direction,
cosh(phi) to the timelike one, so that <V, V> = -1.

With V = p n + q b on the legs and mu the curve's speed (1 for circles),
the Björling integrand is V x alpha' = eps mu (q n + p b), eps = +-1 being
the orientation of the legs against the tangent: V's own terms with the
twist pair swapped and scaled.  It needs no cross product, so no
e^{2|v|}-sized terms cancel far from the real axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lorentz import lorentz_cross

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


@dataclass(frozen=True)
class AnalyticMap:
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
        lam = float(self.lam)
        text, test = PITCH_RANGES[self.tag]
        if not test(lam):
            raise ValueError(f"{self.tag} needs {text} for a spacelike "
                             f"curve, got {lam}")

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
        text, test = TWIST_RANGES[self.kind]
        if not test(self.a):
            raise ValueError(f"{self.kind} twist needs {text}, got {self.a}")

    def phi(self, t):
        if self.kind == "constant":
            return self.a * np.ones_like(np.asarray(t))
        return np.multiply(self.a, t)


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

        If the normal field and the curve derivative are one built-in
        family's, as make_bjorling_data builds them, it comes from the frame
        identity V x alpha' = eps mu (q n + p b): one kernel call, one twist
        call and V's three terms.  The pair is recognized by the maps' own
        evaluators, so a swapped map is always the one evaluated.  Other
        data takes lorentz_cross(normal_field(w), alpha.d(w)).
        """
        field, deriv = self.normal_field.func, self.alpha.deriv
        if (isinstance(field, _NormalField) and isinstance(deriv, _Components)
                and (deriv.form, deriv.terms) == (field.form,
                                                  field.form.deriv)):
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


def _vec(z, comps):
    """Components (arrays shaped like z, or constants) as one (..., 3) array."""
    out = np.empty(z.shape + (3,), np.result_type(z, *comps))
    for k, comp in enumerate(comps):
        out[..., k] = comp
    return out


# A term is one component of a formula: a float constant, a symbol, or
# (ufunc, *terms), the ufunc applied to the values of the terms.  The
# symbols are the argument z, the family's kernel pair (f, g) of z, and the
# normal field's twist pair (p, q).
_Z, _F, _G, _P, _Q = "z", "f", "g", "p", "q"


def _neg(term):
    return (np.negative, term)


def _times(c, term):
    return (np.multiply, c, term)


def _value(term, env):
    """The value of a term, with the symbols bound by `env`."""
    if isinstance(term, str):
        return env[term]
    if not isinstance(term, tuple):
        return term
    ufunc, *args = term
    return ufunc(*(_value(arg, env) for arg in args))


@dataclass(frozen=True)
class _Formulas:
    """The formulas of one family, as data.  `kernel` maps z to the pair
    (f, g) the terms are written in; `alpha` and `deriv` are the terms of
    the curve and of its derivative, `normal` and `binormal` those of the
    stored frame legs, and `eps` their orientation: with T = alpha' / mu,
    n x T = eps b and b x T = eps n (on (e2, e3) for the lightlike
    circle)."""

    kernel: Callable
    alpha: tuple
    deriv: tuple
    normal: tuple
    binormal: tuple
    eps: float


# eps from n x T at t = 0, c = cos or cosh, s = sin or sinh: circle-timelike
# (0, 0, c^2 + s^2) = b; circle-spacelike (s^2 - c^2, 0, 0) = -b;
# helix-timelike (-lam s, lam c, 1) / mu = -b; helix-spacelike-i (c^2 - s^2,
# lam s, lam c) / mu = -b; helix-spacelike-ii (s^2 - c^2, lam c, lam s) / mu
# = -b; the lightlike circle e2 x T = (-t^2/2, -t, -1 - t^2/2) = -e3.  b x T
# = eps n likewise.


def _formulas(family: CurveFamily) -> _Formulas:
    tag = family.tag
    if tag == CIRCLE_TIMELIKE:
        return _Formulas(_sin_cos, (_G, _F, 0.0), (_neg(_F), _G, 0.0),
                         (_neg(_G), _neg(_F), 0.0), (0.0, 0.0, 1.0), 1.0)
    if tag == CIRCLE_SPACELIKE:
        return _Formulas(_sinh_cosh, (0.0, _F, _G), (0.0, _G, _F),
                         (0.0, _F, _G), (1.0, 0.0, 0.0), -1.0)
    if tag == CIRCLE_LIGHTLIKE:
        half = (np.divide, _G, 2)
        return _Formulas(_z_square, ((np.subtract, half, 1.0), _F, half),
                         (_F, 1.0, _F), (0.5, 0.0, 0.5),
                         ((np.divide, (np.subtract, _G, 1.0), 2), _F,
                          (np.divide, (np.add, _G, 1.0), 2)), -1.0)
    lam, mu = family.lam, family.mu
    k = lam / mu
    if tag == HELIX_TIMELIKE:
        return _Formulas(_sin_cos, (_G, _F, _times(lam, _Z)),
                         (_neg(_F), _G, lam), (_neg(_G), _neg(_F), 0.0),
                         (_times(k, _F), _times(-k, _G), -1.0 / mu), -1.0)
    if tag == HELIX_SPACELIKE_I:
        return _Formulas(_sinh_cosh, (_times(lam, _Z), _G, _F),
                         (lam, _F, _G), (0.0, _G, _F),
                         (-1.0 / mu, _times(-k, _F), _times(-k, _G)), -1.0)
    # helix-spacelike-ii
    return _Formulas(_sinh_cosh, (_times(lam, _Z), _F, _G), (lam, _G, _F),
                     (0.0, _F, _G),
                     (1.0 / mu, _times(-k, _G), _times(-k, _F)), -1.0)


def _null_to_orthonormal(n, b):
    """Lightlike circle: the terms of its null legs n, b as those of
    e2 = n - b (spacelike, unit) and e3 = n + b (timelike, unit)."""
    return (tuple((np.subtract, nk, bk) for nk, bk in zip(n, b)),
            tuple((np.add, nk, bk) for nk, bk in zip(n, b)))


class _Components:
    """Evaluator z -> (..., 3) array of three terms of one family."""

    def __init__(self, form: _Formulas, terms: tuple):
        self.form, self.terms = form, terms

    def __call__(self, z):
        z = np.asarray(z)
        f, g = self.form.kernel(z)
        return _vec(z, [_value(t, {_Z: z, _F: f, _G: g}) for t in self.terms])


def make_curve(family: CurveFamily) -> AnalyticMap:
    """Analytic extension of the core curve, with its exact derivative."""
    form = _formulas(family)
    return AnalyticMap(_Components(form, form.alpha),
                       _Components(form, form.deriv))


# Which frame leg is spacelike vs timelike decides where sinh(phi) and
# cosh(phi) attach; <V, V> = -1 requires cosh on the timelike leg.  These
# families carry cosh on the normal; the others, and the lightlike circle
# on (e2, e3), carry sinh there.
_COSH_ON_NORMAL = {CIRCLE_SPACELIKE, HELIX_SPACELIKE_II}


class _NormalField:
    """Evaluator of V = p n + q b on the frame legs (n, b), or (e2, e3)
    for the lightlike circle, where (p, q) is (sinh phi, cosh phi), swapped
    on the families that carry cosh on the normal; `terms` are V's, and
    `scale` is eps mu."""

    def __init__(self, form: _Formulas, spec: NormalFieldSpec,
                 sinh_on_normal: bool, terms: tuple, scale: float):
        self.form, self.spec = form, spec
        self.sinh_on_normal, self.terms = sinh_on_normal, terms
        self.scale = scale

    def twist(self, z):
        """(p, q) at z: scalars for a constant twist, else arrays."""
        sh, ch = _sinh_cosh(self.spec.a if self.spec.kind == "constant"
                            else self.spec.phi(z))
        return (sh, ch) if self.sinh_on_normal else (ch, sh)

    def __call__(self, z):
        return self._combine(z, *self.twist(z))

    def cross_derivative(self, w, out=None):
        """V(w) x alpha'(w) = eps mu (q n + p b): V's terms at the twist
        pair swapped and scaled, written into `out` when given."""
        p, q = self.twist(w)
        return self._combine(w, self.scale * q, self.scale * p, out)

    def _combine(self, z, p, q, out=None):
        z = np.asarray(z)
        f, g = self.form.kernel(z)
        env = {_Z: z, _F: f, _G: g, _P: p, _Q: q}
        if out is None:
            return _vec(z, [_value(t, env) for t in self.terms])
        for k, t in enumerate(self.terms):
            out[..., k] = _value(t, env)
        return out


def make_normal_field(family: CurveFamily, spec: NormalFieldSpec) -> AnalyticMap:
    """Unit timelike analytic field V with <V, alpha'> = 0 and <V, V> = -1."""
    form = _formulas(family)
    legs = (form.normal, form.binormal)
    if family.tag == CIRCLE_LIGHTLIKE:
        if spec.kind != "constant":
            raise ValueError(
                "the lightlike circle supports a constant twist only; "
                "a parameter-dependent angle does not combine with its null "
                "frame into an integrable normal field")
        legs = _null_to_orthonormal(*legs)
    terms = tuple((np.add, (np.multiply, _P, n), (np.multiply, _Q, b))
                  for n, b in zip(*legs))
    return AnalyticMap(_NormalField(form, spec,
                                    family.tag not in _COSH_ON_NORMAL, terms,
                                    form.eps * (family.mu or 1.0)))


def make_bjorling_data(family: CurveFamily,
                       spec: NormalFieldSpec) -> BjorlingData:
    """Assemble curve and normal field into Björling data."""
    return BjorlingData(alpha=make_curve(family),
                        normal_field=make_normal_field(family, spec))
