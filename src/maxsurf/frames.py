"""Core curves, adapted frames, and normal fields for the Björling construction.

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

Along each curve an adapted orthonormal frame (t, n, b) is stored (for the
lightlike circle, a null frame with <n, n> = <b, b> = 0 and <n, b> = -1/2).
A normal field V(t) = analytic unit timelike field orthogonal to the curve is
built by boosting within the normal plane: the hyperbolic angle phi(t) is
either constant or linear in t, and sinh(phi) attaches to the spacelike
normal direction, cosh(phi) to the timelike one, so that <V, V> = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
        """Speed of the helix, sqrt(|lam^2 -+ 1|); None for circles."""
        if self.tag == HELIX_TIMELIKE:
            return float(np.sqrt(1.0 - self.lam**2))
        if self.tag == HELIX_SPACELIKE_I:
            return float(np.sqrt(self.lam**2 - 1.0))
        if self.tag == HELIX_SPACELIKE_II:
            return float(np.sqrt(self.lam**2 + 1.0))
        return None


def circle_timelike() -> CurveFamily:
    return CurveFamily(CIRCLE_TIMELIKE)


def circle_spacelike() -> CurveFamily:
    return CurveFamily(CIRCLE_SPACELIKE)


def circle_lightlike() -> CurveFamily:
    return CurveFamily(CIRCLE_LIGHTLIKE)


def helix_timelike(lam: float) -> CurveFamily:
    return CurveFamily(HELIX_TIMELIKE, lam)


def helix_spacelike_i(lam: float) -> CurveFamily:
    return CurveFamily(HELIX_SPACELIKE_I, lam)


def helix_spacelike_ii(lam: float) -> CurveFamily:
    return CurveFamily(HELIX_SPACELIKE_II, lam)


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
        return self.a * np.asarray(t)


def constant_twist(a: float) -> NormalFieldSpec:
    return NormalFieldSpec("constant", a)


def linear_twist(a: float) -> NormalFieldSpec:
    return NormalFieldSpec("linear", a)


@dataclass(frozen=True)
class FrameField:
    """Adapted frame along a core curve, as analytic evaluators.

    For the five non-degenerate families (t, n, b) is orthonormal with one
    timelike member.  For the lightlike circle n and b are null with
    <n, b> = -1/2, and the combinations e2 = n - b (spacelike, unit) and
    e3 = n + b (timelike, unit) are also provided.
    """

    tangent: Callable
    normal: Callable
    binormal: Callable
    e2: Callable | None = None
    e3: Callable | None = None


@dataclass(frozen=True)
class BjorlingData:
    """A core curve with a normal field along it, anchored at parameter u0.

    alpha maps C -> C^3 and restricts to the spacelike curve on the real
    axis; normal_field restricts to a unit timelike field orthogonal to
    alpha' there.  Both are entire for every built-in family.
    """

    alpha: AnalyticMap
    normal_field: AnalyticMap
    u0: float = 0.0
    family: CurveFamily | None = None
    spec: NormalFieldSpec | None = None


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
    np.multiply(-sx, shy, out=cos.imag)
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


def _vec(z, comps):
    """Components (arrays shaped like z, or constants) as one (..., 3) array."""
    out = np.empty(z.shape + (3,), np.result_type(z, *comps))
    for k, comp in enumerate(comps):
        out[..., k] = comp
    return out


@dataclass(frozen=True)
class _Formulas:
    """The formulas of one family.  `kernel` maps z to the pair (f, g) that
    the others are written in; `alpha` and `deriv` map (z, f, g) to the
    components of the curve and of its derivative, and `legs` to those of
    the stored (normal, binormal) frame legs.  Constant components are
    floats."""

    kernel: Callable
    alpha: Callable
    deriv: Callable
    legs: Callable


def _formulas(family: CurveFamily) -> _Formulas:
    tag = family.tag
    if tag == CIRCLE_TIMELIKE:
        return _Formulas(_sin_cos,
                         lambda z, s, c: (c, s, 0.0),
                         lambda z, s, c: (-s, c, 0.0),
                         lambda z, s, c: ((-c, -s, 0.0), (0.0, 0.0, 1.0)))
    if tag == CIRCLE_SPACELIKE:
        return _Formulas(_sinh_cosh,
                         lambda z, sh, ch: (0.0, sh, ch),
                         lambda z, sh, ch: (0.0, ch, sh),
                         lambda z, sh, ch: ((0.0, sh, ch), (1.0, 0.0, 0.0)))
    if tag == CIRCLE_LIGHTLIKE:
        return _Formulas(lambda z: (z, z**2),
                         lambda z, _, z2: (z2 / 2 - 1.0, z, z2 / 2),
                         lambda z, _, z2: (z, 1.0, z),
                         lambda z, _, z2: ((0.5, 0.0, 0.5),
                                           ((z2 - 1.0) / 2, z, (z2 + 1.0) / 2)))
    lam, mu = family.lam, family.mu
    k = lam / mu
    if tag == HELIX_TIMELIKE:
        return _Formulas(_sin_cos,
                         lambda z, s, c: (c, s, lam * z),
                         lambda z, s, c: (-s, c, lam),
                         lambda z, s, c: ((-c, -s, 0.0),
                                          (k * s, -k * c, -1.0 / mu)))
    if tag == HELIX_SPACELIKE_I:
        return _Formulas(_sinh_cosh,
                         lambda z, sh, ch: (lam * z, ch, sh),
                         lambda z, sh, ch: (lam, sh, ch),
                         lambda z, sh, ch: ((0.0, ch, sh),
                                            (-1.0 / mu, -k * sh, -k * ch)))
    # helix-spacelike-ii
    return _Formulas(_sinh_cosh,
                     lambda z, sh, ch: (lam * z, sh, ch),
                     lambda z, sh, ch: (lam, ch, sh),
                     lambda z, sh, ch: ((0.0, sh, ch),
                                        (1.0 / mu, -k * ch, -k * sh)))


def _null_to_orthonormal(n, b):
    """Lightlike circle: its null legs n, b as e2 = n - b (spacelike, unit)
    and e3 = n + b (timelike, unit), componentwise."""
    return (tuple(nk - bk for nk, bk in zip(n, b)),
            tuple(nk + bk for nk, bk in zip(n, b)))


def _evaluator(kernel, formula):
    """z -> (..., 3) array of the components formula(z, *kernel(z))."""
    def evaluate(z):
        z = np.asarray(z)
        return _vec(z, formula(z, *kernel(z)))
    return evaluate


def make_curve(family: CurveFamily) -> AnalyticMap:
    """Analytic extension of the core curve, with its exact derivative."""
    form = _formulas(family)
    return AnalyticMap(_evaluator(form.kernel, form.alpha),
                       _evaluator(form.kernel, form.deriv))


def make_frame(family: CurveFamily) -> FrameField:
    """Adapted frame evaluators (unit tangent; frame vectors as stored)."""
    form = _formulas(family)
    deriv = _evaluator(form.kernel, form.deriv)
    speed = family.mu or 1.0  # circles have unit speed

    def leg(pick):
        return _evaluator(form.kernel, lambda *args: pick(form.legs(*args)))

    def tangent(z):
        return deriv(z) / speed

    e2 = e3 = None
    if family.tag == CIRCLE_LIGHTLIKE:
        e2 = leg(lambda nb: _null_to_orthonormal(*nb)[0])
        e3 = leg(lambda nb: _null_to_orthonormal(*nb)[1])
    return FrameField(tangent, leg(lambda nb: nb[0]), leg(lambda nb: nb[1]),
                      e2, e3)


# Which frame leg is spacelike vs timelike decides where sinh(phi) and
# cosh(phi) attach; <V, V> = -1 requires cosh on the timelike leg.  These
# families carry cosh on the normal; the others, and the lightlike circle
# on (e2, e3), carry sinh there.
_COSH_ON_NORMAL = {CIRCLE_SPACELIKE, HELIX_SPACELIKE_II}


def make_normal_field(family: CurveFamily, spec: NormalFieldSpec) -> AnalyticMap:
    """Unit timelike analytic field V with <V, alpha'> = 0 and <V, V> = -1."""
    form = _formulas(family)
    null = family.tag == CIRCLE_LIGHTLIKE
    if null and spec.kind != "constant":
        raise ValueError(
            "the lightlike circle supports a constant twist only; "
            "a parameter-dependent angle does not combine with its null frame "
            "into an integrable normal field")
    constant = _sinh_cosh(spec.a) if spec.kind == "constant" else None
    sinh_on_normal = family.tag not in _COSH_ON_NORMAL

    def field(z):
        z = np.asarray(z)
        n, b = form.legs(z, *form.kernel(z))
        if null:
            n, b = _null_to_orthonormal(n, b)
        sh, ch = constant if constant is not None else _sinh_cosh(spec.phi(z))
        p, q = (sh, ch) if sinh_on_normal else (ch, sh)
        return _vec(z, tuple(p * nk + q * bk for nk, bk in zip(n, b)))

    return AnalyticMap(field)


def make_bjorling_data(family: CurveFamily, spec: NormalFieldSpec,
                       u0: float = 0.0) -> BjorlingData:
    """Assemble curve and normal field into Björling data anchored at u0."""
    return BjorlingData(alpha=make_curve(family),
                        normal_field=make_normal_field(family, spec),
                        u0=u0, family=family, spec=spec)
