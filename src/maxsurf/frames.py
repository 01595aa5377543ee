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

from .lorentz import _cross_into, lorentz_cross

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

    def phi(self, t, out=None):
        if self.kind == "constant":
            return self.a * np.ones_like(np.asarray(t))
        return np.multiply(self.a, t, out=out)


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

    def integrand(self, w, out=None, work=None):
        """The Björling integrand V(w) x alpha'(w), as a (..., 3) array.

        If the normal field and the curve derivative are one built-in
        family's, as make_bjorling_data builds them, and w is complex, the
        kernel and the twist are evaluated once and V, alpha' and their
        product are written with out= ufuncs: the product into `out`, the
        rest into `work`, WORK_PLANES complex planes shaped like w (either
        is allocated when not given).  The pair is recognized by the maps'
        own evaluators, never by `family` or `spec`, so a swapped map is
        always the one evaluated.  Other data takes
        lorentz_cross(normal_field(w), alpha.d(w), out=out).  Both ways
        give the same bits.
        """
        w = np.asarray(w)
        field, deriv = self.normal_field.func, self.alpha.deriv
        if not (isinstance(field, _NormalField)
                and isinstance(deriv, _Components) and w.dtype == complex
                and (deriv.form, deriv.terms) == (field.form,
                                                   field.form.deriv)):
            return lorentz_cross(self.normal_field(w), self.alpha.d(w),
                                 out=out)
        if out is None:
            out = np.empty(w.shape + (3,), complex)
        if work is None:
            work = np.empty((WORK_PLANES,) + w.shape, complex)
        return field.cross_derivative(w, out, work)


def _sin_cos(z, out=None, work=None):
    """(sin z, cos z), for complex z from four real ufunc passes:

        sin(x + iy) = sin x cosh y + i cos x sinh y
        cos(x + iy) = cos x cosh y - i sin x sinh y

    numpy's complex sin and cos each cost several times a real pass and
    share no work.  Real input goes straight to the real ufuncs, so it keeps
    its exact values and dtype.  For complex z, `out` may hold the two
    complex results and `work` four real arrays shaped like z.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.sin(z), np.cos(z)
    sx, cx, shy, chy = work or (None,) * 4
    sx, cx = np.sin(z.real, out=sx), np.cos(z.real, out=cx)
    shy, chy = np.sinh(z.imag, out=shy), np.cosh(z.imag, out=chy)
    sin, cos = out or (np.empty_like(z), np.empty_like(z))
    np.multiply(sx, chy, out=sin.real)
    np.multiply(cx, shy, out=sin.imag)
    np.multiply(cx, chy, out=cos.real)
    np.multiply(np.negative(sx, out=sx if work else None), shy, out=cos.imag)
    return sin, cos


def _sinh_cosh(z, out=None, work=None):
    """(sinh z, cosh z), for complex z from four real ufunc passes:

        sinh(x + iy) = sinh x cos y + i cosh x sin y
        cosh(x + iy) = cosh x cos y + i sinh x sin y

    Real input goes straight to the real ufuncs, so it keeps its exact
    values and dtype.  `out` and `work` are as for _sin_cos; z is read in
    full before `out` is written, so `out` may share z's memory.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.sinh(z), np.cosh(z)
    shx, chx, sy, cy = work or (None,) * 4
    shx, chx = np.sinh(z.real, out=shx), np.cosh(z.real, out=chx)
    sy, cy = np.sin(z.imag, out=sy), np.cos(z.imag, out=cy)
    sinh, cosh = out or (np.empty_like(z), np.empty_like(z))
    np.multiply(shx, cy, out=sinh.real)
    np.multiply(chx, sy, out=sinh.imag)
    np.multiply(chx, cy, out=cosh.real)
    np.multiply(shx, sy, out=cosh.imag)
    return sinh, cosh


def _z_square(z, out=None, work=None):
    """(z, z^2): the lightlike circle's kernel.  np.square is what z**2
    runs."""
    return z, np.square(z, out=None if out is None else out[1])


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


def _value(term, env, bufs=()):
    """The value of a term, with the symbols bound by `env`.

    Without `bufs` each operation allocates its result, as numpy's
    operators do.  With `bufs`, an operation that yields an array writes
    it into bufs[0]; its operands that are operations are evaluated first,
    in order, into bufs[0], bufs[1], ..., each with the buffers after its
    own as scratch.  Operations on scalars alone give scalars either way.
    """
    if isinstance(term, str):
        return env[term]
    if not isinstance(term, tuple):
        return term
    ufunc, *args = term
    vals, used = [], 0
    for arg in args:
        val = _value(arg, env, bufs[used:])
        if bufs and isinstance(arg, tuple) and _ndim(val):
            used += 1
        vals.append(val)
    if bufs and any(_ndim(val) for val in vals):
        return ufunc(*vals, out=bufs[0])
    return ufunc(*vals)


def _ndim(value):
    return getattr(value, "ndim", 0)


@dataclass(frozen=True)
class _Formulas:
    """The formulas of one family, as data.  `kernel` maps z to the pair
    (f, g) the terms are written in (with optional `out` and `work` as for
    _sin_cos); `alpha` and `deriv` are the terms of the curve and of its
    derivative, `normal` and `binormal` those of the stored frame legs."""

    kernel: Callable
    alpha: tuple
    deriv: tuple
    normal: tuple
    binormal: tuple


def _formulas(family: CurveFamily) -> _Formulas:
    tag = family.tag
    if tag == CIRCLE_TIMELIKE:
        return _Formulas(_sin_cos, (_G, _F, 0.0), (_neg(_F), _G, 0.0),
                         (_neg(_G), _neg(_F), 0.0), (0.0, 0.0, 1.0))
    if tag == CIRCLE_SPACELIKE:
        return _Formulas(_sinh_cosh, (0.0, _F, _G), (0.0, _G, _F),
                         (0.0, _F, _G), (1.0, 0.0, 0.0))
    if tag == CIRCLE_LIGHTLIKE:
        half = (np.divide, _G, 2)
        return _Formulas(_z_square, ((np.subtract, half, 1.0), _F, half),
                         (_F, 1.0, _F), (0.5, 0.0, 0.5),
                         ((np.divide, (np.subtract, _G, 1.0), 2), _F,
                          (np.divide, (np.add, _G, 1.0), 2)))
    lam, mu = family.lam, family.mu
    k = lam / mu
    if tag == HELIX_TIMELIKE:
        return _Formulas(_sin_cos, (_G, _F, _times(lam, _Z)),
                         (_neg(_F), _G, lam), (_neg(_G), _neg(_F), 0.0),
                         (_times(k, _F), _times(-k, _G), -1.0 / mu))
    if tag == HELIX_SPACELIKE_I:
        return _Formulas(_sinh_cosh, (_times(lam, _Z), _G, _F),
                         (lam, _F, _G), (0.0, _G, _F),
                         (-1.0 / mu, _times(-k, _F), _times(-k, _G)))
    # helix-spacelike-ii
    return _Formulas(_sinh_cosh, (_times(lam, _Z), _F, _G), (lam, _G, _F),
                     (0.0, _F, _G),
                     (1.0 / mu, _times(-k, _G), _times(-k, _F)))


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


def make_frame(family: CurveFamily) -> FrameField:
    """Adapted frame evaluators (unit tangent; frame vectors as stored)."""
    form = _formulas(family)
    deriv = _Components(form, form.deriv)
    speed = family.mu or 1.0  # circles have unit speed

    def tangent(z):
        return deriv(z) / speed

    e2 = e3 = None
    if family.tag == CIRCLE_LIGHTLIKE:
        e2, e3 = (_Components(form, legs) for legs in
                  _null_to_orthonormal(form.normal, form.binormal))
    return FrameField(tangent, _Components(form, form.normal),
                      _Components(form, form.binormal), e2, e3)


# Which frame leg is spacelike vs timelike decides where sinh(phi) and
# cosh(phi) attach; <V, V> = -1 requires cosh on the timelike leg.  These
# families carry cosh on the normal; the others, and the lightlike circle
# on (e2, e3), carry sinh there.
_COSH_ON_NORMAL = {CIRCLE_SPACELIKE, HELIX_SPACELIKE_II}

# Complex planes of an integrand's work array: the kernel pair, V, a
# scratch plane, then the twist pair and one more, which take alpha' once
# V is done.  V's planes also serve as the kernels' real scratch.
WORK_PLANES = 9


class _NormalField:
    """Evaluator of V = p n + q b on the frame legs (n, b), or (e2, e3)
    for the lightlike circle, where (p, q) is (sinh phi, cosh phi), swapped
    on the families that carry cosh on the normal; `terms` are V's."""

    def __init__(self, form: _Formulas, spec: NormalFieldSpec,
                 sinh_on_normal: bool, terms: tuple):
        self.form, self.spec = form, spec
        self.sinh_on_normal, self.terms = sinh_on_normal, terms

    def twist(self, z, out=None, work=None):
        """(p, q) at z: scalars for a constant twist, else arrays (in
        `out` when given, with `work` as for _sinh_cosh)."""
        if self.spec.kind == "constant":
            sh, ch = _sinh_cosh(self.spec.a)
        else:
            phi = self.spec.phi(z, out=None if out is None else out[0])
            sh, ch = _sinh_cosh(phi, out=out, work=work)
        return (sh, ch) if self.sinh_on_normal else (ch, sh)

    def __call__(self, z):
        z = np.asarray(z)
        f, g = self.form.kernel(z)
        p, q = self.twist(z)
        env = {_Z: z, _F: f, _G: g, _P: p, _Q: q}
        return _vec(z, [_value(t, env) for t in self.terms])

    def cross_derivative(self, w, out, work):
        """V(w) x alpha'(w) into `out`, through the planes of `work`: the
        kernel and the twist once, then V, alpha' and the cross product by
        the same operations as the evaluators and lorentz_cross."""
        # work[k, ...] stays an array view when w is 0-d
        f, g, v0, v1, v2, tmp, p, q, x = (work[k, ...]
                                          for k in range(WORK_PLANES))
        real = [half.reshape(w.shape) for plane in (v0, v1)
                for half in plane.reshape(-1).view(float).reshape(2, -1)]
        f, g = self.form.kernel(w, out=(f, g), work=real)
        env = {_Z: w, _F: f, _G: g}
        env[_P], env[_Q] = self.twist(w, out=(p, q), work=real)
        field = [_value(t, env, (plane, tmp))
                 for t, plane in zip(self.terms, (v0, v1, v2))]
        # the twist is spent: its planes take alpha'
        deriv = [_value(t, env, (plane,))
                 for t, plane in zip(self.form.deriv, (p, q, x))]
        # constants enter the product as complex, as _vec stores them
        _cross_into([c if _ndim(c) else np.complex128(c) for c in field],
                    [c if _ndim(c) else np.complex128(c) for c in deriv],
                    [out[..., k] for k in range(3)], tmp)
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
                                    family.tag not in _COSH_ON_NORMAL, terms))


def make_bjorling_data(family: CurveFamily, spec: NormalFieldSpec,
                       u0: float = 0.0) -> BjorlingData:
    """Assemble curve and normal field into Björling data anchored at u0."""
    return BjorlingData(alpha=make_curve(family),
                        normal_field=make_normal_field(family, spec),
                        u0=u0, family=family, spec=spec)
