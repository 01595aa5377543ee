"""Core curves, printed frames, and the twisting normal fields."""

import numpy as np
import pytest

from maxsurf import frames
from maxsurf.frames import CurveFamily, NormalFieldSpec
from maxsurf.lorentz import lorentz_cross, lorentz_dot, vec3

U_SAMPLES = np.linspace(-2.0, 2.0, 9)

ORTHONORMAL_FAMILIES = [
    CurveFamily(frames.CIRCLE_TIMELIKE),
    CurveFamily(frames.CIRCLE_SPACELIKE),
    CurveFamily(frames.HELIX_TIMELIKE, 0.6),
    CurveFamily(frames.HELIX_SPACELIKE_I, 2.0),
    CurveFamily(frames.HELIX_SPACELIKE_II, 1.0),
]
LIGHTLIKE_CIRCLE = CurveFamily(frames.CIRCLE_LIGHTLIKE)
ALL_FAMILIES = ORTHONORMAL_FAMILIES + [LIGHTLIKE_CIRCLE]


@pytest.mark.parametrize("kernel,refs", [
    (frames._sin_cos, (np.sin, np.cos)),
    (frames._sinh_cosh, (np.sinh, np.cosh)),
], ids=["sin-cos", "sinh-cosh"])
def test_trig_kernels_match_numpy(kernel, refs):
    # complex input: within 4 eps of numpy's complex ufuncs, relative to
    # max(1, |f|), out to |Re z| = 700 and |Im z| = 300 (no overflow there)
    small = np.linspace(-3.0, 3.0, 31)
    x = np.concatenate([np.linspace(-700.0, 700.0, 141), small])
    y = np.concatenate([np.linspace(-300.0, 300.0, 61), small])
    z = x[:, None] + 1j * y[None, :]
    eps = np.finfo(float).eps
    for got, ref in zip(kernel(z), refs):
        want = ref(z)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * eps * np.maximum(1.0, np.abs(want)))
    # real input goes straight to the real ufuncs
    for real in (x, small.astype(np.float32), np.float64(0.3)):
        for got, ref in zip(kernel(real), refs):
            want = ref(real)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.tag)
def test_curve_speed_is_mu_or_one(family):
    # <alpha', alpha'> = mu^2 for a helix, 1 for a circle
    d = frames.make_curve(family).d(U_SAMPLES)
    speed = family.mu or 1.0
    assert np.max(np.abs(lorentz_dot(d, d) - speed * speed)) < 1e-12


def test_curve_derivative_matches_finite_differences():
    curve = frames.make_curve(CurveFamily(frames.HELIX_TIMELIKE, 0.6))
    h = 1e-6
    fd = (curve(U_SAMPLES + h) - curve(U_SAMPLES - h)) / (2 * h)
    assert np.max(np.abs(fd - curve.d(U_SAMPLES))) < 1e-9


# Constant twists 0, 0.8 and 1.7 and a linear one; the lightlike circle
# takes a constant twist only.
TWISTS = [NormalFieldSpec("constant", a) for a in (0.0, 0.8, 1.7)] + [
    NormalFieldSpec("linear", 0.8)]


@pytest.mark.parametrize("family,spec", [
    (family, spec) for family in ALL_FAMILIES for spec in TWISTS
    if family is not LIGHTLIKE_CIRCLE or spec.kind == "constant"],
    ids=lambda x: getattr(x, "tag", None) or f"{x.kind}-{x.a}")
def test_normal_field_is_unit_timelike_and_orthogonal(family, spec):
    # V = p n + q b with p^2 - q^2 = -1 or +1 on the stored legs (n, b).
    # <V, V> = -1 at the three constant twists forces the legs to be
    # Lorentz orthonormal, one of them timelike; for the lightlike circle,
    # whose V sits on (n - b, n + b), it forces null legs with
    # <n, b> = -1/2.  <V, alpha'> = 0 at two twists forces both legs
    # normal to the curve.
    V = frames.make_normal_field(family, spec)(U_SAMPLES)
    d = frames.make_curve(family).d(U_SAMPLES)
    assert np.max(np.abs(lorentz_dot(V, V) + 1.0)) < 1e-12
    assert np.max(np.abs(lorentz_dot(V, d))) < 1e-12


def _printed_legs(family, t):
    """The stored legs (n, b) of a family, as printed."""
    lam, mu, tag = family.lam, family.mu, family.tag
    zero, one = np.zeros_like(t), np.ones_like(t)
    if tag == frames.CIRCLE_TIMELIKE:
        return vec3(-np.cos(t), -np.sin(t), zero), vec3(zero, zero, one)
    if tag == frames.CIRCLE_SPACELIKE:
        return vec3(zero, np.sinh(t), np.cosh(t)), vec3(one, zero, zero)
    if tag == frames.CIRCLE_LIGHTLIKE:
        return (vec3(0.5 * one, zero, 0.5 * one),
                vec3((t * t - 1.0) / 2.0, t, (t * t + 1.0) / 2.0))
    k = lam / mu
    if tag == frames.HELIX_TIMELIKE:
        return (vec3(-np.cos(t), -np.sin(t), zero),
                vec3(k * np.sin(t), -k * np.cos(t), -one / mu))
    if tag == frames.HELIX_SPACELIKE_I:
        return (vec3(zero, np.cosh(t), np.sinh(t)),
                vec3(-one / mu, -k * np.sinh(t), -k * np.cosh(t)))
    return (vec3(zero, np.sinh(t), np.cosh(t)),
            vec3(one / mu, -k * np.cosh(t), -k * np.sinh(t)))


@pytest.mark.parametrize("family,comb", [
    (CurveFamily(frames.CIRCLE_TIMELIKE), "sinh-normal"),
    (CurveFamily(frames.HELIX_TIMELIKE, 0.6), "sinh-normal"),
    (CurveFamily(frames.HELIX_SPACELIKE_I, 2.0), "sinh-normal"),
    (CurveFamily(frames.CIRCLE_SPACELIKE), "cosh-normal"),
    (CurveFamily(frames.HELIX_SPACELIKE_II, 1.0), "cosh-normal"),
], ids=lambda x: x if isinstance(x, str) else x.tag)
def test_twist_attaches_to_the_printed_combination(family, comb):
    a = 0.7
    field = frames.make_normal_field(family, NormalFieldSpec("constant", a))
    n, b = _printed_legs(family, U_SAMPLES)
    if comb == "sinh-normal":
        expected = np.sinh(a) * n + np.cosh(a) * b
    else:
        expected = np.cosh(a) * n + np.sinh(a) * b
    V = field(U_SAMPLES)
    assert np.max(np.abs(V - expected)) < 1e-12


def test_lightlike_normal_field_uses_orthonormalized_legs():
    # The null legs combine as e2 = n - b (spacelike) and e3 = n + b
    # (timelike); the constant twist attaches to those.
    a = 0.9
    field = frames.make_normal_field(LIGHTLIKE_CIRCLE,
                                     NormalFieldSpec("constant", a))
    n, b = _printed_legs(LIGHTLIKE_CIRCLE, U_SAMPLES)
    expected = np.sinh(a) * (n - b) + np.cosh(a) * (n + b)
    V = field(U_SAMPLES)
    assert np.max(np.abs(V - expected)) < 1e-12
    assert np.max(np.abs(lorentz_dot(V, V) + 1.0)) < 1e-12
    assert np.allclose(field(np.array(0.0)), [np.sinh(a), 0.0, np.cosh(a)])


def test_circle_normal_fields_point_to_the_future():
    for tag in frames.CIRCLE_TAGS:
        field = frames.make_normal_field(CurveFamily(tag),
                                         NormalFieldSpec("constant", 0.5))
        assert np.all(field(U_SAMPLES)[..., 2] > 0)


def test_linear_twist_rejected_on_lightlike_circle():
    with pytest.raises(ValueError):
        frames.make_normal_field(LIGHTLIKE_CIRCLE,
                                 NormalFieldSpec("linear", 1.0))


def test_twist_parameter_validation():
    with pytest.raises(ValueError):
        NormalFieldSpec("constant", -0.1)
    with pytest.raises(ValueError):
        NormalFieldSpec("linear", 0.0)
    NormalFieldSpec("constant", 0.0)  # boundary allowed for the constant case


def test_twist_phase():
    u = np.linspace(-1, 1, 5)
    assert np.allclose(NormalFieldSpec("constant", 0.7).phi(u), 0.7)
    assert np.allclose(NormalFieldSpec("linear", 0.7).phi(u), 0.7 * u)


def test_helix_pitch_validation():
    with pytest.raises(ValueError):
        CurveFamily(frames.HELIX_TIMELIKE, 1.0)  # needs 0 < lam < 1
    with pytest.raises(ValueError):
        CurveFamily(frames.HELIX_SPACELIKE_I, 1.0)  # needs lam > 1
    with pytest.raises(ValueError):
        CurveFamily(frames.HELIX_SPACELIKE_II, 0.0)  # needs lam > 0


def test_helix_speed_values():
    assert CurveFamily(frames.HELIX_TIMELIKE, 0.6).mu == pytest.approx(0.8)
    assert CurveFamily(frames.HELIX_SPACELIKE_I, 2.0).mu \
        == pytest.approx(np.sqrt(3.0))
    assert CurveFamily(frames.HELIX_SPACELIKE_II, 1.0).mu \
        == pytest.approx(np.sqrt(2.0))


def test_bjorling_data_bundles_curve_and_field():
    data = frames.make_bjorling_data(CurveFamily(frames.CIRCLE_TIMELIKE),
                                     NormalFieldSpec("linear", 1.0))
    pt = data.alpha(np.array(0.3))
    assert np.allclose(pt, [np.cos(0.3), np.sin(0.3), 0.0])
    V = data.normal_field(np.array(0.3))
    assert abs(lorentz_dot(V, V) + 1.0) < 1e-12


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.tag)
def test_frame_legs_carry_their_recorded_orientation(family):
    # n x alpha' = eps mu b and b x alpha' = eps mu n, with the eps of
    # _formulas: the identity the Björling integrand is built on.  The
    # lightlike circle's legs are (e2, e3).
    form = frames._formulas(family)
    legs = (form.normal, form.binormal)
    if family.tag == frames.CIRCLE_LIGHTLIKE:
        legs = frames._null_to_orthonormal(*legs)
    rng = np.random.default_rng(7)
    t = rng.uniform(-2.0, 2.0, 40) + 1j * rng.uniform(-2.0, 2.0, 40)
    n, b = (frames._Components(form, leg)(t) for leg in legs)
    d = frames.make_curve(family).d(t)
    scale = form.eps * (family.mu or 1.0)
    assert form.eps in (1.0, -1.0)
    for leg, other in ((n, b), (b, n)):
        assert np.max(np.abs(lorentz_cross(leg, d) - scale * other)) \
            <= 1e-13 * np.max(np.abs(other))
