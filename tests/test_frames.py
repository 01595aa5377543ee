"""Core curves, printed frames, and the twisting normal fields."""

import tracemalloc

import numpy as np
import pytest

from maxsurf import frames
from maxsurf.lorentz import lorentz_cross, lorentz_dot

U_SAMPLES = np.linspace(-2.0, 2.0, 9)

ORTHONORMAL_FAMILIES = [
    frames.circle_timelike(),
    frames.circle_spacelike(),
    frames.helix_timelike(0.6),
    frames.helix_spacelike_i(2.0),
    frames.helix_spacelike_ii(1.0),
]


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


@pytest.mark.parametrize("family", ORTHONORMAL_FAMILIES,
                         ids=lambda f: f.tag)
def test_frame_is_lorentz_orthonormal(family):
    frame = frames.make_frame(family)
    t = frame.tangent(U_SAMPLES)
    n = frame.normal(U_SAMPLES)
    b = frame.binormal(U_SAMPLES)
    assert np.max(np.abs(lorentz_dot(t, t) - 1.0)) < 1e-12
    assert np.max(np.abs(lorentz_dot(t, n))) < 1e-12
    assert np.max(np.abs(lorentz_dot(t, b))) < 1e-12
    assert np.max(np.abs(lorentz_dot(n, b))) < 1e-12
    # one of n, b is timelike and the other spacelike
    nn = lorentz_dot(n, n)
    bb = lorentz_dot(b, b)
    assert np.max(np.abs(nn * bb + 1.0)) < 1e-12


def test_lightlike_frame_pairing():
    # The lightlike-axis circle has no orthonormal frame; the printed null
    # frame satisfies <n,n> = <b,b> = 0 and <n,b> = -1/2.
    frame = frames.make_frame(frames.circle_lightlike())
    n = frame.normal(U_SAMPLES)
    b = frame.binormal(U_SAMPLES)
    t = frame.tangent(U_SAMPLES)
    assert np.max(np.abs(lorentz_dot(n, n))) < 1e-12
    assert np.max(np.abs(lorentz_dot(b, b))) < 1e-12
    assert np.max(np.abs(lorentz_dot(n, b) + 0.5)) < 1e-12
    assert np.max(np.abs(lorentz_dot(t, t) - 1.0)) < 1e-12


@pytest.mark.parametrize("family", ORTHONORMAL_FAMILIES,
                         ids=lambda f: f.tag)
def test_tangent_matches_curve_derivative(family):
    curve = frames.make_curve(family)
    d = curve.d(U_SAMPLES)
    speed = np.sqrt(np.abs(lorentz_dot(d, d)))[..., None]
    t = frames.make_frame(family).tangent(U_SAMPLES)
    assert np.max(np.abs(d / speed - t)) < 1e-12


def test_curve_derivative_matches_finite_differences():
    curve = frames.make_curve(frames.helix_timelike(0.6))
    h = 1e-6
    fd = (curve(U_SAMPLES + h) - curve(U_SAMPLES - h)) / (2 * h)
    assert np.max(np.abs(fd - curve.d(U_SAMPLES))) < 1e-9


@pytest.mark.parametrize("family", ORTHONORMAL_FAMILIES,
                         ids=lambda f: f.tag)
@pytest.mark.parametrize("spec_maker", [
    lambda: frames.constant_twist(0.8),
    lambda: frames.linear_twist(0.8),
], ids=["constant", "linear"])
def test_normal_field_is_unit_timelike_and_orthogonal(family, spec_maker):
    field = frames.make_normal_field(family, spec_maker())
    V = field(U_SAMPLES)
    frame = frames.make_frame(family)
    assert np.max(np.abs(lorentz_dot(V, V) + 1.0)) < 1e-12
    assert np.max(np.abs(lorentz_dot(V, frame.tangent(U_SAMPLES)))) < 1e-12


@pytest.mark.parametrize("family,comb", [
    (frames.circle_timelike(), "sinh-normal"),
    (frames.helix_timelike(0.6), "sinh-normal"),
    (frames.helix_spacelike_i(2.0), "sinh-normal"),
    (frames.circle_spacelike(), "cosh-normal"),
    (frames.helix_spacelike_ii(1.0), "cosh-normal"),
], ids=lambda x: x if isinstance(x, str) else x.tag)
def test_twist_attaches_to_the_printed_combination(family, comb):
    a = 0.7
    field = frames.make_normal_field(family, frames.constant_twist(a))
    frame = frames.make_frame(family)
    n = frame.normal(U_SAMPLES)
    b = frame.binormal(U_SAMPLES)
    if comb == "sinh-normal":
        expected = np.sinh(a) * n + np.cosh(a) * b
    else:
        expected = np.cosh(a) * n + np.sinh(a) * b
    V = field(U_SAMPLES)
    assert np.max(np.abs(V - expected)) < 1e-12


def test_lightlike_normal_field_uses_orthonormalized_legs():
    # The null frame legs combine as e2 = n - b (spacelike) and
    # e3 = n + b (timelike); the constant twist attaches to those.
    a = 0.9
    family = frames.circle_lightlike()
    field = frames.make_normal_field(family, frames.constant_twist(a))
    frame = frames.make_frame(family)
    n = frame.normal(U_SAMPLES)
    b = frame.binormal(U_SAMPLES)
    expected = np.sinh(a) * (n - b) + np.cosh(a) * (n + b)
    V = field(U_SAMPLES)
    assert np.max(np.abs(V - expected)) < 1e-12
    assert np.max(np.abs(lorentz_dot(V, V) + 1.0)) < 1e-12
    assert np.allclose(field(np.array(0.0)), [np.sinh(a), 0.0, np.cosh(a)])


def test_circle_normal_fields_point_to_the_future():
    for family in (frames.circle_timelike(), frames.circle_spacelike(),
                   frames.circle_lightlike()):
        field = frames.make_normal_field(family, frames.constant_twist(0.5))
        assert np.all(field(U_SAMPLES)[..., 2] > 0)


def test_linear_twist_rejected_on_lightlike_circle():
    with pytest.raises(ValueError):
        frames.make_normal_field(frames.circle_lightlike(),
                                 frames.linear_twist(1.0))


def test_twist_parameter_validation():
    with pytest.raises(ValueError):
        frames.constant_twist(-0.1)
    with pytest.raises(ValueError):
        frames.linear_twist(0.0)
    frames.constant_twist(0.0)  # boundary allowed for the constant case


def test_twist_phase():
    u = np.linspace(-1, 1, 5)
    assert np.allclose(frames.constant_twist(0.7).phi(u), 0.7)
    assert np.allclose(frames.linear_twist(0.7).phi(u), 0.7 * u)


def test_helix_pitch_validation():
    with pytest.raises(ValueError):
        frames.helix_timelike(1.0)  # needs 0 < lam < 1
    with pytest.raises(ValueError):
        frames.helix_spacelike_i(1.0)  # needs lam > 1
    with pytest.raises(ValueError):
        frames.helix_spacelike_ii(0.0)  # needs lam > 0


def test_helix_speed_values():
    assert frames.helix_timelike(0.6).mu == pytest.approx(0.8)
    assert frames.helix_spacelike_i(2.0).mu == pytest.approx(np.sqrt(3.0))
    assert frames.helix_spacelike_ii(1.0).mu == pytest.approx(np.sqrt(2.0))


def test_bjorling_data_bundles_curve_and_field():
    data = frames.make_bjorling_data(frames.circle_timelike(),
                                     frames.linear_twist(1.0), u0=0.25)
    assert data.u0 == 0.25
    pt = data.alpha(np.array(0.3))
    assert np.allclose(pt, [np.cos(0.3), np.sin(0.3), 0.0])
    V = data.normal_field(np.array(0.3))
    assert abs(lorentz_dot(V, V) + 1.0) < 1e-12


# Every curve family with each twist it admits: the lightlike circle takes
# a constant twist only.
BJORLING_PAIRS = [
    (family, spec)
    for family in ORTHONORMAL_FAMILIES + [frames.circle_lightlike()]
    for spec in (frames.constant_twist(0.0), frames.constant_twist(1.3),
                 frames.linear_twist(0.7), frames.linear_twist(2.0))
    if family.tag != frames.CIRCLE_LIGHTLIKE or spec.kind == "constant"]


@pytest.mark.parametrize("family,spec", BJORLING_PAIRS,
                         ids=lambda x: getattr(x, "tag", None) or
                         f"{x.kind}-{x.a}")
def test_fused_integrand_matches_the_generic_cross_product(family, spec,
                                                          monkeypatch):
    # The fused integrand runs the generic formula's operations, so every
    # value keeps its bits, overflow included: cosh and sinh overflow past
    # |Re z| or |Im z| = 710, and the inf and nan that follow land in the
    # same places.  It never falls back to lorentz_cross.
    data = frames.make_bjorling_data(family, spec)
    x = np.concatenate([np.linspace(-720.0, 720.0, 37),
                        np.linspace(-2.0, 2.0, 9)])
    z = x[:, None] + 1j * x[None, :]
    out = np.empty(z.shape + (3,), complex)
    work = np.empty((frames.WORK_PLANES,) + z.shape, complex)
    with np.errstate(all="ignore"):
        generic = lorentz_cross(data.normal_field(z), data.alpha.d(z))
        monkeypatch.setattr(frames, "lorentz_cross", None)
        fused = data.integrand(z)
        assert data.integrand(z, out=out, work=work) is out
        # one point, as a 0-d array
        point = np.asarray(z[40, 43])
        at_point = lorentz_cross(data.normal_field(point), data.alpha.d(point))
        assert np.array_equal(data.integrand(point), at_point)
    for got in (fused, out):
        assert np.array_equal(got, generic, equal_nan=True)
        assert np.array_equal(got.view(np.uint64), generic.view(np.uint64))


def test_fused_integrand_allocates_no_pass_sized_array():
    # with `out` and `work` given, a pass of 16 384 points allocates a few
    # small objects only; the generic product allocates megabytes
    data = frames.make_bjorling_data(frames.helix_timelike(0.6),
                                     frames.linear_twist(0.7))
    w = np.linspace(-1.0, 1.0, 512)[:, None, None] * (1.0 + 0.3j) \
        * np.linspace(0.0, 1.0, 32)
    out = np.empty(w.shape + (3,), complex)
    work = np.empty((frames.WORK_PLANES,) + w.shape, complex)
    data.integrand(w, out=out, work=work)
    tracemalloc.start()
    try:
        data.integrand(w, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes // 16
