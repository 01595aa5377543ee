"""Core curves, printed frames, and the twisting normal fields."""

import hashlib

import numpy as np
import pytest

from maxsurf import bjorling, frames
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
    # a map built without its derivative says so
    with pytest.raises(ValueError, match="^this map carries no derivative "
                                         "evaluator$"):
        frames.AnalyticMap(curve.func).d(U_SAMPLES)


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
    with pytest.raises(ValueError, match="^constant twist needs a >= 0, "
                                         "got inf$"):
        NormalFieldSpec("constant", np.inf)
    for a in (None, "1", True):
        with pytest.raises(ValueError, match="^constant twist needs a >= 0, "
                                             f"got {a}$"):
            NormalFieldSpec("constant", a)
    with pytest.raises(ValueError, match="^normal field kind must be "
                                         "'constant' or 'linear', got "
                                         "'quadratic'$"):
        NormalFieldSpec("quadratic", 1.0)
    NormalFieldSpec("constant", 0.0)  # boundary allowed for the constant case
    for a in (2, np.int64(2), np.float32(0.7)):
        spec = NormalFieldSpec("linear", a)
        assert type(spec.a) is float and spec.a == a


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
    with pytest.raises(ValueError, match=f"^{frames.HELIX_SPACELIKE_II} "
                                         "needs lam > 0, got inf$"):
        CurveFamily(frames.HELIX_SPACELIKE_II, np.inf)
    with pytest.raises(ValueError, match=f"^{frames.HELIX_TIMELIKE} needs "
                                         "0 < lam < 1, got 0.5$"):
        CurveFamily(frames.HELIX_TIMELIKE, "0.5")
    with pytest.raises(ValueError, match=f"^{frames.HELIX_SPACELIKE_II} "
                                         f"needs lam > 0, got {10**400}$"):
        CurveFamily(frames.HELIX_SPACELIKE_II, 10**400)
    with pytest.raises(ValueError, match="^unknown curve family 'spiral'; "
                                         "expected one of "):
        CurveFamily("spiral")
    with pytest.raises(ValueError, match=f"^{frames.CIRCLE_TIMELIKE} takes "
                                         "no pitch parameter$"):
        CurveFamily(frames.CIRCLE_TIMELIKE, 0.5)
    with pytest.raises(ValueError, match=f"^{frames.HELIX_TIMELIKE} requires "
                                         "a pitch lam$"):
        CurveFamily(frames.HELIX_TIMELIKE)
    # the pitch is stored as a float, whose square overflows to inf
    for lam in (2, np.int64(2), np.float32(0.7), 10**200):
        family = CurveFamily(frames.HELIX_SPACELIKE_II, lam)
        assert type(family.lam) is float and family.lam == float(lam)
    assert family.mu == np.inf


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
    # L1 x alpha' = eps mu L2 and L2 x alpha' = eps mu L1, with the eps of
    # _formulas: the identity the Björling integrand is built on.  The
    # lightlike circle's legs are n - b and n + b of its null legs.  A leg
    # of constants only, such as the circle-timelike L2 = (0, 0, 1), is one
    # vector that broadcasts against t.
    form = frames._formulas(family)
    rng = np.random.default_rng(7)
    t = rng.uniform(-2.0, 2.0, 40) + 1j * rng.uniform(-2.0, 2.0, 40)
    f, g = form.kernel(t)
    n, b = (vec3(*leg) for leg in form.legs(f, g))
    for leg in (n, b):
        assert leg.shape in (t.shape + (3,), (3,))
    d = frames.make_curve(family).d(t)
    scale = form.eps * (family.mu or 1.0)
    assert form.eps in (1.0, -1.0)
    for leg, other in ((n, b), (b, n)):
        assert np.max(np.abs(lorentz_cross(leg, d) - scale * other)) \
            <= 1e-13 * np.max(np.abs(other))


# Every built-in (curve, twist) pair: each curve with a constant and a
# linear twist, the lightlike circle with a constant one only.
PAIRS = [(family, spec) for family in ALL_FAMILIES
         for spec in (NormalFieldSpec("constant", 1.3),
                      NormalFieldSpec("linear", 0.7))
         if family is not LIGHTLIKE_CIRCLE or spec.kind == "constant"]
PAIR_IDS = [f"{family.tag}-{spec.kind}" for family, spec in PAIRS]


@pytest.mark.parametrize("family,spec", PAIRS, ids=PAIR_IDS)
def test_frame_maps_give_one_vector_per_point(family, spec):
    # constant components, such as a circle's zero third one, broadcast to
    # the shape of z
    data = frames.make_bjorling_data(family, spec)
    for z in (np.array(0.3 - 0.2j), np.float64(0.3), np.linspace(-1, 1, 5),
              np.full((2, 4), 0.7 + 0.1j)):
        for frame_map in (data.alpha, data.alpha.d, data.normal_field):
            assert frame_map(z).shape == np.shape(z) + (3,)


# Real points, points near the real axis and points at |Im z| = 5.
PIN_POINTS = np.array([0.0, 0.7, -2.3, 0.4 + 1e-3j, -1.1 - 0.3j,
                       2.9 + 0.05j, 0.6 + 5j, -1.7 - 5j])

# The first 16 hex digits of the sha256 of the value bytes of alpha,
# alpha.d, normal_field and BjorlingData.integrand, at PIN_POINTS and then
# at their real parts as a real array, for each pair of PAIRS.
PINNED_DIGESTS = {
    ("circle-timelike", "constant"): (
        "ba4819c26f9fe5dd", "0deae623ac024f7b",
        "01e979ff7097432e", "bbb60438a7730cba"),
    ("circle-timelike", "linear"): (
        "ba4819c26f9fe5dd", "0deae623ac024f7b",
        "ddb25fde61bd6d0b", "bbc4d9b241c07dca"),
    ("circle-spacelike", "constant"): (
        "8df136a7c1e0ca91", "5526e53fe8850c69",
        "cf5839d2600753dc", "d0c16384501c923b"),
    ("circle-spacelike", "linear"): (
        "8df136a7c1e0ca91", "5526e53fe8850c69",
        "bd8f228c016e0e2b", "79e5dc72a28b20cc"),
    ("circle-lightlike", "constant"): (
        "ebd944a37804f5e0", "960143e7c2161b2a",
        "b0ece12fac00f1c7", "ae4de73e90ffb083"),
    ("helix-timelike", "constant"): (
        "e0b85b26c2e0c413", "aa0604d727492e40",
        "021a4af3b9d35da3", "82f27ea1caf6f6c6"),
    ("helix-timelike", "linear"): (
        "e0b85b26c2e0c413", "aa0604d727492e40",
        "da321e9645c7d64e", "7d1bef5c685cee9c"),
    ("helix-spacelike-i", "constant"): (
        "0f7a734932323d15", "1ffd245e1cce90d4",
        "095b396482426986", "1114c69f9bcd907a"),
    ("helix-spacelike-i", "linear"): (
        "0f7a734932323d15", "1ffd245e1cce90d4",
        "acd106e045a57b42", "f52e852e9c419afe"),
    ("helix-spacelike-ii", "constant"): (
        "4454c14bc8d4b943", "a032abc03fc3ed16",
        "35e498fe3dda4653", "05f5286829f4a6f0"),
    ("helix-spacelike-ii", "linear"): (
        "4454c14bc8d4b943", "a032abc03fc3ed16",
        "266ea3adba9d5178", "3df6a350f92e697a"),
}


@pytest.mark.parametrize("family,spec", PAIRS, ids=PAIR_IDS)
def test_frame_maps_keep_their_pinned_bits(family, spec):
    data = frames.make_bjorling_data(family, spec)
    maps = (data.alpha, data.alpha.d, data.normal_field, data.integrand)
    digests = []
    for fn in maps:
        sha = hashlib.sha256()
        for z in (PIN_POINTS, PIN_POINTS.real.copy()):
            sha.update(fn(z).tobytes())
        digests.append(sha.hexdigest()[:16])
    assert tuple(digests) == PINNED_DIGESTS[family.tag, spec.kind]
    out = np.empty(PIN_POINTS.shape + (3,), complex)
    assert data.integrand(PIN_POINTS, out=out) is out
    assert out.tobytes() == data.integrand(PIN_POINTS).tobytes()


@pytest.mark.parametrize("family,spec", PAIRS, ids=PAIR_IDS)
def test_built_in_pairs_never_reach_the_cross_product(monkeypatch, family,
                                                      spec):
    # The frame identity serves each built-in pair, also when its curve and
    # field come from separate make_curve and make_normal_field calls;
    # data of any other field still takes lorentz_cross.
    U, V = np.meshgrid(np.linspace(-1.0, 1.0, 4), np.linspace(-0.5, 0.5, 3),
                       indexing="ij")
    together = frames.make_bjorling_data(family, spec)
    apart = frames.BjorlingData(frames.make_curve(family),
                                frames.make_normal_field(family, spec))
    other = frames.BjorlingData(
        together.alpha, frames.AnalyticMap(lambda z: together.normal_field(z)))

    def refuse(u, v):
        raise AssertionError("lorentz_cross reached")

    monkeypatch.setattr(frames, "lorentz_cross", refuse)
    X = bjorling.solve_bjorling(together)(U, V)
    assert bjorling.solve_bjorling(apart)(U, V).tobytes() == X.tobytes()
    with pytest.raises(AssertionError, match="lorentz_cross reached"):
        other.integrand(PIN_POINTS)


# Nodes of a solve's round on the lattice of half the panel length, 2 such
# panels of NODES nodes from each of 5 starts (shape (5, 2, NODES)):
# along the real axis both ways, up a column at Re w = -0.4 and down one
# at Re w = 2.5, and at Im w = 300.
PASS_NODES = (np.array([0.3, -1.6, -0.4 + 7j, 2.5 - 40j])[:, None, None]
              + np.array([1.0, 1j, 1j, -0.5j])[:, None, None]
              * (np.arange(2)[:, None] + bjorling._legendre()[0]) / 2)
PASS_NODES = np.concatenate([PASS_NODES, PASS_NODES[:1] + 300j])

# The first 16 hex digits of the sha256 of BjorlingData.integrand's bytes
# at PASS_NODES, written into a pass block's value planes.
PINNED_PASS_DIGESTS = {
    ("circle-timelike", "constant"): "fe6f234623eecbf6",
    ("circle-timelike", "linear"): "9c02625f87da958c",
    ("circle-spacelike", "constant"): "f330011c0a311dd7",
    ("circle-spacelike", "linear"): "6322afd60eaaefad",
    ("circle-lightlike", "constant"): "a1ec07c176ef9ed6",
    ("helix-timelike", "constant"): "717b610d10d164aa",
    ("helix-timelike", "linear"): "69f2c574ddbf6b36",
    ("helix-spacelike-i", "constant"): "4b943ae6e172225a",
    ("helix-spacelike-i", "linear"): "22b06283111fff13",
    ("helix-spacelike-ii", "constant"): "68e0d12c9315a64a",
    ("helix-spacelike-ii", "linear"): "e584a520c3e537e4",
}


@pytest.mark.parametrize("family,spec", PAIRS, ids=PAIR_IDS)
def test_integrand_writes_each_component_into_out(family, spec):
    # each component is summed straight into out[..., k], a strided view,
    # with the bits of the allocating path and of the pinned digests
    data = frames.make_bjorling_data(family, spec)
    block = np.full(7 * PASS_NODES.size, np.nan, complex)
    out = block[:3 * PASS_NODES.size].reshape(PASS_NODES.shape + (3,))
    assert data.integrand(PASS_NODES, out=out) is out
    assert out.tobytes() == data.integrand(PASS_NODES).tobytes()
    digest = hashlib.sha256(out.tobytes()).hexdigest()[:16]
    assert digest == PINNED_PASS_DIGESTS[family.tag, spec.kind]
