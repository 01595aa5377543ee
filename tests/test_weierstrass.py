"""Holomorphic form triples, representation pairs, periods, curvature.

The printed pair formulas below are the reference data; they were checked
for internal consistency (chart transport, defining relations) before being
frozen here, and two denominator exponents follow the internally consistent
variant rather than the standalone display.
"""

import numpy as np
import pytest

from maxsurf import catalog
from maxsurf import weierstrass as W
from maxsurf.lorentz import lorentz_cross

RING = 0.8 * np.exp(2j * np.pi * np.arange(40) / 40) + 0.07j
PUNCT_RING = np.exp(RING)

_FORM_ORACLES = [
    (catalog.bending_timelike(1.0),
     ((-0.40363304634504249 - 1.1873088699242227j),
      (1.1684402619126464 - 0.48414823111151145j),
      (-0.21477592465417542 + 0.40256462628989614j))),
    (catalog.bending_spacelike(1.0),
     ((0.081603889689760317 - 1.0595228998664288j),
      (1.2324452795553789 - 0.034325690839107373j),
      (0.66297547615774199 - 0.19422396471264494j))),
    (catalog.lightlike_rotational(1.0),
     ((0.37056964470628462 - 1.3210078683449571j),
      (0.92642411176571149 + 0.14715177646857694j),
      (0.37056964470628462 - 0.95312842717351476j))),
    (catalog.helicoidal_timelike(1.0, 0.6),
     ((-0.29613120697676609 + 0.54400024653547419j),
      (0.65428921995399292 + 0.48323130794345515j),
      (0.38522407534582459 + 0.40256462628989614j))),
    (catalog.helicoidal_spacelike_i(1.0, 2.0),
     ((1.7852240753458246 + 0.40256462628989614j),
      (0.356230214298974 - 1.4862116454331133j),
      (0.98974602294403713 + 0.1911950797500184j))),
    (catalog.helicoidal_spacelike_ii(1.0, 1.0),
     ((1.0816038896897604 - 1.0595228998664288j),
      (1.1311496947714217 + 1.0335842851544796j),
      (0.51043033209426181 + 0.045362623469342916j))),
]

FORM_SURFACES = [s for s, _ in _FORM_ORACLES]


@pytest.mark.parametrize("surface,expected", _FORM_ORACLES,
                         ids=lambda x: getattr(x, "family", ""))
def test_frozen_form_values(surface, expected):
    triple = W.forms_for(surface)
    got = triple(0.4 + 0.2j)
    assert np.max(np.abs(got - np.asarray(expected))) < 1e-14


@pytest.mark.parametrize("surface", FORM_SURFACES, ids=lambda s: s.family)
def test_forms_satisfy_the_null_condition(surface):
    triple = W.forms_for(surface)
    assert np.max(triple.null_residual(RING)) < 1e-13


@pytest.mark.parametrize("surface", FORM_SURFACES, ids=lambda s: s.family)
def test_forms_match_curve_and_normal_field(surface):
    triple = W.forms_for(surface)
    data = catalog.bjorling_data_for(surface)
    d = data.alpha.d(RING)
    direct = d + 1j * lorentz_cross(data.normal_field(RING), d)
    assert np.max(np.abs(triple(RING) - direct)) < 1e-13


def test_forms_for_rejects_rotational_families():
    for s in (catalog.elliptic_catenoid(1.0), catalog.hyperbolic_catenoid(1.0),
              catalog.helicoidal_timelike_constant(1.0, 0.6),
              catalog.enneper_second_kind(4.0 / 3.0, -1.0 / 3.0)):
        with pytest.raises(ValueError):
            W.forms_for(s)


def test_punctured_chart_restricted_to_spacelike_axis_families():
    with pytest.raises(ValueError):
        W.forms_for(catalog.bending_timelike(1.0), W.PUNCTURED_CHART)
    with pytest.raises(ValueError):
        W.forms_for(catalog.bending_spacelike(1.0), "no-such-chart")


@pytest.mark.parametrize("surface", [
    catalog.bending_spacelike(2.0),
    catalog.helicoidal_spacelike_i(3.0, 1.5),
    catalog.helicoidal_spacelike_ii(2.0, 0.7),
], ids=lambda s: s.family)
def test_chart_transport(surface):
    # phi_exp(z) = phi_punctured(e^z) * e^z on the strip |Im z| < pi
    te = W.forms_for(surface)
    tp = W.forms_for(surface, W.PUNCTURED_CHART)
    w = np.exp(RING)
    assert np.max(np.abs(te(RING) - tp(w) * w[..., None])) < 1e-12


# --- printed pair formulas ---------------------------------------------------

def test_pair_bending_timelike():
    a = 0.7
    wd = W.weierstrass_pair(W.forms_for(catalog.bending_timelike(a)))
    z = RING
    g_ref = -np.exp(1j * z) * (np.exp(a * z) - 1) / (np.exp(a * z) + 1)
    f_ref = -1j * (np.exp(a * z) + 1) ** 2 / (2 * np.exp((a + 1j) * z))
    assert np.max(np.abs(wd.g(z) - g_ref)) < 1e-12
    assert np.max(np.abs(wd.f(z) - f_ref)) < 1e-12


def test_pair_bending_spacelike_exp():
    a = 1.3
    wd = W.weierstrass_pair(W.forms_for(catalog.bending_spacelike(a)))
    z = RING
    den = np.exp((a + 1) * z) + 1j * np.exp(a * z) + 1j * np.exp(z) + 1
    g_ref = (1j * np.exp((a + 1) * z) + np.exp(a * z) - np.exp(z) - 1j) / den
    f_ref = -den ** 2 / (4 * np.exp((a + 1) * z))
    assert np.max(np.abs(wd.g(z) - g_ref)) < 1e-12
    assert np.max(np.abs(wd.f(z) - f_ref)) < 1e-12


def test_pair_bending_spacelike_punctured():
    a = 2.0
    wd = W.weierstrass_pair(W.forms_for(catalog.bending_spacelike(a),
                                        W.PUNCTURED_CHART))
    z = PUNCT_RING
    den = z ** (a + 1) + 1j * z ** a + 1j * z + 1
    g_ref = 1j * (z ** (a + 1) - 1j * z ** a + 1j * z - 1) / den
    f_ref = -den ** 2 / (4 * z ** (a + 2))
    assert np.max(np.abs(wd.g(z) - g_ref)) < 1e-12
    assert np.max(np.abs(wd.f(z) - f_ref)) < 1e-12


def test_pair_helicoidal_timelike():
    a, lam = 1.4, 0.5
    mu = np.sqrt(1 - lam * lam)
    wd = W.weierstrass_pair(W.forms_for(catalog.helicoidal_timelike(a, lam)))
    z = RING
    g_ref = np.exp(1j * z) * (-2j * lam * np.exp(a * z)
                              + np.exp(2 * a * z) - 1) \
        / ((mu - 1j * lam) * np.exp(2 * a * z) - 2 * np.exp(a * z)
           + mu + 1j * lam)
    f_ref = 0.5 * np.exp(-(a + 1j) * z) * (
        (lam + 1j * mu) * np.exp(2 * a * z) - 2j * np.exp(a * z)
        + 1j * mu - lam)
    assert np.max(np.abs(wd.g(z) - g_ref)) < 1e-12
    assert np.max(np.abs(wd.f(z) - f_ref)) < 1e-12


def test_pair_helicoidal_spacelike_i_punctured():
    n, lam = 2, 1.5
    mu = np.sqrt(lam * lam - 1)
    wd = W.weierstrass_pair(W.forms_for(
        catalog.helicoidal_spacelike_i(float(n), lam), W.PUNCTURED_CHART))
    z = PUNCT_RING
    f_ref = ((lam - mu) * (z ** (2 * n + 2) + 1)
             - (mu + lam) * (z ** (2 * n) + z ** 2)
             + 2j * (z ** (2 * n + 1) - z ** (n + 2) + z ** n - z)
             + 4 * lam * z ** (n + 1)) / (4 * z ** (n + 2))
    assert np.max(np.abs(wd.f(z) - f_ref)) < 1e-12


def test_pair_helicoidal_spacelike_ii_punctured():
    n, lam = 2, 0.9
    mu = np.sqrt(lam * lam + 1)
    wd = W.weierstrass_pair(W.forms_for(
        catalog.helicoidal_spacelike_ii(float(n), lam), W.PUNCTURED_CHART))
    z = PUNCT_RING
    f_ref = ((lam - mu) * (z ** (2 * n + 2) + 1)
             + (mu + lam) * (z ** (2 * n) + z ** 2)
             + 4 * lam * z ** (n + 1)
             - 2j * (z ** (n + 2) + z ** (2 * n + 1) + z ** n + z)) \
        / (4 * z ** (n + 2))
    assert np.max(np.abs(wd.f(z) - f_ref)) < 1e-12


def test_pair_extraction_rejects_vanishing_omega():
    dead = W.FormTriple(components=(
        lambda z: np.ones_like(np.asarray(z, complex)),
        lambda z: -1j * np.ones_like(np.asarray(z, complex)),
        lambda z: np.zeros_like(np.asarray(z, complex))))
    with pytest.raises(ValueError):
        W.weierstrass_pair(dead)


@pytest.mark.parametrize("surface", FORM_SURFACES, ids=lambda s: s.family)
def test_pair_reconstruction_round_trip(surface):
    triple = W.forms_for(surface)
    rebuilt = W.reconstruct_forms(W.weierstrass_pair(triple))
    assert np.max(np.abs(rebuilt(RING) - triple(RING))) < 1e-12


# --- duality ----------------------------------------------------------------

def test_dualize_is_an_involution_with_signature_flip():
    triple = W.forms_for(catalog.bending_timelike(1.0))
    dual = W.dualize(triple)
    assert triple.signature == W.LORENTZ
    assert dual.signature == W.EUCLID
    assert dual.label.endswith(":dual")
    back = W.dualize(dual)
    assert back.signature == W.LORENTZ
    assert not back.label.endswith(":dual")
    assert np.max(np.abs(back(RING) - triple(RING))) == 0.0


def test_dual_components_swap_as_printed():
    triple = W.forms_for(catalog.bending_spacelike(1.0))
    dual = W.dualize(triple)
    p = triple(RING)
    q = dual(RING)
    assert np.max(np.abs(q[..., 0] - 1j * p[..., 0])) == 0.0
    assert np.max(np.abs(q[..., 1] - 1j * p[..., 1])) == 0.0
    assert np.max(np.abs(q[..., 2] - p[..., 2])) == 0.0


def test_dual_pair_transforms_as_printed():
    wd = W.weierstrass_pair(W.forms_for(catalog.bending_timelike(1.0)))
    dd = W.weierstrass_pair(W.dualize(W.forms_for(catalog.bending_timelike(1.0))))
    assert np.max(np.abs(dd.g(RING) + 1j * wd.g(RING))) < 1e-13
    assert np.max(np.abs(dd.f(RING) - 1j * wd.f(RING))) < 1e-13


def test_dual_bending_spacelike_components_and_pair():
    # the n = 1 minimal-surface side, frozen component by component
    tri = W.dualize(W.forms_for(catalog.bending_spacelike(1.0),
                                W.PUNCTURED_CHART))
    z = PUNCT_RING
    psi = tri(z)
    assert np.max(np.abs(psi[..., 0] - (z ** 2 + 1) / (2 * z ** 2))) < 1e-13
    assert np.max(np.abs(psi[..., 1] - (z ** 4 + 2j * z ** 3 - 2 * z ** 2
                                        + 2j * z + 1) / (4 * z ** 3))) < 1e-13
    assert np.max(np.abs(psi[..., 2] - (-1j * z ** 4 + 2 * z ** 3 - 2 * z
                                        + 1j) / (4 * z ** 3))) < 1e-13
    wd = W.weierstrass_pair(tri)
    den = z ** 2 + 2j * z + 1
    assert np.max(np.abs(wd.g(z) - (z ** 2 - 1) / den)) < 1e-12
    assert np.max(np.abs(wd.f(z) + 1j * den ** 2 / (4 * z ** 3))) < 1e-12


def test_dual_lightlike_pair():
    for a in (0.0, 1.0):
        tri = W.dualize(W.forms_for(catalog.lightlike_rotational(a)))
        wd = W.weierstrass_pair(tri)
        z = RING
        ch, sh = np.cosh(a / 2), np.sinh(a / 2)
        den = ch * (z - 2j) - sh * z
        g_ref = (sh * (1j * z - 2) - 1j * z * ch) / den
        f_ref = -0.5 * den ** 2
        assert np.max(np.abs(wd.g(z) - g_ref)) < 1e-13
        assert np.max(np.abs(wd.f(z) - f_ref)) < 1e-13


def test_complex_derivative_matches_analytic_dual_gauss_map():
    tri = W.dualize(W.forms_for(catalog.bending_spacelike(1.0),
                                W.PUNCTURED_CHART))
    wd = W.weierstrass_pair(tri)
    z = PUNCT_RING[:9]
    exact = 2j * (z ** 2 - 2j * z + 1) / (z ** 2 + 2j * z + 1) ** 2
    fd = W.complex_derivative(wd.g, z)
    assert np.max(np.abs(fd - exact)) < 1e-8


# The punctured-chart forms as printed, one cpow call per power of z; the
# implementation builds every power from z^a and z^2 instead.
def _bending_spacelike_direct(z, a, lam, mu):
    cp = W.cpow
    return (-1j * (cp(z, 2 * a) + 1.0) / (2.0 * cp(z, a + 1)),
            (-1j * cp(z, 2 * a + 2) + 1j * cp(z, 2 * a)
             + 2.0 * cp(z, a + 2) + 2.0 * cp(z, a)
             + 1j * z * z - 1j) / (4.0 * cp(z, a + 2)),
            (-1j * cp(z, 2 * a + 2) - 1j * cp(z, 2 * a)
             + 2.0 * cp(z, a + 2) - 2.0 * cp(z, a)
             + 1j * z * z + 1j) / (4.0 * cp(z, a + 2)))


def _helicoidal_spacelike_i_direct(z, a, lam, mu):
    cp = W.cpow
    return ((1j * cp(z, 2 * a) + 2.0 * lam * cp(z, a) - 1j)
            / (2.0 * cp(z, a + 1)),
            (1j * (lam - mu) * (cp(z, 2 * a + 2) + 1.0)
             - 1j * (lam + mu) * (cp(z, 2 * a) + z * z)
             + 2.0 * cp(z, a + 2) - 2.0 * cp(z, a)) / (4.0 * cp(z, a + 2)),
            (1j * (lam - mu) * (cp(z, 2 * a + 2) - 1.0)
             + 1j * (lam + mu) * (cp(z, 2 * a) - z * z)
             + 2.0 * cp(z, a + 2) + 2.0 * cp(z, a)) / (4.0 * cp(z, a + 2)))


def _helicoidal_spacelike_ii_direct(z, a, lam, mu):
    cp = W.cpow
    return ((-1j * cp(z, 2 * a) + 2.0 * lam * cp(z, a) - 1j)
            / (2.0 * cp(z, a + 1)),
            (1j * (lam - mu) * (cp(z, 2 * a + 2) + 1.0)
             + 1j * (lam + mu) * (cp(z, 2 * a) + z * z)
             + 2.0 * cp(z, a + 2) + 2.0 * cp(z, a)) / (4.0 * cp(z, a + 2)),
            (1j * (lam - mu) * (cp(z, 2 * a + 2) - 1.0)
             - 1j * (lam + mu) * (cp(z, 2 * a) - z * z)
             + 2.0 * cp(z, a + 2) - 2.0 * cp(z, a)) / (4.0 * cp(z, a + 2)))


_PUNCTURED_DIRECT = [
    (lambda a: catalog.bending_spacelike(a), _bending_spacelike_direct),
    (lambda a: catalog.helicoidal_spacelike_i(a, 2.0),
     _helicoidal_spacelike_i_direct),
    (lambda a: catalog.helicoidal_spacelike_ii(a, 1.0),
     _helicoidal_spacelike_ii_direct),
]


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0, 4.0, 1.5, 2.3])
@pytest.mark.parametrize("make,direct", _PUNCTURED_DIRECT,
                         ids=["bending-spacelike", "helicoidal-spacelike-i",
                              "helicoidal-spacelike-ii"])
def test_punctured_forms_match_the_direct_power_formulas(make, direct, a):
    # a ring around -0.6 crosses the negative real axis, the branch cut of
    # z^a for non-integer a, at -1.1 and -0.1
    z = -0.6 + 0.5 * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    surface = make(a)
    mu = surface.mu if surface.family != catalog.BENDING_SPACELIKE else 0.0
    triple = W.forms_for(surface, W.PUNCTURED_CHART)
    for comp, ref in zip(triple.components, direct(z, a, surface.lam, mu)):
        assert np.all(np.abs(comp(z) - ref)
                      <= 1e-12 * np.maximum(1.0, np.abs(ref)))


# --- the hyperboloid and sphere valued normal maps ---------------------------

def test_gauss_map_lies_on_the_unit_hyperboloid():
    wd = W.weierstrass_pair(W.forms_for(catalog.bending_timelike(1.0)))
    z = 0.3 * np.exp(2j * np.pi * np.arange(9) / 9) + 0.05j
    N = W.gauss_map(wd, z)
    q = N[..., 0] ** 2 + N[..., 1] ** 2 - N[..., 2] ** 2
    assert np.max(np.abs(q + 1.0)) < 1e-12


def test_gauss_map_dual_lies_on_the_sphere():
    wd = W.weierstrass_pair(W.dualize(W.forms_for(catalog.bending_timelike(1.0))))
    z = 0.3 * np.exp(2j * np.pi * np.arange(9) / 9) + 0.05j
    N = W.gauss_map(wd, z)
    assert np.max(np.abs((N ** 2).sum(axis=-1) - 1.0)) < 1e-12


def test_gauss_map_rejects_the_lightlike_locus():
    wd = W.weierstrass_pair(W.forms_for(catalog.bending_timelike(1.0)))
    # |g| = 1 on the curve through u ~ 1.8567 at v = -0.3; the hyperboloid
    # map has no value there
    with pytest.raises(ValueError):
        W.gauss_map(wd, np.array([1.8567128 - 0.3j]), tol=1e-3)


# --- periods -----------------------------------------------------------------

LOOP = W.Loop(0j, 1.0)

# expected loop integrals, frozen from hand-derived series coefficients:
# 2 pi i times the coefficient of 1/z
_PERIOD_TABLE = []
for _n in (1, 2, 3):
    _PERIOD_TABLE.append((catalog.bending_spacelike(float(_n)),
                          (0.0, -np.pi if _n == 1 else 0.0, 0.0),
                          (0.0, 0.0, 0.0)))
for _n in (1, 2, 3):
    _lam = 2.0
    _mu = np.sqrt(_lam ** 2 - 1.0)
    _PERIOD_TABLE.append((catalog.helicoidal_spacelike_i(float(_n), _lam),
                          (0.0, np.pi * (_lam + _mu) if _n == 1 else 0.0, 0.0),
                          (2 * np.pi * _lam, 0.0, 0.0)))
for _n in (1, 2, 3):
    _lam = 1.0
    _mu = np.sqrt(_lam ** 2 + 1.0)
    _PERIOD_TABLE.append((catalog.helicoidal_spacelike_ii(float(_n), _lam),
                          (0.0, -np.pi * (_lam + _mu) if _n == 1 else 0.0, 0.0),
                          (2 * np.pi * _lam, 0.0, 0.0)))


@pytest.mark.parametrize("surface,re_parts,im_parts", _PERIOD_TABLE,
                         ids=lambda x: f"{x.family}:a={x.a:g}"
                         if hasattr(x, "family") else None)
def test_loop_integrals_match_series_coefficients(surface, re_parts, im_parts):
    triple = W.forms_for(surface, W.PUNCTURED_CHART)
    for k in (1, 2, 3):
        value = W.period(triple, k, LOOP)
        assert abs(value.real - re_parts[k - 1]) < 1e-10
        assert abs(value.imag - im_parts[k - 1]) < 1e-10


def test_period_requires_punctured_chart_and_valid_component():
    exp_triple = W.forms_for(catalog.bending_spacelike(1.0))
    with pytest.raises(ValueError):
        W.period(exp_triple, 2, LOOP)
    punct = W.forms_for(catalog.bending_spacelike(1.0), W.PUNCTURED_CHART)
    with pytest.raises(ValueError):
        W.period(punct, 0, LOOP)
    with pytest.raises(ValueError):
        W.period(punct, 4, LOOP)


def test_period_guards_singularity_on_the_contour():
    # a loop through the puncture is rejected as invalid input
    punct = W.forms_for(catalog.bending_spacelike(1.0), W.PUNCTURED_CHART)
    with pytest.raises(ValueError):
        W.period(punct, 2, W.Loop(1.0 + 0j, 1.0))


def test_loop_validation():
    with pytest.raises(ValueError):
        W.Loop(0j, 0.0)


def test_period_is_loop_position_independent():
    # any loop enclosing only the origin sees the same residue
    punct = W.forms_for(catalog.helicoidal_spacelike_ii(1.0, 1.0),
                        W.PUNCTURED_CHART)
    a = W.period(punct, 2, W.Loop(0j, 0.5))
    b = W.period(punct, 2, W.Loop(0.1 + 0.05j, 0.75))
    assert abs(a - b) < 1e-10


# --- total curvature ---------------------------------------------------------

def test_total_curvature_of_the_degree_one_model():
    wd = W.WeierstrassData(g=lambda z: z,
                           f=lambda z: np.ones_like(np.asarray(z, complex)),
                           chart=W.PUNCTURED_CHART, signature=W.EUCLID,
                           singularities=(), label="model")
    value = W.total_curvature(wd, (1e-3, 1e3))
    assert abs(value + 4 * np.pi) < 0.01 * 4 * np.pi


def test_total_curvature_validates_annulus_and_grid():
    wd = W.WeierstrassData(g=lambda z: z,
                           f=lambda z: np.ones_like(np.asarray(z, complex)),
                           chart=W.PUNCTURED_CHART, signature=W.EUCLID,
                           singularities=(), label="model")
    with pytest.raises(ValueError):
        W.total_curvature(wd, (1.0, 0.5))
    with pytest.raises(ValueError):
        W.total_curvature(wd, (1e-3, 1e3), grid=(7, 16))


def _gathered_spherical_density(w, z):
    # Reference: g and 1/g differentiated on separate gathers of the points
    # where |g| <= 1 and |g| > 1, the whole grid in one pass.
    gz = np.asarray(w.g(z))
    dens = np.empty(gz.shape, dtype=float)
    big = np.abs(gz) > 1.0
    small = ~big
    if np.any(small):
        d = W.complex_derivative(w.g, z[small])
        dens[small] = np.abs(d) ** 2 / (1.0 + np.abs(gz[small]) ** 2) ** 2
    if np.any(big):
        def inv(zz):
            return 1.0 / w.g(zz)

        d = W.complex_derivative(inv, z[big])
        hz = 1.0 / gz[big]
        dens[big] = np.abs(d) ** 2 / (1.0 + np.abs(hz) ** 2) ** 2
    return dens


def _dual_pair(surface, chart):
    return W.weierstrass_pair(W.dualize(W.forms_for(surface, chart)))


def _degree_one_model(z0, label):
    return W.WeierstrassData(g=lambda z: z - z0,
                             f=lambda z: np.ones_like(np.asarray(z, complex)),
                             chart=W.PUNCTURED_CHART, signature=W.EUCLID,
                             singularities=(), label=label)


_DEFAULT_S = np.linspace(np.log(1e-3), np.log(1e3), 401)

_DENSITY_PAIRS = [
    _dual_pair(catalog.lightlike_rotational(1.0), W.EXP_CHART),
    _dual_pair(catalog.lightlike_rotational(2.0), W.EXP_CHART),
    _dual_pair(catalog.bending_spacelike(2.0), W.PUNCTURED_CHART),
    _degree_one_model(0.0, "model"),
    # g vanishes exactly at one grid node, where 1/g must not be taken
    _degree_one_model(np.exp(_DEFAULT_S[200] + 0j), "model:zero-on-grid"),
]


@pytest.mark.parametrize("w", _DENSITY_PAIRS, ids=lambda w: w.label)
def test_blocked_density_is_bit_identical_to_the_gathered_one(w, monkeypatch):
    # the default grid: 401 x 256 points, so 8 192-point blocks of 32 rows
    # end in a block of 17
    th = 2.0 * np.pi * np.arange(256) / 256
    z = np.exp(_DEFAULT_S[:, None] + 1j * th[None, :])
    rows = W._PASS_POINTS // 256
    blocked = np.concatenate([W._spherical_density(w, z[i:i + rows])
                              for i in range(0, 401, rows)])
    assert np.array_equal(blocked, _gathered_spherical_density(w, z))

    value = W.total_curvature(w, (1e-3, 1e3))
    for points in (1 << 10, 1 << 20):
        monkeypatch.setattr(W, "_PASS_POINTS", points)
        assert W.total_curvature(w, (1e-3, 1e3)) == value
    monkeypatch.setattr(W, "_spherical_density", _gathered_spherical_density)
    assert W.total_curvature(w, (1e-3, 1e3)) == value


# --- integration of forms ----------------------------------------------------

def test_integrated_forms_reproduce_the_surface():
    surface = catalog.bending_timelike(1.0)
    triple = W.forms_for(surface)
    data = catalog.bjorling_data_for(surface)
    zs = np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.8 - 0.3j])
    holo = W.integrate_forms(triple, zs) + data.alpha(0.0)
    expected = catalog.eval_surface(surface, zs.real, zs.imag)
    assert np.max(np.abs(holo.real - expected)) < 1e-12


def test_integrate_forms_is_one_plain_gauss_legendre_pass():
    triple = W.forms_for(catalog.lightlike_rotational(0.5))
    zs = np.array([[0.3 + 0.2j, -0.5 + 1.1j], [0.8 - 2.3j, 1.5 + 0.4j]])
    z0 = 0.1 + 0.2j
    x, w = np.polynomial.legendre.leggauss(64)
    span = zs - z0
    vals = triple(z0 + span[..., None] * (0.5 * (x + 1.0)))
    acc = np.einsum("k,...kj->...j", 0.5 * w, vals)
    assert np.array_equal(W.integrate_forms(triple, zs, z0),
                          acc * span[..., None])


def test_cpow_integer_exponents_cross_the_branch_cut():
    z = np.array([-1.0 + 1e-12j, -1.0 - 1e-12j])
    assert np.max(np.abs(W.cpow(z, 3) - (-1.0))) < 1e-11
    # non-integer exponents keep the principal branch
    assert W.cpow(np.array([-1.0 + 0j]), 0.5)[0] == pytest.approx(1j)
