"""Holomorphic form triples, representation pairs, periods, curvature.

The printed pair formulas below are the reference data; they were checked
for internal consistency (chart transport, defining relations) before being
frozen here, and two denominator exponents follow the internally consistent
variant rather than the standalone display.
"""

import dataclasses
import re
import warnings
from math import factorial

import numpy as np
import pytest

from maxsurf import catalog
from maxsurf import weierstrass as W
from maxsurf.bjorling import QuadratureError
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
    # and its dual the Euclidean one
    assert np.max(W.dualize(triple).null_residual(RING)) < 1e-13


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


def test_form_triple_broadcasts_constant_coefficients():
    # a coefficient may be a constant: it is broadcast against z and made
    # complex, as the arrays are
    z = np.array([[0.5, 1j], [2.0, -1.0 - 1j]])
    triple = W.FormTriple(func=lambda z: (z, 1.0, 1j * z))
    want = np.stack([z, np.ones_like(z), 1j * z], axis=-1)
    got = triple(z)
    assert got.dtype == complex and got.tobytes() == want.tobytes()
    assert W.FormTriple(func=lambda z: (0.0, 1, 2j))(0.5).shape == (3,)


def test_pair_extraction_rejects_vanishing_omega():
    dead = W.FormTriple(func=lambda z: (
        np.ones_like(np.asarray(z, complex)),
        -1j * np.ones_like(np.asarray(z, complex)),
        np.zeros_like(np.asarray(z, complex))))
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
    for comp, ref in zip(triple.func(z), direct(z, a, surface.lam, mu)):
        assert np.all(np.abs(comp - ref)
                      <= 1e-12 * np.maximum(1.0, np.abs(ref)))


# One closure per component, as the triples were held before each became one
# map evaluating its shared factors once.  Every value is pointwise and each
# component keeps its operation order, so the map must give the same bits.
def _helicoidal_timelike_closures(a, lam, mu):
    def p1(z):
        return 1j * mu * np.cos(z) * np.cosh(a * z) \
            - np.sin(z) * (1.0 + 1j * lam * np.sinh(a * z))

    def p2(z):
        return np.cos(z) * (1.0 + 1j * lam * np.sinh(a * z)) \
            + 1j * mu * np.sin(z) * np.cosh(a * z)

    def p3(z):
        return lam + 1j * np.sinh(a * z)

    return p1, p2, p3


def _helicoidal_spacelike_i_punctured_closures(a, lam, mu):
    def p1(z):
        za = W.cpow(z, a)
        return (1j * (za * za) + 2.0 * lam * za - 1j) / (2.0 * (za * z))

    def p2(z):
        za, z2 = W.cpow(z, a), z * z
        return (1j * (lam - mu) * (za * za * z2 + 1.0)
                - 1j * (lam + mu) * (za * za + z2)
                + 2.0 * (za * z2) - 2.0 * za) / (4.0 * (za * z2))

    def p3(z):
        za, z2 = W.cpow(z, a), z * z
        return (1j * (lam - mu) * (za * za * z2 - 1.0)
                + 1j * (lam + mu) * (za * za - z2)
                + 2.0 * (za * z2) + 2.0 * za) / (4.0 * (za * z2))

    return p1, p2, p3


def _closure_pair(comps, lorentz):
    """The per-closure pair, its reconstruction and the dual components."""
    p1, p2, p3 = comps

    def f(z):
        return p1(z) - 1j * p2(z)

    def g(z):
        return p3(z) / f(z)

    if lorentz:
        rec = (lambda z: 0.5 * (1.0 + g(z) ** 2) * f(z),
               lambda z: 0.5j * (1.0 - g(z) ** 2) * f(z))
        unit = 1j
    else:
        rec = (lambda z: 0.5 * (1.0 - g(z) ** 2) * f(z),
               lambda z: 0.5j * (1.0 + g(z) ** 2) * f(z))
        unit = -1j
    rec += (lambda z: g(z) * f(z),)
    dual = (lambda z: unit * p1(z), lambda z: unit * p2(z), p3)
    return g, f, rec, dual


def _stack(comps, z):
    return np.stack([np.asarray(c(z), dtype=complex) for c in comps], axis=-1)


@pytest.mark.parametrize("surface, chart, closures", [
    (catalog.helicoidal_timelike(0.7, 0.4), W.EXP_CHART,
     _helicoidal_timelike_closures),
    (catalog.helicoidal_spacelike_i(1.5, 1.3), W.PUNCTURED_CHART,
     _helicoidal_spacelike_i_punctured_closures),
], ids=["helicoidal-timelike-exp", "helicoidal-spacelike-i-punctured"])
def test_form_map_reproduces_the_per_component_closures(surface, chart,
                                                        closures):
    # far points too, where the exp chart overflows to inf and nan
    rng = np.random.default_rng(5)
    z = (rng.uniform(-1.5, 1.5, 400) + 1j * rng.uniform(-1.5, 1.5, 400))
    z = np.concatenate([z, 500.0 * z[:40]])
    comps = closures(surface.a, surface.lam, surface.mu)
    triple = W.forms_for(surface, chart)
    with np.errstate(all="ignore"):
        for tri, ref, lorentz in ((triple, comps, True),
                                  (W.dualize(triple),
                                   _closure_pair(comps, True)[3], False)):
            g, f, rec, dual = _closure_pair(ref, lorentz)
            pair = W.weierstrass_pair(tri)
            for got, want in ((tri(z), _stack(ref, z)),
                              (W.dualize(tri)(z), _stack(dual, z)),
                              (pair.g(z), g(z)), (pair.f(z), f(z)),
                              (W.reconstruct_forms(pair)(z), _stack(rec, z))):
                assert np.array_equal(got, want, equal_nan=True)


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
    sizes = []
    triple = _counted(W.forms_for(surface, W.PUNCTURED_CHART), sizes)
    for k, value in zip((1, 2, 3), W.period(triple, (1, 2, 3), LOOP)):
        assert abs(value.real - re_parts[k - 1]) < 1e-10
        assert abs(value.imag - im_parts[k - 1]) < 1e-10
    # each settles on one evaluation of the triple, at the first 512 nodes
    assert sizes == [512]


def _counted(triple, sizes):
    return dataclasses.replace(
        triple, func=lambda z: (sizes.append(np.size(z)), triple.func(z))[1])


def test_period_takes_every_component_from_one_evaluation_per_node_count():
    # several components come from one triple evaluation per node set, up
    # to the count the slowest needs, each with the bits of its own call; a
    # component that does not settle gives the error its own call raises
    near_pole = W.FormTriple(lambda z: (z, 1.0 / z, 1.0 / (z - 0.999)),
                             chart=W.PUNCTURED_CHART, singularities=(0j,))
    for triple in [W.forms_for(s, W.PUNCTURED_CHART)
                   for s, _, _ in _PERIOD_TABLE] + [near_pole]:
        alone, longest = [], []
        for k in (1, 2, 3):
            sizes = []
            try:
                alone.append(W.period(_counted(triple, sizes), k, LOOP))
            except QuadratureError as exc:
                alone.append(exc)
            longest = max(longest, sizes, key=len)
        sizes = []
        together = W.period(_counted(triple, sizes), (3, 1, 2), LOOP)
        assert sizes == longest
        for got, own in zip(together, alone[2:] + alone[:2]):
            if isinstance(own, QuadratureError):
                assert type(got) is QuadratureError
                assert str(got) == str(own) and got.z == own.z
                assert (got.estimate, got.tol) == (own.estimate, own.tol)
            else:
                assert np.array(got).tobytes() == np.array(own).tobytes()
    # 512 nodes with their even half as the first estimate, then only the
    # midpoints of each doubling, up to 16384 nodes in all
    assert sizes == [512] + [512 << n for n in range(5)]
    assert str(together[0]) == "contour integral did not settle after " \
                               "16384 nodes"
    assert together[0].estimate > together[0].tol > 0
    with pytest.raises(ValueError, match="got 4"):
        W.period(near_pole, (1, 4), LOOP)


def test_period_of_no_components_is_an_empty_list():
    # a value for each index of an empty sequence: none, and the triple is
    # not evaluated
    sizes = []
    triple = _counted(W.forms_for(catalog.bending_spacelike(1.0),
                                  W.PUNCTURED_CHART), sizes)
    for empty in ([], (), np.array([], dtype=int)):
        assert W.period(triple, empty, LOOP) == []
    assert sizes == []


def test_trapezoid_doubles_only_the_rows_that_miss_by_their_midpoints():
    # row j integrates e^{j cos theta} over the circle, 2 pi I0(j)
    evaluated = []

    def sums(rows, n, offset):
        th = 2.0 * np.pi * (np.arange(n) + offset) / n
        f = np.exp(rows[:, None] * np.cos(th))
        evaluated.append((rows.tolist(), n, offset))
        return np.array([f.sum(axis=1), f[:, ::2].sum(axis=1)])

    def rule(cap, budget):
        evaluated.clear()
        return W._trapezoid(sums, 4, 4, lambda v: 1e-13 * v, cap, budget)

    exact = np.array([2 * np.pi * sum((j / 2) ** (2 * k) / factorial(k) ** 2
                                      for k in range(40)) for j in range(4)])
    value, est, tol, n = rule(1024, np.inf)
    assert evaluated == [([0, 1, 2, 3], 4, 0.0), ([1, 2, 3], 4, 0.5),
                         ([1, 2, 3], 8, 0.5), ([1, 2, 3], 16, 0.5),
                         ([3], 32, 0.5)]
    assert n.tolist() == [4, 32, 32, 64] and (est <= tol).all()
    assert np.max(np.abs(value - exact) / exact) < 1e-15
    # the doubling of row 3 to 64 angles needs cap 64 and 132 nodes in all
    for cap, budget, last in ((32, np.inf, 32), (64, np.inf, 64),
                              (1024, 131, 32), (1024, 132, 64)):
        value, est, tol, n = rule(cap, budget)
        assert n.tolist() == [4, 32, 32, last]
        assert (est[3] <= tol[3]) == (last == 64)


def test_a_nan_valued_triple_does_not_settle():
    nan = W.FormTriple(lambda z: (np.full(np.shape(z), np.nan + 0j), z, z),
                       chart=W.PUNCTURED_CHART)
    with pytest.raises(QuadratureError,
                       match="^contour integral did not settle after 16384 "
                             "nodes$") as info:
        W.period(nan, 1, LOOP)
    assert np.isnan(info.value.estimate)
    assert abs(W.period(nan, (1, 2), LOOP)[1]) < 1e-12


def test_period_requires_punctured_chart_and_valid_component():
    exp_triple = W.forms_for(catalog.bending_spacelike(1.0))
    with pytest.raises(ValueError):
        W.period(exp_triple, 2, LOOP)
    punct = W.forms_for(catalog.bending_spacelike(1.0), W.PUNCTURED_CHART)
    for k in (0, 4, 1.5, [1.5], True, (2, np.True_), "2", np.float64(2.0)):
        with pytest.raises(ValueError,
                           match="component index must be 1, 2 or 3"):
            W.period(punct, k, LOOP)
    assert W.period(punct, np.int64(2), LOOP) == W.period(punct, 2, LOOP)


def test_period_guards_singularity_on_the_contour():
    # a loop through the puncture is rejected as invalid input
    punct = W.forms_for(catalog.bending_spacelike(1.0), W.PUNCTURED_CHART)
    with pytest.raises(ValueError):
        W.period(punct, 2, W.Loop(1.0 + 0j, 1.0))


def test_loop_validation():
    for center, radius in ((0j, 0.0), (0j, -1.0), (0j, np.inf), (0j, np.nan),
                           (np.nan + 0j, 1.0), (complex(0, np.inf), 1.0)):
        with pytest.raises(ValueError, match="finite center and a finite "
                                             "positive radius"):
            W.Loop(center, radius)


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


def test_total_curvature_validates_its_annulus():
    wd = W.WeierstrassData(g=lambda z: z,
                           f=lambda z: np.ones_like(np.asarray(z, complex)),
                           chart=W.PUNCTURED_CHART, signature=W.EUCLID,
                           singularities=(), label="model")
    with pytest.raises(ValueError):
        W.total_curvature(wd, (1.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for annulus in ((1e-3, np.inf), (1e-3, np.nan), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="r_out < inf"):
                W.total_curvature(wd, annulus)


def _gathered_spherical_density(w, z, h):
    # Reference: the same two-point stencil of g and of 1/g, taken on
    # separate gathers of the points where |g(z + h) g(z - h)| <= 1 and > 1,
    # the whole grid in one pass.
    h = np.broadcast_to(h, z.shape)
    dens = np.empty(z.shape, dtype=float)
    big = np.abs(w.g(z + h) * w.g(z - h)) > 1.0
    for part, func in ((~big, w.g), (big, lambda zz: 1.0 / w.g(zz))):
        if np.any(part):
            zp, hp = z[part], h[part]
            gp, gm = func(zp + hp), func(zp - hp)
            dens[part] = (np.abs((gp - gm) / (2.0 * hp)) ** 2
                          / (1.0 + np.abs(0.5 * (gp + gm)) ** 2) ** 2)
    return dens


def _dual_pair(surface, chart):
    return W.weierstrass_pair(W.dualize(W.forms_for(surface, chart)))


def _degree_one_model(z0, label):
    return W.WeierstrassData(g=lambda z: z - z0,
                             f=lambda z: np.ones_like(np.asarray(z, complex)),
                             chart=W.PUNCTURED_CHART, signature=W.EUCLID,
                             singularities=(), label=label)


def _pole_model(z0, label):
    return W.WeierstrassData(g=lambda z: 1.0 / (z - z0),
                             f=lambda z: np.ones_like(np.asarray(z, complex)),
                             chart=W.PUNCTURED_CHART, signature=W.EUCLID,
                             singularities=(), label=label)


# the nodes of total_curvature's first pass on the annulus (1e-3, 1e3) from
# its default start: 4 panels of NODES rings in log r, 32 angles per ring
_LO, _HI = np.log(1e-3), np.log(1e3)
_FIRST_S = ((_LO + (_HI - _LO) * np.arange(4) / 4)[:, None]
            + (_HI - _LO) / 4 * W._S).ravel()
_FIRST_TH = 2.0 * np.pi * np.arange(32) / 32
_FIRST_Z = np.exp(_FIRST_S)[:, None] * np.exp(1j * _FIRST_TH)[None, :]

_DENSITY_PAIRS = [
    _dual_pair(catalog.lightlike_rotational(1.0), W.EXP_CHART),
    _dual_pair(catalog.lightlike_rotational(2.0), W.EXP_CHART),
    _dual_pair(catalog.bending_spacelike(2.0), W.PUNCTURED_CHART),
    _degree_one_model(0.0, "model"),
    # g vanishes exactly at one node, where 1/g must not be taken
    _degree_one_model(_FIRST_Z[64, 0], "model:zero-on-grid"),
    # g has a pole at one node, where g itself is never evaluated
    _pole_model(_FIRST_Z[40, 8], "model:pole-on-grid"),
]


@pytest.mark.parametrize("w", _DENSITY_PAIRS, ids=lambda w: w.label)
def test_blocked_density_is_bit_identical_to_the_gathered_one(w, monkeypatch):
    # the first pass: 128 rings of 32 points, in blocks of 24 rings that
    # end in a block of 8
    z = _FIRST_Z
    h = W._DENSITY_STEP * (1.0 + np.exp(_FIRST_S))[:, None]
    blocked = np.concatenate([
        W._spherical_density(w, z[i:i + 24], h[i:i + 24])
        for i in range(0, 128, 24)])
    assert np.array_equal(blocked, _gathered_spherical_density(w, z, h))

    value = W.total_curvature(w, (1e-3, 1e3))
    for points in (1 << 10, 1 << 20):
        monkeypatch.setattr(W, "_PASS_POINTS", points)
        assert W.total_curvature(w, (1e-3, 1e3)) == value
    monkeypatch.setattr(W, "_spherical_density", _gathered_spherical_density)
    assert W.total_curvature(w, (1e-3, 1e3)) == value


def _exact_density(g, dg):
    return np.abs(dg) ** 2 / (1.0 + np.abs(g) ** 2) ** 2


def test_density_of_the_degree_one_model_is_exact():
    # g = z - z0 on dyadic nodes with |g| <= 1 and a power-of-two step:
    # the central difference of a linear g is exact, and so is its
    # floating-point arithmetic here
    z0 = 0.25 - 0.125j
    k = np.arange(-24, 25) / 16.0
    z = (k[:, None] + 1j * k[None, :]).ravel()
    z = z[np.abs(z - z0) <= 1.0]
    w = _degree_one_model(z0, "model")
    dens = W._spherical_density(w, z, 2.0 ** -17)
    exact = _exact_density(z - z0, 1.0)
    assert z.size > 100
    assert np.max(np.abs(dens - exact) / exact) < 1e-12


def test_density_matches_the_analytic_dual_gauss_map():
    w = _dual_pair(catalog.bending_spacelike(1.0), W.PUNCTURED_CHART)
    theta = 2.0 * np.pi * (np.arange(16) + 0.5) / 16
    z = np.concatenate([rad * np.exp(1j * theta) for rad in (0.5, 2.5)])
    dg = 2j * (z ** 2 - 2j * z + 1) / (z ** 2 + 2j * z + 1) ** 2
    gz = w.g(z)
    # both sides of the 1/g switch
    assert np.any(np.abs(gz) > 1.0) and np.any(np.abs(gz) <= 1.0)
    dens = W._spherical_density(w, z, W._DENSITY_STEP * (1.0 + np.abs(z)))
    exact = _exact_density(gz, dg)
    assert np.max(np.abs(dens - exact) / exact) < 1e-8


def _contour_density(w, z, h):
    # Reference: g' (or (1/g)' where |g| > 1 at the node) from the 32-node
    # trapezoid rule for Cauchy's integral on the circle of radius
    # 1e-3 (1 + |z|) around each point, and the value of that branch from
    # the mean of the same 32 nodes, so that a g of 0/0 at the node (a
    # rounding value) enters only the switch; the difference step h is not
    # used.
    rho = 1e-3 * (1.0 + np.abs(z))
    big = np.abs(w.g(z)) > 1.0

    def g_or_inv(gv):
        return np.divide(1.0, gv, out=np.array(gv, dtype=complex), where=big)

    unit = np.exp(2j * np.pi * np.arange(32) / 32)
    vals = [g_or_inv(w.g(z + rho * u)) for u in unit]
    d = sum(v / (rho * u) for v, u in zip(vals, unit)) / 32
    return np.abs(d) ** 2 / (1.0 + np.abs(sum(vals) / 32) ** 2) ** 2


_CONTOUR_CASES = [
    (catalog.lightlike_rotational(0.5), W.EXP_CHART),
    (catalog.lightlike_rotational(1.0), W.EXP_CHART),
    (catalog.lightlike_rotational(2.0), W.EXP_CHART),
    (catalog.bending_spacelike(1.0), W.PUNCTURED_CHART),
    (catalog.bending_spacelike(2.0), W.PUNCTURED_CHART),
    (catalog.bending_spacelike(3.0), W.PUNCTURED_CHART),
]


@pytest.mark.parametrize("surface, chart", _CONTOUR_CASES,
                         ids=[f"{s.family}-a{s.a:g}" for s, _ in _CONTOUR_CASES])
def test_total_curvature_agrees_with_a_contour_derivative(surface, chart,
                                                          monkeypatch):
    w = _dual_pair(surface, chart)
    value = W.total_curvature(w, (1e-3, 1e3))
    monkeypatch.setattr(W, "_spherical_density", _contour_density)
    reference = W.total_curvature(w, (1e-3, 1e3))
    assert abs(value - reference) <= 1e-9 * abs(reference)


def test_density_at_a_node_where_g_is_zero_over_zero_converges():
    # bending-spacelike at a = 2: the punctured forms give g = 0/0 at
    # z = -1 (r = 1, theta = pi), where g has a simple pole and the density
    # is 1/|res g|^2 = 1.25; the stencil never evaluates g there, so only
    # its own O(h^2) and rounding errors remain
    w = _dual_pair(catalog.bending_spacelike(2.0), W.PUNCTURED_CHART)
    z = np.exp([1j * np.pi])
    assert abs(z[0] + 1.0) < 1e-14
    step = W._DENSITY_STEP * (1.0 + abs(z[0]))
    assert abs(W._spherical_density(w, z, step)[0] - 1.25) < 5e-6 * 1.25
    for h in (1e-4, 3e-5):
        assert abs(W._spherical_density(w, z, h)[0] - 1.25) < 1e-7 * 1.25


def test_total_curvature_takes_at_most_32768_density_nodes():
    # bending-spacelike at a = 2 settles within 32 768 density nodes, of 2
    # evaluations of g each
    w = _dual_pair(catalog.bending_spacelike(2.0), W.PUNCTURED_CHART)
    points = []

    def g(z):
        points.append(np.size(z))
        return w.g(z)

    W.total_curvature(dataclasses.replace(w, g=g), (1e-3, 1e3))
    assert points[::2] == points[1::2]
    assert sum(points) <= 2 * 32768


# (a, cap, r, density-node budget or None for the module's own)
CURVATURE_CAPS = [
    (5.0, "410624 density nodes", "148.545", None),
    (6.0, "8192 angles per ring", "404.468", None),
    (5.0, "4608 density nodes", "138.563", 4608)]


@pytest.mark.parametrize("a, cap, r, budget", CURVATURE_CAPS, ids=[
    f"{a}-{cap}-{r}" for a, cap, r, _ in CURVATURE_CAPS])
def test_total_curvature_raises_at_its_caps(monkeypatch, a, cap, r, budget):
    # lightlike-rotational's dual density concentrates as a grows: at a = 5
    # the panels in log r, at a = 6 the angles of one ring, reach their cap;
    # with a budget of 4608 density nodes the first pass's rings run out of
    # them while doubling their angles
    if budget:
        monkeypatch.setattr(W, "_CURVATURE_NODES", budget)
    w = _dual_pair(catalog.lightlike_rotational(a), W.EXP_CHART)
    points = []

    def g(z):
        points.append(np.size(z))
        return w.g(z)

    with pytest.raises(W.QuadratureError,
                       match=rf"within {cap}: estimate .* at "
                             rf"r = {re.escape(r)}, theta = ") as info:
        W.total_curvature(dataclasses.replace(w, g=g), (1e-3, 1e3))
    assert info.value.estimate > info.value.tol > 0
    assert abs(abs(info.value.z) - float(r)) < 1e-5 * float(r)
    # the caps plus the one ring evaluated again to name theta
    assert sum(points) <= 2 * (W._CURVATURE_NODES + W._RING_NODES)


def test_non_finite_curvature_integrand_raises_at_its_first_node():
    # r^2 overflows from r = 1.34e154, first on the node r = 1.60399e154 of
    # the first pass, where the density has underflowed to 0: the integrand
    # is NaN there, and no warning is given
    w = _degree_one_model(0.0, "model")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(W.QuadratureError,
                           match=r"not finite at r = 1\.60399e\+154, "
                                 r"theta = 0$") as info:
            W.total_curvature(w, (1e-3, 1e300))
    assert abs(info.value.z - 1.60399e154) < 1e-5 * 1.60399e154


# --- integration of forms ----------------------------------------------------

def test_integrated_forms_reproduce_the_surface():
    surface = catalog.bending_timelike(1.0)
    triple = W.forms_for(surface)
    data = catalog.bjorling_data_for(surface)
    zs = np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.8 - 0.3j])
    holo = W.integrate_forms(triple, zs) + data.alpha(0.0)
    expected = catalog.eval_surface(surface, zs.real, zs.imag)
    assert np.max(np.abs(holo.real - expected)) < 1e-12


def test_integrate_forms_writes_the_triple_into_the_pass(monkeypatch):
    # the integrand hands segment_integral exactly the values of triple(w)
    seen = []

    def capture(integrand, z):
        w = np.asarray(z, dtype=complex)
        out = np.full(w.shape + (3,), np.nan, dtype=complex)
        integrand(w, out=out)
        seen.append((w, out))
        return out

    monkeypatch.setattr(W, "segment_integral", capture)
    w = np.linspace(-1.0, 1.0, 12).reshape(3, 4) + 0.3j
    for surface in (catalog.bending_timelike(1.3),
                    catalog.helicoidal_spacelike_ii(1.4, 1.0)):
        triple = W.forms_for(surface)
        W.integrate_forms(triple, w)
        assert np.array_equal(seen[-1][1], triple(w))


@pytest.mark.parametrize("surface", [
    catalog.bending_timelike(0.01),
    catalog.helicoidal_timelike(0.01, 0.6),
])
def test_integrate_forms_controls_its_error_on_a_long_segment(surface):
    # 200 units out along the axis, one plain 64-node pass is off by 9.1e-6
    # (bending) and 1.2e-7 (helicoid) of max |X|; the error-controlled
    # panels stay near 1e-13
    triple = W.forms_for(surface)
    data = catalog.bjorling_data_for(surface)
    z = np.array([200.0 + 0.2j])
    X = (W.integrate_forms(triple, z) + data.alpha(0.0)).real
    expected = catalog.eval_surface(surface, z.real, z.imag)
    assert np.max(np.abs(X - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_cpow_integer_exponents_cross_the_branch_cut():
    z = np.array([-1.0 + 1e-12j, -1.0 - 1e-12j])
    assert np.max(np.abs(W.cpow(z, 3) - (-1.0))) < 1e-11
    # non-integer exponents keep the principal branch
    assert W.cpow(np.array([-1.0 + 0j]), 0.5)[0] == pytest.approx(1j)
