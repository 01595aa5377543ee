"""Closed-form surface families and their ties to the numerical solver.

Point values are frozen from the closed forms and were independently
confirmed against the quadrature-based construction, which shares no code
with the trigonometric evaluators.
"""

from fractions import Fraction

import numpy as np
import pytest

from maxsurf import catalog, cli
from maxsurf import weierstrass as W
from maxsurf.bjorling import solve_bjorling
from maxsurf.catalog import _kernels
from maxsurf.lorentz import lorentz_dot, vec3
from maxsurf.verify import Grid

_POINT_ORACLES = [
    (catalog.bending_timelike(1.0), 0.7, 0.3,
     (1.0918411659290737, 0.91071911610691947, -0.22417681233754291)),
    (catalog.bending_spacelike(1.0), 0.6, -0.25,
     (-0.29328878855166413, 0.52484293392221248, 0.96769339463067572)),
    (catalog.bending_spacelike(2.0), 0.4, 0.2,
     (0.26041084986784585, 0.46557217029622944, 1.242375843580334)),
    (catalog.lightlike_rotational(1.0), 0.5, -0.4,
     (-1.5577623292400207, 0.57357588823428851, -0.41061055277144387)),
    (catalog.helicoidal_timelike(1.0, 0.6), 0.9, 0.2,
     (0.58490587598738986, 0.54244136635968254, 0.3360626090536194)),
    (catalog.helicoidal_spacelike_i(1.0, 2.0), 0.5, 0.3,
     (0.84600580763023392, 1.5787045647583051, 0.45337069814194869)),
    (catalog.helicoidal_spacelike_ii(1.0, 1.0), -0.6, 0.35,
     (-0.19350657585002828, -0.89975186683230501, 1.0128961135772103)),
    (catalog.elliptic_catenoid(1.0), 1.1, 0.4,
     (0.77787032461086103, 1.5283282323663332, -0.47008047745752057)),
    (catalog.hyperbolic_catenoid(1.0), 0.8, -0.3,
     (-0.46292419044457311, 0.54000466257910362, 0.81321500067125019)),
    (catalog.helicoidal_timelike_constant(1.0, 0.6), 1.2, 0.45,
     (0.49733683738232914, 0.37370547037144847, 0.19115946286028929)),
    (catalog.enneper_second_kind(4.0 / 3.0, -1.0 / 3.0), 0.8, -0.6,
     (-0.83733333333333326, 0.96000000000000008, 0.3626666666666668)),
]


@pytest.mark.parametrize("surface,u,v,expected", _POINT_ORACLES,
                         ids=lambda x: x.family if hasattr(x, "family") else None)
def test_frozen_point_values(surface, u, v, expected):
    got = np.asarray(catalog.eval_surface(surface, u, v))
    assert np.max(np.abs(got - np.asarray(expected))) < 1e-14


@pytest.mark.parametrize("surface", [s for s, *_ in _POINT_ORACLES
                                     if s.family != catalog.ENNEPER_SECOND_KIND],
                         ids=lambda s: s.family)
def test_closed_form_agrees_with_quadrature(surface):
    numeric = solve_bjorling(catalog.bjorling_data_for(surface))
    U, V = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(-0.4, 0.4, 7),
                       indexing="ij")
    exact = catalog.eval_surface(surface, U, V)
    assert np.max(np.abs(np.asarray(numeric(U, V)) - exact)) < 1e-12


def test_core_curve_sits_at_v_zero():
    for surface, *_ in _POINT_ORACLES:
        if surface.family == catalog.ENNEPER_SECOND_KIND:
            continue
        data = catalog.bjorling_data_for(surface)
        u = np.linspace(-1.0, 1.0, 7)
        core = catalog.eval_surface(surface, u, np.zeros_like(u))
        assert np.max(np.abs(core - data.alpha(u).real)) < 1e-13, surface.family


def test_parameter_validation():
    with pytest.raises(ValueError):
        catalog.bending_timelike(0.0)
    with pytest.raises(ValueError):
        catalog.bending_spacelike(-1.0)
    with pytest.raises(ValueError):
        catalog.lightlike_rotational(-0.1)
    with pytest.raises(ValueError):
        catalog.helicoidal_timelike(1.0, 1.0)
    with pytest.raises(ValueError):
        catalog.helicoidal_spacelike_i(1.0, 1.0)
    with pytest.raises(ValueError):
        catalog.helicoidal_spacelike_ii(1.0, 0.0)
    with pytest.raises(ValueError):
        catalog.helicoidal_timelike_constant(1.0, 0.0)
    with pytest.raises(ValueError):
        catalog.enneper_second_kind(0.0, 0.5)
    with pytest.raises(ValueError):
        catalog.CatalogSurface("no-such-family")
    # a parameter that is not finite is in no range, "real" included
    with pytest.raises(ValueError, match="^bending-spacelike needs a > 0, "
                                         "got inf$"):
        catalog.bending_spacelike(np.inf)
    with pytest.raises(ValueError, match="^enneper-second-kind needs real, "
                                         "got nan$"):
        catalog.enneper_second_kind(1.0, np.nan)
    # nor is a value that is not an int, a float or a numpy real scalar, a
    # bool and a Fraction included, or an int with no finite float
    for make, message in (
            (lambda: catalog.bending_timelike("1"), "a > 0, got 1"),
            (lambda: catalog.bending_timelike(10**400),
             f"a > 0, got {10**400}"),
            (lambda: catalog.bending_timelike(Fraction(1, 2)),
             "a > 0, got 1/2"),
            (lambda: catalog.bending_timelike(np.float32(np.inf)),
             "a > 0, got inf"),
            (lambda: catalog.bending_timelike(None), "a > 0, got None"),
            (lambda: catalog.bending_timelike(True), "a > 0, got True"),
            (lambda: catalog.enneper_second_kind(1.0, "0"), "real, got 0"),
            (lambda: catalog.CatalogSurface(catalog.HELICOIDAL_TIMELIKE,
                                            a=1.0, lam=None),
             "0 < lam < 1, got None")):
        with pytest.raises(ValueError, match=f" needs {message}$"):
            make()
    for a in (2, np.int64(2), np.float32(1.5)):
        assert catalog.bending_timelike(a).a == a
    # a number is stored as its Python float, and evaluates as that float
    U, V = Grid(-1.0, 1.0, -0.4, 0.4, 5, 3).mesh()
    numbers = (2, np.int64(2), np.float32(0.7), np.float16(0.7))
    for make, values in (
            (catalog.bending_timelike, numbers),
            (lambda x: catalog.helicoidal_timelike(0.7, x),
             (np.float32(0.6), np.float16(0.6))),
            (lambda x: catalog.enneper_second_kind(x, x), numbers)):
        for value in values:
            surface, want = make(value), make(float(value))
            assert all(type(getattr(surface, name)) is float
                       for name in ("a", "lam", "cubic", "offset"))
            assert (catalog.eval_surface(surface, U, V).tobytes()
                    == catalog.eval_surface(want, U, V).tobytes())
    surface = catalog.bending_timelike(np.float32(0.7))
    cfg = cli.build_job_config({"family": surface.family})
    checks, _ = cli._verify_checks(
        cfg, surface, cli._patch_for(surface, cfg),
        cli._default_grid(cfg, surface.family, for_sample=False))
    assert checks and all(c.passed for c in checks), checks
    # the generating curve checks its offset as the family does
    for offset in (np.nan, np.inf, 10**400, "0"):
        with pytest.raises(ValueError, match=f"^generating curve needs real, "
                                             f"got {offset}$"):
            catalog.GeneratingCurve(1.0, offset)
    curve = catalog.GeneratingCurve(np.int64(2), np.float32(0.5))
    assert type(curve.cubic) is float and type(curve.offset) is float

    # (just inside, just outside) each side of each range in the registry
    def up(x):
        return np.nextafter(x, np.inf)

    def down(x):
        return np.nextafter(x, -np.inf)

    sides = {"a > 0": [(up(0.0), 0.0)], "a >= 0": [(0.0, down(0.0))],
             "0 < lam < 1": [(up(0.0), 0.0), (down(1.0), 1.0)],
             "lam > 1": [(up(1.0), 1.0)], "lam > 0": [(up(0.0), 0.0)],
             "cubic > 0": [(up(0.0), 0.0)], "real": []}
    for fam, info in catalog.FAMILY_INFO.items():
        valid = {p.name: sides[p.text][0][0] if sides[p.text] else 0.0
                 for p in info.params}
        for p in info.params:
            for inside, outside in sides[p.text]:
                catalog.CatalogSurface(fam, **{**valid, p.name: inside})
                with pytest.raises(ValueError):
                    catalog.CatalogSurface(fam, **{**valid, p.name: outside})


@pytest.mark.parametrize("a, rate", [
    (2.0, 2), (2.0000000005, 2), (1.9999999995, 2), (2.000000002, None),
    (1e-10, 0), (-3.0, -3), (2.5, None),
    (np.inf, None), (-np.inf, None), (np.nan, None)])
def test_integer_rate(a, rate):
    assert catalog.integer_rate(a) == rate


def test_helix_speed_property():
    assert catalog.helicoidal_timelike(1.0, 0.6).mu == pytest.approx(0.8)
    assert catalog.helicoidal_spacelike_i(1.0, 2.0).mu \
        == pytest.approx(np.sqrt(3.0))
    assert catalog.helicoidal_spacelike_ii(1.0, 1.0).mu \
        == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        catalog.bending_timelike(1.0).mu


def test_family_info_covers_all_ids():
    assert set(catalog.FAMILY_INFO) == set(catalog.DEFAULT_DOMAINS)
    assert len(catalog.FAMILY_INFO) == 10


@pytest.mark.parametrize("family", list(catalog.FAMILY_INFO))
def test_family_record_holomorphic_facts_agree(family):
    """Punctured forms come only with exp forms and a unit period only with
    punctured forms; at a = 1 and 2 a curvature target names a chart whose
    forms the record has, and forms_for refuses each chart it lacks."""
    info = catalog.FAMILY_INFO[family]
    assert info.punctured is None or info.forms is not None
    assert info.unit_period is None or info.punctured is not None
    defaults = {p.name: p.default for p in info.params}
    if "a" not in defaults or None in defaults.values():
        # no surface from defaults to probe, and so no forms to have
        assert info.forms is None
        return
    charts = {W.EXP_CHART: info.forms, W.PUNCTURED_CHART: info.punctured}
    for a in (1.0, 2.0):
        s = catalog.CatalogSurface(family, **{**defaults, "a": a})
        target = info.curvature(s)
        if target is not None:
            assert charts[target[0]] is not None
            assert W.forms_for(s, target[0]).chart == target[0]
        for chart, maker in charts.items():
            if maker is None:
                with pytest.raises(ValueError):
                    W.forms_for(s, chart)


def test_bjorling_data_rejects_orbit_family():
    with pytest.raises(ValueError):
        catalog.bjorling_data_for(
            catalog.enneper_second_kind(4.0 / 3.0, -1.0 / 3.0))


# Ends of each helix pitch range (open ranges, so just inside them).
_LAMBDA_ENDS = {
    catalog.HELICOIDAL_TIMELIKE: (1e-3, 0.999),
    catalog.HELICOIDAL_SPACELIKE_I: (1.001, 50.0),
    catalog.HELICOIDAL_SPACELIKE_II: (1e-3, 50.0),
    catalog.HELICOIDAL_TIMELIKE_CONSTANT: (1e-3, 0.999),
}


def _broadcast_cases(family):
    """Surfaces of a family at a inside the unit-twist window, at integer
    and non-integer a, and at both ends of its lambda range."""
    info = catalog.FAMILY_INFO[family]
    names = [p.name for p in info.params]
    cases = []
    for a in (1.0 + 1e-7, 2.0, 1.7):
        if family == catalog.ENNEPER_SECOND_KIND:
            curve = catalog.generating_curve_for(a)
            cases.append(catalog.enneper_second_kind(curve.cubic,
                                                     curve.offset))
            continue
        lams = [info.params[1].default] if "lam" in names else [0.0]
        if a == 1.7:
            lams += list(_LAMBDA_ENDS.get(family, ()))
        cases += [catalog.CatalogSurface(family, a=a, lam=lam)
                  for lam in lams]
    return cases


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


def test_eval_broadcasts():
    # For every family, a sparse mesh gives the bits of the dense one, on
    # the benchmark's 160x160 grid and on the grids the spacelike mask
    # shifts by +-h and +-h/2; the perturbed patch of `maxsurf` keeps the
    # declaration.
    shifts = [(0.0, 0.0)] + [(s, 0.0) for s in (1e-3, -1e-3, 5e-4, -5e-4)] \
        + [(0.0, s) for s in (1e-3, -1e-3, 5e-4, -5e-4)]
    for family in catalog.FAMILY_INFO:
        grid = Grid.from_domain(catalog.DEFAULT_DOMAINS[family], 160, 160)
        dense, sparse = grid.mesh(), grid.mesh(sparse=True)
        assert sparse[0].shape == (160, 1) and sparse[1].shape == (1, 160)
        surfaces = _broadcast_cases(family)
        perturbed = cli._patch_for(surfaces[0], cli.build_job_config(
            {"family": family, "perturb": 0.01}))
        for patch in [catalog.patch(s) for s in surfaces] + [perturbed]:
            assert patch.broadcasts, patch.label
            for du, dv in shifts:
                want = patch(dense[0] + du, dense[1] + dv)
                got = patch(sparse[0] + du, sparse[1] + dv)
                assert _same_bits(got, want), (patch.label, du, dv)
    s = catalog.bending_timelike(1.0)
    assert catalog.eval_surface(s, 0.1, 0.2).shape == (3,)


def _bending_timelike_own_form(a, u, v):
    """bending-timelike's own closed form: the reference for the bits of
    its evaluation as the timelike helicoid of zero pitch."""
    cau, sau = np.cosh(a * u), np.sinh(a * u)
    cav, sav = np.cos(a * v), np.sin(a * v)
    cu, su = np.cos(u), np.sin(u)
    cv, sv = np.cosh(v), np.sinh(v)
    pa = cau * sav * cu * cv - sau * cav * su * sv
    pb = sau * sav * su * cv + cau * cav * cu * sv
    pc = cau * sav * su * cv + sau * cav * cu * sv
    pd = sau * sav * cu * cv - cau * cav * su * sv
    den = a * a + 1.0
    x = np.cos(u) * np.cosh(v) + (a * pa + pb) / den
    y = np.sin(u) * np.cosh(v) + (a * pc - pd) / den
    z = -np.sinh(a * u) * np.sin(a * v) / a
    return vec3(x, y, z)


@pytest.mark.parametrize("a", [1.0, 2.0, 2.3])
def test_bending_timelike_keeps_the_bits_of_its_own_form(a):
    # The default box at 25x15 has nodes at u = 0 and v = 0, where z is a
    # signed zero that the helicoid's lam * u term keeps only at lam = -0.
    grid = Grid.from_domain(catalog.DEFAULT_DOMAINS[catalog.BENDING_TIMELIKE],
                            25, 15)
    s = catalog.bending_timelike(a)
    for sparse in (False, True):
        U, V = grid.mesh(sparse=sparse)
        assert _same_bits(catalog.eval_surface(s, U, V),
                          _bending_timelike_own_form(a, U, V)), sparse


# The spacelike helicoids' own closed forms and exp-chart forms, and the
# constant-twist timelike helicoid's, as written before type I was evaluated
# as type II with cosh au and sinh au exchanged: the references for the bits.

def _hyp_products(a, u):
    cau, sau = np.cosh(a * u), np.sinh(a * u)
    cu, su = np.cosh(u), np.sinh(u)
    return cau * cu, sau * su, cau * su, sau * cu


def _spacelike_i_own_form(a, lam, mu, u, v):
    r, s = _kernels(a, lam, mu, v)
    cc, ss, cs, sc = _hyp_products(a, u)
    x = lam * u - np.sinh(a * u) * np.sin(a * v) / a
    y = np.cosh(u) * np.cos(v) + cc * r + ss * s
    z = np.sinh(u) * np.cos(v) + cs * r + sc * s
    return vec3(x, y, z)


def _spacelike_ii_own_form(a, lam, mu, u, v):
    r, s = _kernels(a, lam, mu, v)
    cc, ss, cs, sc = _hyp_products(a, u)
    x = lam * u + np.cosh(a * u) * np.sin(a * v) / a
    y = np.sinh(u) * np.cos(v) + ss * r + cc * s
    z = np.cosh(u) * np.cos(v) + sc * r + cs * s
    return vec3(x, y, z)


def _timelike_constant_own_form(a, lam, mu, u, v):
    ca, sa = np.cosh(a), np.sinh(a)
    x = -mu * ca * np.cos(u) * np.sinh(v) + lam * sa * np.sin(u) * np.sinh(v) \
        + np.cos(u) * np.cosh(v)
    y = np.cosh(v) * np.sin(u) - mu * ca * np.sin(u) * np.sinh(v) \
        - lam * sa * np.cos(u) * np.sinh(v)
    z = lam * u - np.sinh(a) * v
    return vec3(x, y, z)


def _spacelike_i_own_forms(a, lam, mu, z):
    ch, sh = np.cosh(z), np.sinh(z)
    cha, sha = np.cosh(a * z), np.sinh(a * z)
    return (lam + 1j * sha, sh + 1j * (lam * sh * sha - mu * ch * cha),
            ch + 1j * (lam * ch * sha - mu * sh * cha))


def _spacelike_ii_own_forms(a, lam, mu, z):
    ch, sh = np.cosh(z), np.sinh(z)
    cha, sha = np.cosh(a * z), np.sinh(a * z)
    return (lam - 1j * cha, ch + 1j * (lam * ch * cha - mu * sh * sha),
            sh + 1j * (lam * sh * cha - mu * ch * sha))


_OWN_FORMS = {
    catalog.HELICOIDAL_SPACELIKE_I: (
        (1.0 + 1e-4, 2.0, 7.0), _spacelike_i_own_form, _spacelike_i_own_forms),
    catalog.HELICOIDAL_SPACELIKE_II: (
        (1e-3, 1.0, 50.0), _spacelike_ii_own_form, _spacelike_ii_own_forms),
    catalog.BENDING_SPACELIKE: ((0.0,), _spacelike_ii_own_form, None),
    catalog.HELICOIDAL_TIMELIKE_CONSTANT: (
        (1e-3, 0.6, 0.999), _timelike_constant_own_form, None),
}


@pytest.mark.parametrize("a", [0.5, 1.0, 1.0 + 1e-7, 2.3])
@pytest.mark.parametrize("family", list(_OWN_FORMS))
def test_helicoids_keep_the_bits_of_their_own_forms(family, a):
    # On a 129x129 grid of the default box (nodes at u = 0 and v = 0): a
    # dense complex grid of 16641 nodes fills 260 KiB, past the 256 KiB from
    # which numpy computes `named * temporary` in place as
    # `temporary * named`, which complex multiplication does not commute
    # bit for bit.  bending-spacelike is type II at lam = 0, mu = 1.
    lams, own_form, own_forms = _OWN_FORMS[family]
    grid = Grid.from_domain(catalog.DEFAULT_DOMAINS[family], 129, 129)
    info = catalog.FAMILY_INFO[family]
    for lam in lams:
        s = catalog.CatalogSurface(family, a=a, lam=lam)
        mu = 1.0 if family == catalog.BENDING_SPACELIKE else s.mu
        for sparse in (False, True):
            U, V = grid.mesh(sparse=sparse)
            for u, v in [(U, V), (U + 1e-20j, V), (U, V + 1e-20j),
                         (U + 0.3j * V, V - 0.2j * U + 0.1j)]:
                assert _same_bits(catalog.eval_surface(s, u, v),
                                  own_form(a, lam, mu, u, v)), (lam, sparse)
        if own_forms is None:
            continue
        U, V = grid.mesh()
        z = np.concatenate([[0.0, complex(-0.0, -0.0), 0.5, 0.5j],
                            (U + 1j * V).ravel()])
        for point in (z, z[:10], complex(z[7])):
            assert _same_bits(np.stack(info.forms(s, point)),
                              np.stack(own_forms(a, lam, mu, point))), lam


def test_patch_labels_identify_parameters():
    assert "bending-timelike" in catalog.patch(catalog.bending_timelike(2.0)).label
    assert "a=2" in catalog.patch(catalog.bending_timelike(2.0)).label
    lab = catalog.patch(catalog.enneper_second_kind(4.0 / 3.0, -1.0 / 3.0)).label
    assert "cubic=" in lab and "offset=" in lab


# --- the a = 1 removable singularity ---------------------------------------

def _cancelling_kernels(a, lam, mu, v):
    """The kernel pair as the quotient whose numerator cancels to O(a - 1),
    and its a = 1 limit, in long double."""
    a, lam, mu, v = (np.asarray(x, np.longdouble) for x in (a, lam, mu, v))
    cav, sav, cv, sv = np.cos(a * v), np.sin(a * v), np.cos(v), np.sin(v)
    if a == 1:
        return (0.5 * ((mu - lam) * sv * cv + (mu + lam) * v),
                0.5 * ((mu - lam) * sv * cv - (mu + lam) * v))
    return (((a * mu + lam) * cv * sav - (a * lam + mu) * sv * cav)
            / (a * a - 1), ((a * mu + lam) * sv * cav
                            - (a * lam + mu) * cv * sav) / (a * a - 1))


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is float64 here")
@pytest.mark.parametrize("lam,mu", [(0.0, 1.0), (2.0, np.sqrt(3.0)),
                                    (1.0, np.sqrt(2.0))])
def test_kernels_match_a_long_double_reference_around_unit_twist(lam, mu):
    # The (lambda, mu) of bending-spacelike and of the two spacelike helices
    # at their default lambda, over the verify domain's v.  Measured: 1.8e-14
    # for 1e-5 <= |a - 1| <= 1e-2, where the long-double quotient's own
    # cancellation dominates, and 2.7e-16 at a = 1.
    v = np.linspace(-1.0, 1.0, 41)
    for d in np.geomspace(1e-5, 1e-2, 31):
        for a in (1.0 + d, 1.0 - d):
            got = np.array(_kernels(a, lam, mu, v), dtype=np.longdouble)
            assert np.max(np.abs(
                got - _cancelling_kernels(a, lam, mu, v))) < 5e-14
    got = np.array(_kernels(1.0, lam, mu, v), dtype=np.longdouble)
    assert np.max(np.abs(got - _cancelling_kernels(1.0, lam, mu, v))) < 1e-15


# --- orbit surface of the lightlike rotation group --------------------------

def test_generating_curve_constants_for_zero_twist():
    curve = catalog.generating_curve_for(0.0)
    assert curve.cubic == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert curve.offset == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert np.allclose(catalog.eval_generating_curve(curve, 1.0),
                       [2.0, 0.0, 0.0])


def test_generating_curve_coefficient_relation():
    for a in (0.0, 0.5, 1.0, 2.0):
        curve = catalog.generating_curve_for(a)
        assert curve.cubic == pytest.approx(8.0 * curve.offset + 4.0,
                                            abs=1e-12)


def test_ode_residual_vanishes_for_matched_constants():
    v = np.linspace(-2.0, 2.0, 81)
    for a in (0.0, 0.7, 1.0, 2.0):
        curve = catalog.generating_curve_for(a)
        res = catalog.ode_residual(curve, curve.cubic / 4.0,
                                   -2.0 * curve.offset, v)
        assert np.max(res) < 1e-12


def test_ode_residual_detects_wrong_constant():
    curve = catalog.generating_curve_for(0.0)
    res = catalog.ode_residual(curve, curve.cubic / 4.0 + 0.1,
                               -2.0 * curve.offset, np.array([1.0]))
    assert res[0] == pytest.approx(0.8, abs=1e-12)


def test_lightlike_rotation_preserves_the_metric():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3))
    for theta in (-1.0, 0.3, 2.0):
        moved = catalog.apply_lightlike_rotation(theta, pts)
        before = lorentz_dot(pts, pts)
        after = lorentz_dot(moved, moved)
        assert np.max(np.abs(after - before)) < 1e-12


def test_orbit_identification_with_the_bjorling_surface():
    u = np.linspace(-2.0, 2.0, 21)
    v = np.linspace(-1.0, 1.0, 21)
    for a in (0.0, 1.0):
        assert catalog.lightlike_identification_check(a, u, v) < 1e-10


def test_generating_curve_validation():
    with pytest.raises(ValueError):
        catalog.GeneratingCurve(cubic=0.0, offset=0.1)
    curve = catalog.GeneratingCurve(cubic=2.0, offset=-0.5)
    assert curve.height(1.0) == pytest.approx(1.5)
