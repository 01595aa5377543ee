"""Numerical construction of surface patches from curve plus normal field."""

import dataclasses
import json

import numpy as np
import pytest

from maxsurf import bjorling, catalog, frames, verify
from maxsurf.bjorling import (NODES, QuadratureError, SurfacePatch,
                              reference_normal, segment_integral,
                              solve_bjorling)
from maxsurf.cli import main
from maxsurf.frames import AnalyticMap, BjorlingData
from maxsurf.lorentz import lorentz_cross, lorentz_dot, vec3


def _exp_data(field=None):
    # alpha(z) = (e^z, 0, 0) gives a segment integrand with an exact
    # antiderivative to pin quadrature behavior against.  `field` replaces
    # the constant normal (0, 0, 1).
    return BjorlingData(
        alpha=AnalyticMap(
            lambda z: vec3(np.exp(z), np.zeros_like(np.asarray(z, complex)),
                           np.zeros_like(np.asarray(z, complex))),
            lambda z: vec3(np.exp(z), np.zeros_like(np.asarray(z, complex)),
                           np.zeros_like(np.asarray(z, complex)))),
        normal_field=AnalyticMap(field or (
            lambda z: vec3(np.zeros_like(np.asarray(z, complex)),
                           np.zeros_like(np.asarray(z, complex)),
                           np.ones_like(np.asarray(z, complex))))),
        u0=0.0, family=None, spec=None)


def test_gauss_legendre_segment_integral_is_machine_accurate():
    z = 1.0 + 1.0j
    value = segment_integral(_exp_data(), np.array(z))
    # integral of i V x alpha' from 0 to z; first component picks up
    # i * (e^z - 1) times the constant cross factor
    assert np.all(np.isfinite(value))
    direct = _plain_pass(_exp_data(), np.array(z), 96)
    assert np.max(np.abs(value - direct)) < 1e-13


NEAR_SURFACES = (catalog.bending_timelike(1.3),
                 catalog.bending_spacelike(0.7),
                 catalog.lightlike_rotational(0.5),
                 catalog.helicoidal_timelike(1.2, 0.6),
                 catalog.helicoidal_spacelike_i(0.8, 2.0),
                 catalog.helicoidal_spacelike_ii(1.4, 1.0))


def _near_axis_cases():
    """Björling data and a 12x12 grid of points on [-1, 1]^2 that one
    panel of the default rule resolves."""
    U, V = np.meshgrid(np.linspace(-1, 1, 12), np.linspace(-1, 1, 12),
                       indexing="ij")
    return [(catalog.bjorling_data_for(s), U + 1j * V) for s in NEAR_SURFACES]


def _plain_pass(data, z, nodes):
    """One plain Gauss-Legendre pass of `nodes` nodes from u0 to z."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    span = z - data.u0
    pts = data.u0 + 0.5 * (x + 1.0) * span[..., None]
    vals = lorentz_cross(data.normal_field(pts), data.alpha.d(pts))
    return span[..., None] * np.einsum("k,...kj->...j", 0.5 * w, vals)


def test_near_axis_points_get_the_plain_rule_bit_for_bit():
    # a point that one panel of the default rule resolves keeps exactly the
    # bytes of a plain Gauss-Legendre pass
    for data, z in _near_axis_cases():
        assert np.array_equal(segment_integral(data, z),
                              _plain_pass(data, z, NODES))


@pytest.mark.parametrize("points", [1 << 16, 48])
def test_pass_size_does_not_change_the_solve(monkeypatch, points):
    # every value is computed pointwise, so the split into passes changes no
    # bit: 40x40 points of six families take several passes of the default
    # size, and far points of e^z, redone on 2 to 16 panels, are split
    # differently in those rounds too.  At 48 points a pass holds one
    # point, and from 2 panels on one row is wider than the pass.
    U, V = np.meshgrid(np.linspace(-1, 1, 40), np.linspace(-3, 3, 40),
                       indexing="ij")
    cases = [(catalog.bjorling_data_for(s), U + 1j * V)
             for s in NEAR_SURFACES]
    far = np.linspace(-1, 1, 20)[:, None] + 1j * np.linspace(50, 300, 20)
    cases.append((_exp_data(), far))
    assert U.size * NODES > bjorling._PASS_POINTS
    assert points < 2 * NODES or points > U.size * NODES
    if points < 2 * NODES:
        # one point per pass: keep the case short
        cases = [(data, z[::8, ::8]) for data, z in cases]
    default = [segment_integral(data, z) for data, z in cases]
    monkeypatch.setattr(bjorling, "_PASS_POINTS", points)
    for (data, z), got in zip(cases, default):
        assert np.array_equal(segment_integral(data, z), got)


def _generic(data):
    """The same Björling data, with its normal field behind a wrapper, so
    that the integrand takes the generic lorentz_cross path."""
    field = data.normal_field
    return dataclasses.replace(
        data, normal_field=AnalyticMap(lambda z: field(z), field.deriv))


BJORLING_FAMILIES = [f for f, info in catalog.FAMILY_INFO.items()
                     if info.curve is not None]


@pytest.mark.parametrize("family", BJORLING_FAMILIES)
def test_fused_solves_equal_generic_path_solves(family):
    # the bench grids: near 32x32 on [-1, 1]^2, far 2x4 out to |v| = 3
    near = np.meshgrid(np.linspace(-1, 1, 32), np.linspace(-1, 1, 32),
                       indexing="ij")
    far = np.meshgrid([-1.0, 1.0], [-3.0, -1.0, 1.0, 3.0], indexing="ij")
    info = catalog.FAMILY_INFO[family]
    lam = {p.name: p.default for p in info.params}.get("lam") or 0.0
    for a in (0.3, 1.7):
        data = catalog.bjorling_data_for(
            catalog.CatalogSurface(family, a=a, lam=lam))
        fused, generic = solve_bjorling(data), solve_bjorling(_generic(data))
        for U, V in (near, far):
            assert np.array_equal(fused(U, V), generic(U, V))


def test_a_swapped_normal_field_is_evaluated():
    # a counting field swapped in by dataclasses.replace sees every node
    # of the near-axis pass, and the solve keeps its bits
    for data, z in _near_axis_cases():
        counts = []
        field = data.normal_field

        def counting(w):
            counts.append(np.size(w))
            return field(w)

        swapped = dataclasses.replace(
            data, normal_field=AnalyticMap(counting, field.deriv))
        assert np.array_equal(segment_integral(swapped, z),
                              segment_integral(data, z))
        assert sum(counts) == z.size * NODES


def test_a_swapped_curve_is_evaluated():
    # another family's curve under the same normal field changes the
    # integrand: the solve is the generic pass of the swapped maps
    data, z = _near_axis_cases()[0]
    other = catalog.bjorling_data_for(catalog.bending_spacelike(0.7))
    swapped = dataclasses.replace(data, alpha=other.alpha)
    got = segment_integral(swapped, z)
    assert not np.array_equal(got, segment_integral(data, z))
    assert np.array_equal(got, _plain_pass(swapped, z, NODES))


def _counting_normal(counts, nan_where=None):
    """Constant normal (0, 0, 1) recording how many points it is asked
    for; NaN at the points where `nan_where` holds."""
    def field(z):
        z = np.asarray(z, complex)
        counts.append(z.size)
        ones = np.where(nan_where(z), np.nan, 1.0) if nan_where else 1.0
        return vec3(np.zeros_like(z), np.zeros_like(z), ones * np.ones_like(z))
    return field


def test_far_point_is_split_into_panels_and_stays_accurate():
    counts = []
    data = _exp_data(_counting_normal(counts))
    near = 0.3 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7))
    segment_integral(data, near)
    assert counts == [NODES * near.size]
    counts.clear()
    z = 300j
    value = segment_integral(data, np.array(z))
    # V x alpha' = (0, e^w, 0) for V = (0, 0, 1), alpha' = (e^w, 0, 0)
    exact = np.exp(z) - 1.0
    assert abs(value[1] - exact) <= 1e-11 * abs(exact)
    assert sum(counts) > NODES


def test_non_finite_integrand_raises_at_its_point():
    data = _exp_data(_counting_normal([], nan_where=lambda w: w.imag > 1.5))
    z = np.array([0.5 + 0.5j, 0.2 + 2.0j, -0.3 + 0.1j])
    with pytest.raises(QuadratureError) as info:
        segment_integral(data, z)
    assert info.value.z == z[1]
    assert np.isnan(info.value.estimate)
    assert str(z[1]) in str(info.value)


def test_panel_cap_raises_with_point_estimate_and_tolerance():
    # e^w oscillates 1e5 / (2 pi) times along the segment: more than 1024
    # panels of NODES nodes would be needed
    z = np.array([0.5j, 1e5j])
    with pytest.raises(QuadratureError) as info:
        segment_integral(_exp_data(), z)
    err = info.value
    assert err.z == z[1]
    assert np.isfinite(err.estimate) and err.estimate > err.tol > 0.0
    message = str(err)
    assert "1024 panel(s)" in message and str(z[1]) in message
    assert f"{err.estimate:.3g}" in message and f"{err.tol:.3g}" in message


@pytest.mark.parametrize("quadrature", [
    {"rule": "adaptive-simpson"},
    {"rule": "gauss-legendre", "tol": 1e-10},
])
def test_cli_rejects_the_removed_simpson_rule(tmp_path, capsys, quadrature):
    # the rule has no setting: a quadrature field is an unknown field
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"family": "bending-timelike",
                               "quadrature": quadrature}))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config field 'quadrature'" in err
    assert "Traceback" not in err


def test_quadrature_error_carries_location():
    err = QuadratureError("no convergence", z=1 + 2j)
    assert err.z == 1 + 2j
    assert "no convergence" in str(err)


def test_solve_reproduces_catalog_point():
    # frozen closed-form value, independently confirmed by the catalog
    surface = catalog.bending_timelike(1.0)
    patch = solve_bjorling(catalog.bjorling_data_for(surface))
    got = patch(0.7, 0.3)
    expected = (1.0918411659290737, 0.91071911610691947,
                -0.22417681233754291)
    assert np.max(np.abs(np.asarray(got) - expected)) < 1e-10


def test_patch_restricts_to_core_curve_at_v_zero():
    surface = catalog.helicoidal_timelike(1.0, 0.6)
    data = catalog.bjorling_data_for(surface)
    patch = solve_bjorling(data)
    u = np.linspace(-1.5, 1.5, 11)
    core = patch(u, np.zeros_like(u))
    assert np.max(np.abs(core - data.alpha(u).real)) < 1e-12


def test_patch_broadcasts_grids():
    patch = solve_bjorling(catalog.bjorling_data_for(
        catalog.bending_spacelike(1.0)))
    U, V = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-0.3, 0.3, 3),
                       indexing="ij")
    assert np.asarray(patch(U, V)).shape == (4, 3, 3)
    assert np.asarray(patch(0.2, 0.1)).shape == (3,)


def test_far_field_fallback_remains_accurate():
    # far from the real axis the default rule must stay consistent with a
    # higher-order one
    data = catalog.bjorling_data_for(catalog.lightlike_rotational(0.5))
    patch = solve_bjorling(data)
    u = np.linspace(-0.5, 0.5, 5)
    v = np.full_like(u, 2.4)
    z = u + 1j * v
    forced = np.real(data.alpha(z) + 1j * _plain_pass(data, z, 192))
    assert np.max(np.abs(np.asarray(patch(u, v)) - forced)) < 1e-9


@pytest.mark.parametrize("family", [s.family for s in NEAR_SURFACES])
def test_default_rule_matches_closed_form_across_twists_and_grids(family):
    # The default rule against the closed form for each twist, on 21x21
    # grids: verify's default grid, the strip |u| <= pi, |v| <= 1 and the
    # wide strip |u| <= 3, |v| <= 6.  At 64 and at 32 nodes the worst error
    # measured is 2.5e-14 of max |X|, so the bound leaves a 4x margin: a
    # cheaper default rule that trades accuracy away fails here.
    info = catalog.FAMILY_INFO[family]
    lam = {p.name: p.default for p in info.params}.get("lam") or 0.0
    grids = [verify.Grid.from_domain(d).mesh()
             for d in (info.verify_domain, (-np.pi, np.pi, -1.0, 1.0),
                       (-3.0, 3.0, -6.0, 6.0))]
    for a in (0.3, 1.0, 1.7, 2.0, 3.0, 5.0):
        surface = catalog.CatalogSurface(family, a=a, lam=lam)
        numeric = solve_bjorling(catalog.bjorling_data_for(surface))
        exact = catalog.patch(surface)
        for U, V in grids:
            X = numeric(U, V)
            assert (np.max(np.abs(X - exact(U, V)))
                    <= 1e-13 * np.max(np.abs(X))), (a, U.max(), V.max())


def test_reference_normal_matches_prescribed_field():
    surface = catalog.bending_spacelike(1.0)
    data = catalog.bjorling_data_for(surface)
    patch = catalog.patch(surface)
    u = np.linspace(-1.0, 1.0, 9)
    N = reference_normal(patch, u)
    V = data.normal_field(u).real
    # matching unit timelike vectors have Lorentz product -1, not +1
    sign = -np.sign(lorentz_dot(N[0], V[0]))
    assert np.max(np.abs(N - sign * V)) < 1e-6
    assert np.max(np.abs(lorentz_dot(N, N) + 1.0)) < 1e-6


def test_reference_normal_rejects_degenerate_tangent_plane():
    flat = SurfacePatch(
        func=lambda u, v: np.stack(
            np.broadcast_arrays(u, v, np.asarray(u, float) * 0.0), axis=-1),
        domain=(-1, 1, -1, 1), label="flat")
    # collapse one direction so the normal is undefined
    collapsed = SurfacePatch(
        func=lambda u, v: np.stack(
            np.broadcast_arrays(u, np.asarray(u) * 0.0,
                                np.asarray(u) * 0.0), axis=-1),
        domain=(-1, 1, -1, 1), label="collapsed")
    reference_normal(flat, np.array([0.3]))
    with pytest.raises(ValueError):
        reference_normal(collapsed, np.array([0.3]))


def test_surface_patch_label_and_domain_are_kept():
    patch = solve_bjorling(catalog.bjorling_data_for(
        catalog.bending_timelike(2.0)), domain=(-2, 2, -1, 1))
    assert patch.domain == (-2, 2, -1, 1)
    assert patch.label
