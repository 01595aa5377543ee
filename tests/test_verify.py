"""Finite-difference geometry checks against hand-computed references."""

import dataclasses

import numpy as np
import pytest

from maxsurf import catalog, cli, motions, verify
from maxsurf.bjorling import SurfacePatch
from maxsurf.verify import Grid


def graph_patch():
    # X(u, v) = (u, v, 0.3(u^2 + v^2)): spacelike on [-1, 1]^2, curved, and
    # every first/second fundamental quantity has a short exact formula.
    return SurfacePatch(
        func=lambda u, v: np.stack(np.broadcast_arrays(
            u, v, 0.3 * (np.asarray(u, float) ** 2
                         + np.asarray(v, float) ** 2)), axis=-1),
        domain=(-1.0, 1.0, -1.0, 1.0), label="control:paraboloid-graph")


def graph_first_forms(u, v):
    zu, zv = 0.6 * u, 0.6 * v
    return 1.0 - zu * zu, -zu * zv, 1.0 - zv * zv


def test_fundamental_forms_match_exact_graph_values():
    p = graph_patch()
    u, v = 0.5, -0.25
    forms = verify.fundamental_forms(p, np.array(u), np.array(v))
    E, F, G = graph_first_forms(u, v)
    assert float(forms.E) == pytest.approx(E, abs=1e-10)
    assert float(forms.F) == pytest.approx(F, abs=1e-10)
    assert float(forms.G) == pytest.approx(G, abs=1e-10)
    # N = (-zu, zv, -1)/sqrt(1 - zu^2 - zv^2) up to overall sign;
    # second form entries are 0.6 <e_i, N> with the indefinite product
    det = E * G - F * F
    scale = 0.6 / np.sqrt(det)
    assert abs(float(forms.e)) == pytest.approx(scale, abs=1e-8)
    assert abs(float(forms.g2)) == pytest.approx(scale, abs=1e-8)
    assert float(forms.f) == pytest.approx(0.0, abs=1e-8)
    assert not forms.degenerate


def test_fundamental_forms_flag_degenerate_plane():
    p = catalog.patch(catalog.lightlike_rotational(0.0))
    forms = verify.fundamental_forms(p, np.array(0.3), np.array(1.0))
    assert forms.degenerate
    forms_in = verify.fundamental_forms(p, np.array(0.3), np.array(0.5))
    assert not forms_in.degenerate


def test_mean_curvature_residual_on_a_maximal_patch():
    p = catalog.patch(catalog.elliptic_catenoid(1.0))
    grid = Grid.from_domain(catalog.DEFAULT_DOMAINS[catalog.ELLIPTIC_CATENOID],
                            21, 21)
    assert verify.mean_curvature_scan(p, grid)[0] < 1e-5


def test_control_surface_fails_maximality():
    res, flagged = verify.mean_curvature_scan(graph_patch(),
                                              Grid(-1, 1, -1, 1, 21, 21))
    assert res > 0.1
    assert flagged == ()
    # the exact residual at the origin: |e G - 2 f F + g2 E| / (2|E G - F^2|)
    forms = verify.fundamental_forms(graph_patch(), np.array(0.0),
                                     np.array(0.0))
    num = abs(forms.e * forms.G - 2 * forms.f * forms.F + forms.g2 * forms.E)
    den = 2 * abs(forms.E * forms.G - forms.F ** 2)
    assert num / den == pytest.approx(0.6, abs=1e-8)


def test_scan_excludes_near_degenerate_nodes_and_reports_them():
    # the v = 1 row of this patch is exactly degenerate; nodes there are
    # excluded from the max and surfaced in the flagged list
    p = catalog.patch(catalog.lightlike_rotational(0.0))
    res, flagged = verify.mean_curvature_scan(p, Grid(-1, 1, -1, 1, 11, 11))
    assert res < 1e-5
    assert len(flagged) >= 11
    assert all(v == 1.0 for _, v in flagged[-11:])


def test_conformality_on_catalog_patches():
    for s in (catalog.bending_timelike(1.0), catalog.elliptic_catenoid(1.0)):
        grid = Grid.from_domain(catalog.DEFAULT_DOMAINS[s.family], 11, 11)
        assert verify.conformality_residual(catalog.patch(s), grid) < 1e-6


def test_conformality_rejects_the_graph_patch():
    res = verify.conformality_residual(graph_patch(),
                                       Grid(-1, 1, -1, 1, 11, 11))
    assert res > 0.1


def test_spacelike_region_boundary_row():
    p = catalog.patch(catalog.lightlike_rotational(0.0))
    mask = verify.spacelike_region(p, Grid(-1, 1, -1, 1, 21, 21))
    assert mask.shape == (21, 21)
    assert mask[:, :-1].all()
    assert not mask[:, -1].any()


def test_spacelike_region_all_true_inside():
    p = catalog.patch(catalog.bending_spacelike(1.0))
    grid = Grid.from_domain(catalog.DEFAULT_DOMAINS[catalog.BENDING_SPACELIKE],
                            15, 15)
    assert verify.spacelike_region(p, grid).all()


def test_grid_validation_and_axes():
    with pytest.raises(ValueError):
        Grid(0, 1, 0, 1, nu=1, nv=5)
    with pytest.raises(ValueError):
        Grid(1, 0, 0, 1, nu=5, nv=5)
    with pytest.raises(ValueError):
        Grid(0, np.inf, 0, 1, nu=5, nv=5)
    g = Grid(-1, 1, -2, 2, nu=5, nv=9)
    us, vs = g.axes()
    assert us[0] == -1 and us[-1] == 1 and len(us) == 5
    assert vs[0] == -2 and vs[-1] == 2 and len(vs) == 9
    U, V = g.mesh()
    assert U.shape == (5, 9)
    assert "5x9" in g.describe()


def test_grid_from_domain():
    g = Grid.from_domain((-2, 2, -1, 1), 11, 7)
    assert (g.u_min, g.u_max, g.v_min, g.v_max) == (-2, 2, -1, 1)
    assert (g.nu, g.nv) == (11, 7)


def test_bjorling_recovery_passses_on_catalog_patch():
    s = catalog.helicoidal_spacelike_ii(1.0, 1.0)
    report = verify.bjorling_recovery(catalog.patch(s),
                                      catalog.bjorling_data_for(s),
                                      np.linspace(-1.0, 1.0, 21))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["core-curve", "normal-field"]
    assert all(c.residual < c.tolerance for c in report.checks)


def test_bjorling_recovery_detects_displaced_patch():
    s = catalog.bending_timelike(1.0)
    base = catalog.patch(s)
    shifted = SurfacePatch(
        func=lambda u, v: np.asarray(base(u, v)) + np.array([0.01, 0, 0]),
        domain=base.domain, label="shifted")
    report = verify.bjorling_recovery(shifted, catalog.bjorling_data_for(s),
                                      np.linspace(-1.0, 1.0, 11))
    assert not report.passed
    core = report.checks[0]
    assert core.name == "core-curve"
    assert core.residual == pytest.approx(0.01, rel=1e-6)


def test_equivariance_report():
    s = catalog.hyperbolic_catenoid(1.0)
    rep = verify.equivariance(catalog.patch(s),
                              motions.rotation_spacelike_axis(),
                              (-1.0, -0.3, 0.3, 1.0),
                              Grid(-1, 1, -1, 1, 11, 11))
    assert rep.passed
    assert rep.checks[0].residual < 1e-12


def test_equivariance_fails_for_the_wrong_group():
    s = catalog.hyperbolic_catenoid(1.0)
    rep = verify.equivariance(catalog.patch(s),
                              motions.rotation_timelike_axis(),
                              (0.5,), Grid(-1, 1, -1, 1, 5, 5))
    assert not rep.passed
    assert rep.checks[0].residual > 0.01


def test_equivariance_fails_on_a_nan_residual():
    # a NaN residual at one theta does not read as a pass
    s = catalog.hyperbolic_catenoid(1.0)
    base = catalog.patch(s)

    def func(u, v):
        x = np.array(base(u, v), dtype=float)
        x[np.asarray(u + 0.0 * v) > 10.0] = np.nan
        return x

    rep = verify.equivariance(SurfacePatch(func=func),
                              motions.rotation_spacelike_axis(),
                              (0.3, 20.0, 1.0), Grid(-1, 1, -1, 1, 5, 5))
    assert not rep.passed
    assert np.isnan(rep.checks[0].residual)


def test_group_isometry_check_fails_on_overflow():
    with np.errstate(all="ignore"):  # as under `maxsurf verify`
        result = verify.group_isometry_check(
            motions.rotation_lightlike_axis(), (0.3, 1e200))
    assert not result.passed


def test_group_isometry_check():
    for group in (motions.rotation_timelike_axis(),
                  motions.rotation_spacelike_axis(),
                  motions.rotation_lightlike_axis(),
                  motions.screw_timelike_axis(0.6)):
        result = verify.group_isometry_check(group, (-1.0, 0.3, 2.0))
        assert result.passed
        assert result.residual < 1e-12
        assert group.tag in result.name


def test_isometry_defect_is_zero_for_exact_matrices():
    assert motions.isometry_defect(motions.rotation_spacelike_axis(), 1.3) \
        < 1e-15


def test_check_result_serialization():
    c = verify.CheckResult("demo", 1e-9, 1e-6, True, grid="3x3",
                           flagged=((0.0, 1.0),), note="n")
    d = c.to_dict()
    assert d["name"] == "demo"
    assert d["passed"] is True
    assert d["residual"] == 1e-9
    assert d["tolerance"] == 1e-6
    rep = verify.VerificationReport("label", (c,))
    assert rep.passed
    assert rep.to_dict()["checks"][0]["name"] == "demo"


def _four_scans(patch, grid, group):
    """What each grid scan reports for a patch."""
    return (verify.mean_curvature_scan(patch, grid),
            verify.conformality_residual(patch, grid),
            verify.spacelike_region(patch, grid).tolist(),
            verify.equivariance(patch, group, (-0.3, 1.0), grid).to_dict())


@pytest.mark.parametrize("surface, group", [
    # the v = 1 row is degenerate, so mean_curvature_scan flags nodes
    (catalog.lightlike_rotational(0.0), motions.rotation_lightlike_axis()),
    (catalog.hyperbolic_catenoid(1.3), motions.rotation_spacelike_axis()),
    (catalog.helicoidal_timelike_constant(0.7, 0.6),
     motions.screw_timelike_axis(0.6)),
])
def test_scans_on_sparse_and_dense_meshes_agree(surface, group):
    # both on the Richardson stencil: the undeclared copy drops `analytic`
    # with `broadcasts`
    declared = dataclasses.replace(catalog.patch(surface), analytic=False)
    undeclared = SurfacePatch(declared.func, declared.domain, declared.label)
    assert declared.broadcasts and not undeclared.broadcasts
    assert not undeclared.analytic
    grid = Grid(-1, 1, -1, 1, 11, 13)
    sparse = _four_scans(declared, grid, group)
    assert sparse == _four_scans(undeclared, grid, group)
    if surface.family == catalog.LIGHTLIKE_ROTATIONAL:
        assert len(sparse[0][1]) >= 11


def test_scans_run_a_patch_that_needs_equal_shapes():
    def graph(u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return np.stack([u, v, 0.3 * (u * u + v * v)], axis=-1)

    grid = Grid(-1, 1, -1, 1, 11, 11)
    with pytest.raises(ValueError):
        graph(*grid.mesh(sparse=True))
    patch = SurfacePatch(func=graph, domain=(-1, 1, -1, 1), label="graph")
    (value, flagged), conformality, mask, equivariance = _four_scans(
        patch, grid, motions.rotation_timelike_axis())
    assert value > 0.1 and flagged == ()
    assert conformality > 0.1
    assert np.all(mask)
    assert not equivariance["passed"]


def test_mask_does_not_overflow_on_a_large_surface():
    # At a = 300 the tangents reach about 1e130, so E G - F^2 formed from
    # them is inf - inf; the parent flagged 650 of these 1024 nodes.
    cfg = cli.build_job_config({"family": "elliptic-catenoid", "a": 300})
    grid = cli._default_grid(cfg, catalog.ELLIPTIC_CATENOID, for_sample=True)
    patch = catalog.patch(cli.surface_from_config(cfg))
    assert np.all(np.isfinite(patch(*grid.mesh(sparse=True))))
    assert (grid.nu, grid.nv) == (64, 16)
    assert verify.spacelike_region(patch, grid).all()


def _sweep_twists(rng):
    """20 twists with |a - 1| log-uniform in [3e-6, 1e-2], 10 on each side
    of 1, then 20 uniform on [0.2, 4]."""
    near = 10.0 ** rng.uniform(np.log10(3e-6), -2.0, 20)
    return np.concatenate([1.0 + near[:10], 1.0 - near[10:],
                           rng.uniform(0.2, 4.0, 20)])


def test_scans_pass_over_a_twist_sweep_of_every_bjorling_family():
    # Default lambda, verify grid, step and tolerances.  The a = 1 window
    # of the cancelling kernels and the Richardson stencil failed 65 of
    # these 360 draws on the three spacelike-axis families, worst mean
    # curvature 0.071; measured now: worst 1.4e-8 and conformality 1.3e-12.
    rng = np.random.default_rng(7)
    for family, info in catalog.FAMILY_INFO.items():
        if info.curve is None:
            continue
        for a in _sweep_twists(rng):
            cfg = cli.build_job_config({"family": family, "a": float(a)})
            patch = catalog.patch(cli.surface_from_config(cfg))
            grid = cli._default_grid(cfg, family, for_sample=False)
            stencil = verify.grid_stencil(patch, grid, cfg.fd_step)
            h, _ = verify.mean_curvature_scan(patch, grid, stencil=stencil)
            c = verify.conformality_residual(patch, grid, stencil=stencil)
            assert h < cfg.tolerances["mean_curvature"], (family, a, h)
            assert c < cfg.tolerances["conformality"], (family, a, c)
