"""The shared derivative stencils against references.

The reference functions below evaluate the patch once per Richardson
stencil point, as the scans did before they shared one stacked
evaluation.  Every value is pointwise, so the stacked stencil must give
the same bits; catalog patches reach it through their Richardson twin,
the same patch with analytic=False.  The complex-step stencil of analytic
patches is held to exact derivatives, to the Laplace equation of the
Björling families and to the Richardson stencil.
"""

import dataclasses

import numpy as np
import pytest

from maxsurf import bjorling, catalog, cli, verify
from maxsurf.bjorling import SurfacePatch, solve_bjorling
from maxsurf.lorentz import lorentz_cross, lorentz_dot
from maxsurf.verify import Grid

FAMILIES = tuple(catalog.FAMILY_INFO)
# 17 offsets in one call, 5 per call with a last call of 2, one per call.
SIZES = (21, 40, 160)


def _first_derivatives(func, u, v, h):
    def diff(step):
        du = (func(u + step, v) - func(u - step, v)) / (2.0 * step)
        dv = (func(u, v + step) - func(u, v - step)) / (2.0 * step)
        return du, dv

    du1, dv1 = diff(h)
    du2, dv2 = diff(h / 2.0)
    return (4.0 * du2 - du1) / 3.0, (4.0 * dv2 - dv1) / 3.0


def _second_derivatives(func, u, v, h):
    center = func(u, v)

    def diff(step):
        uu = (func(u + step, v) - 2.0 * center + func(u - step, v)) / step**2
        vv = (func(u, v + step) - 2.0 * center + func(u, v - step)) / step**2
        uv = (func(u + step, v + step) - func(u + step, v - step)
              - func(u - step, v + step) + func(u - step, v - step)) / (4.0 * step**2)
        return uu, uv, vv

    one = diff(h)
    two = diff(h / 2.0)
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(one, two))


def reference_forms(patch, u, v, h=1e-3, degenerate_tol=1e-4):
    xu, xv = _first_derivatives(patch, u, v, h)
    xuu, xuv, xvv = _second_derivatives(patch, u, v, h)
    E = lorentz_dot(xu, xu)
    F = lorentz_dot(xu, xv)
    G = lorentz_dot(xv, xv)
    nn = lorentz_cross(xu, xv)
    q = np.abs(lorentz_dot(nn, nn))
    normal = nn / np.sqrt(np.where(q > 0.0, q, 1.0))[..., None]
    return verify.FundamentalForms(
        E=E, F=F, G=G, e=lorentz_dot(xuu, normal), f=lorentz_dot(xuv, normal),
        g2=lorentz_dot(xvv, normal), degenerate=E * G - F * F <= degenerate_tol)


def reference_scans(patch, grid, h=1e-3):
    """(forms, mean curvature value, flagged, conformality, mask)."""
    U, V = grid.mesh(sparse=patch.broadcasts)
    ff = reference_forms(patch, U, V, h)
    det = ff.E * ff.G - ff.F * ff.F
    kept = ~ff.degenerate
    num = np.abs(ff.e * ff.G - 2.0 * ff.f * ff.F + ff.g2 * ff.E)
    residual = np.where(kept, num / (2.0 * np.abs(np.where(kept, det, 1.0))),
                        0.0)
    Ub, Vb = np.broadcast_arrays(U, V)
    flagged = tuple((float(Ub[i, j]), float(Vb[i, j]))
                    for i, j in zip(*np.nonzero(~kept)))
    value = float(np.max(residual[kept])) if np.any(kept) else float("nan")
    xu, xv = _first_derivatives(patch, U, V, h)
    E, F, G = lorentz_dot(xu, xu), lorentz_dot(xu, xv), lorentz_dot(xv, xv)
    conformality = float(max(np.max(np.abs(E - G)), np.max(np.abs(F))))
    mask = (E > 0.0) & (E * G - F * F > 0.0)
    return ff, value, flagged, conformality, mask


def reference_normal(patch, u, h=1e-4):
    u = np.asarray(u, dtype=float)

    def derivs(step):
        xu = (patch(u + step, 0.0) - patch(u - step, 0.0)) / (2.0 * step)
        xv = (patch(u, step) - patch(u, -step)) / (2.0 * step)
        return xu, xv

    xu1, xv1 = derivs(h)
    xu2, xv2 = derivs(h / 2.0)
    n = lorentz_cross((4.0 * xu2 - xu1) / 3.0, (4.0 * xv2 - xv1) / 3.0)
    return n / np.sqrt(np.abs(lorentz_dot(n, n)))[..., None]


def reference_equivariance(patch, group, thetas, grid):
    U, V = grid.mesh(sparse=patch.broadcasts)
    base = patch(U, V)
    worst = 0.0
    for theta in thetas:
        moved = group.apply(theta, base)
        worst = max(worst, float(np.max(np.abs(moved - patch(U + theta, V)))))
    return worst


def default_surface(family):
    return cli.surface_from_config(cli.build_job_config({"family": family}))


def default_grid(family, n):
    info = catalog.FAMILY_INFO[family]
    return Grid.from_domain(info.verify_domain or info.domain, n, n)


def paraboloid():
    # Acceptance criterion 2's control: needs u and v of one shape.
    def graph(u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return np.stack([u, v, 0.3 * (u * u + v * v)], axis=-1)

    return SurfacePatch(func=graph, domain=(-1, 1, -1, 1), label="paraboloid")


def richardson_twin(patch):
    return dataclasses.replace(patch, analytic=False)


def assert_same_scans(patch, grid):
    ff, value, flagged, conformality, mask = reference_scans(patch, grid)
    stencil = verify.grid_stencil(patch, grid)
    forms = verify.fundamental_forms(patch, *grid.mesh(sparse=patch.broadcasts),
                                     degenerate_tol=1e-4)
    for name in ("E", "F", "G", "e", "f", "g2", "degenerate"):
        assert np.array_equal(getattr(forms, name), getattr(ff, name)), name
    for shared in (None, stencil):
        got = verify.mean_curvature_scan(patch, grid, stencil=shared)
        assert np.array_equal(got[0], value, equal_nan=True)
        assert got[1] == flagged
        assert verify.conformality_residual(patch, grid, stencil=shared) \
            == conformality
    assert np.array_equal(verify.spacelike_region(patch, grid), mask)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_catalog_scans_match_per_offset_reference(family, n):
    patch = richardson_twin(catalog.patch(default_surface(family)))
    assert patch.broadcasts
    assert_same_scans(patch, default_grid(family, n))


@pytest.mark.parametrize("n", SIZES)
def test_dense_patch_scans_match_per_offset_reference(n):
    assert_same_scans(paraboloid(), Grid(-1.0, 1.0, -1.0, 1.0, n, n))


def test_numeric_bjorling_patch_matches_per_offset_reference():
    surface = catalog.helicoidal_timelike(1.0, 0.6)
    numeric = solve_bjorling(catalog.bjorling_data_for(surface))
    assert not numeric.broadcasts
    assert_same_scans(numeric, Grid(-1.0, 1.0, -0.5, 0.5, 11, 9))
    u = np.linspace(-1.0, 1.0, 21)
    assert np.array_equal(bjorling.reference_normal(numeric, u),
                          reference_normal(numeric, u))


@pytest.mark.parametrize("patch", [
    richardson_twin(catalog.patch(catalog.bending_spacelike(1.3))),
    paraboloid(),
    solve_bjorling(catalog.bjorling_data_for(catalog.bending_timelike(0.7))),
], ids=["catalog", "paraboloid", "numeric"])
def test_zero_dimensional_forms_match_per_offset_reference(patch):
    u, v = np.array(0.3), np.array(-0.2)
    forms = verify.fundamental_forms(patch, u, v, degenerate_tol=1e-4)
    ref = reference_forms(patch, u, v)
    for name in ("E", "F", "G", "e", "f", "g2", "degenerate"):
        got = getattr(forms, name)
        assert np.shape(got) == () and np.array_equal(got, getattr(ref, name))


@pytest.mark.parametrize("family", [f for f in FAMILIES
                                    if catalog.FAMILY_INFO[f].curve])
def test_reference_normal_matches_per_offset_reference(family):
    patch = richardson_twin(catalog.patch(default_surface(family)))
    u = np.linspace(-1.0, 1.0, 21)
    assert np.array_equal(bjorling.reference_normal(patch, u),
                          reference_normal(patch, u))


def cubic(u, v):
    u, v = np.broadcast_arrays(u, v)
    return np.stack([u**3 - 3.0 * u * v * v, u * u * v, (u + 2.0 * v)**3],
                    axis=-1)


def test_complex_steps_give_exact_derivatives_of_a_cubic():
    patch = SurfacePatch(func=cubic, label="cubic", analytic=True)
    U, V = Grid(-1.0, 1.0, -1.0, 1.0, 21, 21).mesh()
    xu, xv, xuu, xuv, xvv, x = bjorling.derivatives(patch, U, V, 1e-3, True)
    zero, w = np.zeros_like(U), U + 2.0 * V
    exact = (np.stack([3.0 * (U * U - V * V), 2.0 * U * V, 3.0 * w * w], -1),
             np.stack([-6.0 * U * V, U * U, 6.0 * w * w], -1),
             np.stack([6.0 * U, 2.0 * V, 6.0 * w], -1),
             np.stack([-6.0 * V, 2.0 * U, 12.0 * w], -1),
             np.stack([-6.0 * U, zero, 24.0 * w], -1))
    # relative to the largest exact value, measured: 1.3e-16 on the
    # tangents and 1.0e-13 to 6.1e-13 on the second derivatives, whose
    # rounding grows as eps / h
    for got, want in zip((xu, xv, xuu, xuv, xvv), exact):
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    assert x.dtype == np.float64 and np.array_equal(x, cubic(U, V))


def surfaces_at(twists=(None, 2.3)):
    for family in FAMILIES:
        for a in twists:
            raw = {"family": family} if a is None else {"family": family,
                                                        "a": a}
            yield cli.surface_from_config(cli.build_job_config(raw))


@pytest.mark.parametrize("surface", list(surfaces_at()),
                         ids=lambda s: f"{s.family}-a{s.a:g}")
def test_complex_steps_agree_with_richardson_within_its_error(surface):
    patch = catalog.patch(surface)
    grid = default_grid(surface.family, 21)
    U, V = grid.mesh(sparse=True)
    steps = bjorling.derivatives(patch, U, V, 1e-3, True)
    coarse = bjorling.richardson(patch, U, V, 1e-3, True)
    fine = bjorling.richardson(patch, U, V, 5e-4, True)
    assert np.array_equal(steps[5], coarse[5])
    # Richardson's error, read as its change from h to h / 2, bounds the
    # distance between the two stencils: measured 0.1 to 0.7 of it
    for got, c, f in zip(steps[:5], coarse, fine):
        assert np.max(np.abs(got - c)) <= np.max(np.abs(f - c))
    if catalog.FAMILY_INFO[surface.family].curve:
        # X = Re of a holomorphic map of u + iv, so X_uu + X_vv = 0:
        # measured within 1.4e-12 of max |X_uu|, Richardson 2.0e-8
        laplace = np.max(np.abs(steps[2] + steps[4]))
        assert laplace < 1e-11 * np.max(np.abs(steps[2]))


@pytest.mark.parametrize("surface", list(surfaces_at()),
                         ids=lambda s: f"{s.family}-a{s.a:g}")
def test_complex_steps_give_the_same_bits_stacked_and_unstacked(surface):
    # 160x160 takes one unstacked call per offset, its first 7 rows all 8
    # offsets in one stacked call, where the u steps meet complex v
    patch = catalog.patch(surface)
    us, vs = default_grid(surface.family, 160).axes()
    full = bjorling.derivatives(patch, us[:, None], vs[None, :], 1e-3, True)
    rows = bjorling.derivatives(patch, us[:7, None], vs[None, :], 1e-3, True)
    for got, want in zip(rows, full):
        assert got.tobytes() == want[:7].tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("surface", list(surfaces_at((1.0, 2.3))),
                         ids=lambda s: f"{s.family}-a{s.a:g}")
def test_complex_steps_give_the_same_bits_on_sparse_and_dense_meshes(surface,
                                                                    n):
    patch = catalog.patch(surface)
    dense = dataclasses.replace(patch, broadcasts=False)
    grid = default_grid(surface.family, n)
    sparse = bjorling.derivatives(patch, *grid.mesh(sparse=True), 1e-3, True)
    full = bjorling.derivatives(dense, *grid.mesh(), 1e-3, True)
    for got, want in zip(sparse, full):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", [f for f in FAMILIES
                                    if catalog.FAMILY_INFO[f].group])
def test_equivariance_matches_per_offset_reference(family, n):
    surface = default_surface(family)
    patch = catalog.patch(surface)
    group = catalog.FAMILY_INFO[family].group(surface)
    thetas = (-1.0, -0.3, 0.3, 1.0)
    grid = default_grid(family, n)
    rep = verify.equivariance(patch, group, thetas, grid)
    assert rep.checks[0].residual == reference_equivariance(patch, group,
                                                            thetas, grid)


class Counting:
    """A patch wrapper that records the (u, v) shapes of each call."""

    def __init__(self, patch):
        self.shapes = []
        self.patch = SurfacePatch(func=self._call, domain=patch.domain,
                                  label=patch.label,
                                  broadcasts=patch.broadcasts)
        self._inner = patch

    def _call(self, u, v):
        self.shapes.append((np.shape(u), np.shape(v)))
        return self._inner(u, v)


def test_default_verify_evaluates_the_grid_stencil_in_one_call(monkeypatch,
                                                               capsys):
    made = []
    patch_for = cli._patch_for

    def counting_patch_for(surface, cfg):
        made.append(Counting(patch_for(surface, cfg)))
        return made[-1].patch

    monkeypatch.setattr(cli, "_patch_for", counting_patch_for)
    assert cli.main(["verify", "--family", "bending-timelike",
                     "--suite", "h"]) == 0
    assert "PASS mean-curvature" in capsys.readouterr().out
    # All 17 offsets of the 21x21 sparse mesh, stacked on a leading axis.
    assert made[0].shapes == [((17, 21, 1), (17, 1, 21))]
    # The per-offset loops made 25 calls for mean curvature and 8 for
    # conformality.
    ref = Counting(catalog.patch(catalog.bending_timelike(1.0)))
    reference_scans(ref.patch, default_grid("bending-timelike", 21))
    assert len(ref.shapes) == 33


def test_large_mask_makes_one_unstacked_call_per_offset():
    counting = Counting(catalog.patch(catalog.bending_timelike(1.0)))
    mask = verify.spacelike_region(counting.patch, Grid(-1, 1, -1, 1, 160, 160))
    assert mask.shape == (160, 160)
    # Row blocks of 8192 // 160 = 51 rows: three blocks of 8 160 nodes, one
    # unstacked call per offset each, then 7 rows, 7 offsets per call.
    assert counting.shapes == [((51, 1), (1, 160))] * 24 + [
        ((7, 7, 1), (7, 1, 160)), ((1, 7, 1), (1, 1, 160))]


def test_mid_size_stencil_stacks_as_many_offsets_as_fit_a_pass():
    counting = Counting(catalog.patch(catalog.bending_timelike(1.0)))
    verify.grid_stencil(counting.patch, Grid(-1, 1, -1, 1, 40, 40))
    # 8192 // 1600 = 5 shifted meshes per call; 17 = 5 + 5 + 5 + 2.
    assert counting.shapes == [((5, 40, 1), (5, 1, 40))] * 3 + [
        ((2, 40, 1), (2, 1, 40))]


def test_sample_grid_mask_stacks_its_eight_offsets():
    counting = Counting(catalog.patch(catalog.bending_timelike(1.0)))
    verify.spacelike_region(counting.patch, Grid(-1, 1, -1, 1, 64, 16))
    assert counting.shapes == [((8, 64, 1), (8, 1, 16))]


def test_verify_refuses_a_non_finite_grid(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = cli.main([
        "verify", "--family", "bending-timelike", "--suite", "h",
        "--report", str(report), "--set",
        'grid={"u_min":700,"u_max":720,"v_min":-1,"v_max":1,"nu":3,"nv":3}'])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite coordinates at grid node [1, 0]" in err
    assert "(u, v) = (710.0, -1.0)" in err
    assert not report.exists()
