"""Complex-step tangents of the closed-form patches.

Every catalog family is holomorphic in u and in v, so its evaluator takes
complex input and bjorling.derivatives may read the first derivatives off
the imaginary part of one complex step, X_u = Im X(u + i eps, v) / eps.
These tests hold the evaluators to that, hold the tangents to the
Richardson stencil they stand in for, hold the spacelike mask of every
golden sample grid to the one the Richardson stencil gives, and count
which patches still reach the Richardson stencil.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from maxsurf import bjorling, catalog, cli, verify
from maxsurf.bjorling import solve_bjorling
from maxsurf.verify import Grid

# The lambdas of the golden verify reports besides the defaults
# (tools/golden.py).
OTHER_LAMBDA = {
    catalog.HELICOIDAL_TIMELIKE: 0.3,
    catalog.HELICOIDAL_SPACELIKE_I: 1.5,
    catalog.HELICOIDAL_SPACELIKE_II: 0.5,
    catalog.HELICOIDAL_TIMELIKE_CONSTANT: 0.3,
}
# Largest |complex step - Richardson at h = 1e-3| over the largest tangent
# component, on a 21x21 grid of each family's sample and verify domains:
# 7.1e-13 measured, on helicoidal-spacelike-i at a = 2.3.  It is the
# rounding of the Richardson stencil, which changes by about twice as much
# between h = 1e-3 and h = 5e-4.
TANGENT_RTOL = 2e-12


def _surfaces():
    for fam in catalog.FAMILY_INFO:
        for a in (None, 2.3):
            for lam in (None, OTHER_LAMBDA.get(fam)):
                raw = {"family": fam}
                if a is not None:
                    raw["a"] = a
                if lam is not None:
                    raw["lambda"] = lam
                yield cli.surface_from_config(cli.build_job_config(raw))


SURFACES = list(dict.fromkeys(_surfaces()))


def _sample_grids():
    """(surface, grid) of every `sample` run that tools/golden.py makes."""
    for fam in catalog.FAMILY_INFO:
        for a in (None, 2.3):
            cfg = cli.build_job_config(
                {"family": fam} if a is None else {"family": fam, "a": a})
            yield (cli.surface_from_config(cfg),
                   cli._default_grid(cfg, fam, for_sample=True))
    yield catalog.lightlike_rotational(0.0), Grid(-1, 1, 0, 1, 400, 50)


def _richardson_twin(patch):
    return dataclasses.replace(patch, analytic=False)


@pytest.mark.parametrize("surface", SURFACES,
                         ids=lambda s: f"{s.family}-a{s.a:g}-lam{s.lam:g}")
def test_evaluators_take_complex_steps(surface):
    info = catalog.FAMILY_INFO[surface.family]
    patch = catalog.patch(surface)
    assert patch.analytic
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for domain in {info.domain, info.verify_domain or info.domain}:
            U, V = Grid.from_domain(domain, 21, 21).mesh(sparse=True)
            real = catalog.eval_surface(surface, U, V)
            assert real.dtype == np.float64 and real.shape == (21, 21, 3)
            for du, dv in ((1e-20j, 0.0), (0.0, 1e-20j), (0.5j, -0.25j)):
                shifted = catalog.eval_surface(surface, U + du, V + dv)
                assert shifted.dtype == np.complex128
                assert np.all(np.isfinite(shifted))
            steps = bjorling.derivatives(patch, U, V, 1e-3)
            ref = bjorling.richardson(patch, U, V, 1e-3)
            scale = max(np.max(np.abs(t)) for t in ref)
            for got, want in zip(steps, ref):
                assert got.dtype == np.float64
                assert np.max(np.abs(got - want)) <= TANGENT_RTOL * scale


def test_eval_surface_keeps_the_bits_of_real_input():
    surface = catalog.bending_spacelike(2.0)
    u = np.linspace(-1.2, 1.2, 7, dtype=np.float32)
    v = [0, 1, 2, 3, 4, 5, 6]
    got = catalog.eval_surface(surface, u, v)
    want = catalog.eval_surface(surface, u.astype(float),
                                np.arange(7, dtype=float))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("surface,grid", list(_sample_grids()),
                         ids=lambda x: getattr(x, "family", None))
def test_mask_matches_richardson_on_the_golden_sample_grids(surface, grid):
    patch = catalog.patch(surface)
    mask = verify.spacelike_region(patch, grid)
    assert np.array_equal(mask,
                          verify.spacelike_region(_richardson_twin(patch),
                                                  grid))
    if surface.family == catalog.LIGHTLIKE_ROTATIONAL and grid.nu == 400:
        # the v = 1 row is flagged, and only that row
        assert not mask[:, -1].any() and mask[:, :-1].all()


class _Calls:
    def __init__(self, patch):
        self.shapes = []
        self.patch = dataclasses.replace(patch, func=self._call)
        self._inner = patch.func

    def _call(self, u, v):
        self.shapes.append((np.shape(u), np.any(np.imag(u) != 0.0),
                            np.any(np.imag(v) != 0.0)))
        return self._inner(u, v)


def test_mask_takes_two_complex_calls_per_row_block(monkeypatch):
    richardson = []
    monkeypatch.setattr(bjorling, "richardson",
                        lambda *args: richardson.append(args))
    calls = _Calls(catalog.patch(catalog.bending_timelike(1.0)))
    mask = verify.spacelike_region(calls.patch, Grid(-1, 1, -1, 1, 160, 160))
    assert mask.shape == (160, 160) and not richardson
    # Row blocks of 8192 // 160 = 51 rows: a step in u, then a step in v,
    # each on one unstacked sparse mesh; then 7 rows, both steps stacked.
    assert calls.shapes == [((51, 1), True, False), ((51, 1), False, True)] \
        * 3 + [((2, 7, 1), True, True)]


def _count_richardson(monkeypatch):
    calls = []
    richardson = bjorling.richardson

    def counting(*args):
        calls.append(args)
        return richardson(*args)

    monkeypatch.setattr(bjorling, "richardson", counting)
    return calls


@pytest.mark.parametrize("kind", ["perturb", "bjorling", "tiny-twist"])
def test_other_patches_keep_the_richardson_stencil(monkeypatch, kind):
    if kind == "perturb":
        cfg = cli.build_job_config({"family": "bending-timelike",
                                    "perturb": 0.01})
        patch = cli._patch_for(catalog.bending_timelike(1.0), cfg)
    elif kind == "bjorling":
        patch = solve_bjorling(catalog.bjorling_data_for(
            catalog.bending_timelike(1.0)))
    else:
        # a * eps would underflow, so the patch is not declared analytic
        patch = catalog.patch(catalog.bending_spacelike(1e-300))
    assert not patch.analytic
    calls = _count_richardson(monkeypatch)
    grid = Grid(-1, 1, -0.3, 0.3, 6, 5)
    mask = verify.spacelike_region(patch, grid)
    assert len(calls) == 1 and mask.all()
    # the shared grid stencil, the forms and the reference normal, by the
    # `second` flag of each call
    assert len(verify.grid_stencil(patch, grid)) == 6
    verify.fundamental_forms(patch, 0.3, -0.2)
    bjorling.reference_normal(patch, np.linspace(-0.5, 0.5, 3))
    assert [args[-1] for args in calls] == [False, True, True, False]


@pytest.mark.parametrize("family", list(catalog.FAMILY_INFO))
def test_catalog_verify_never_reaches_richardson(monkeypatch, capsys, family):
    calls = _count_richardson(monkeypatch)
    assert cli.main(["verify", "--family", family, "--suite", "all"]) in (0, 1)
    assert "mean-curvature" in capsys.readouterr().out and not calls
