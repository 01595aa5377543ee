"""Numerical construction of surface patches from curve plus normal field."""

import dataclasses
import json
import re
import sys
import threading
import warnings

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
                           np.ones_like(np.asarray(z, complex))))))


def test_gauss_legendre_segment_integral_is_machine_accurate():
    z = 1.0 + 1.0j
    value = segment_integral(_exp_data().integrand, np.array(z))
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
    """One plain Gauss-Legendre pass of `nodes` nodes from 0 to z."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    pts = 0.5 * (x + 1.0) * z[..., None]
    vals = lorentz_cross(data.normal_field(pts), data.alpha.d(pts))
    return z[..., None] * np.einsum("k,...kj->...j", 0.5 * w, vals)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(NODES)


def _lattice_point(integrand, z):
    """The lattice rule at the single point z, as a loop over the panels of
    its path: unit panels from 0 along the real axis to Re z, then from Re z
    along its column to z, each integrated alone by the NODES-node rule and
    summed from 0 outward, and, where z is not on a lattice line, the last
    panel's Legendre interpolant integrated from the panel's start to z.
    Panels that need halving are outside its scope."""
    s, wt = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W
    anti = 0.5 * (np.polynomial.legendre.legvander(_GL_X, NODES - 1)
                  * wt[:, None]).T
    legs = []
    for upright, length, column in ((False, z.real, 0.0),
                                    (True, z.imag, z.real)):
        sign = -1.0 if np.signbit(length) else 1.0
        h = np.where(upright, 1j, 1.0) * (sign * 1.0)

        def panel_values(k):
            pos = sign * (k + s)
            w = np.empty(NODES, dtype=complex)
            w.real, w.imag = (column, pos) if upright else (pos, 0.0)
            return integrand(w)

        whole = int(np.floor(abs(length)))
        full = np.zeros(3, dtype=complex)
        for k in range(whole):
            panel = h * np.einsum("k,kj->j", wt, panel_values(k))
            full = panel if k == 0 else panel + full
        part = np.zeros(3, dtype=complex)
        t = abs(length) - whole
        if t > 0.0:
            p = np.polynomial.legendre.legvander(2.0 * t - 1.0, NODES)[0]
            j = p[1:] - np.concatenate([-p[:1], p[:-2]])
            vals = panel_values(whole)
            part += h * np.einsum(
                "k,jk->j", np.einsum("n,nk->k", j, anti),
                np.ascontiguousarray(vals.view(float).T)).view(complex)
        legs.append(full + part)
    return legs[0] + legs[1]


def _lattice_reference(integrand, z):
    return np.array([_lattice_point(integrand, p) for p in z.reshape(-1)]
                    ).reshape(z.shape + (3,))


def test_near_axis_points_get_the_lattice_rule_bit_for_bit():
    # each point keeps exactly the bytes of its own panels, integrated one
    # by one: sharing the panels between points changes no bit
    for data, z in _near_axis_cases():
        assert np.array_equal(segment_integral(data.integrand, z),
                              _lattice_reference(data.integrand, z))


def test_near_axis_points_agree_with_a_96_node_straight_pass():
    for data, z in _near_axis_cases():
        got = segment_integral(data.integrand, z)
        assert (np.max(np.abs(got - _plain_pass(data, z, 96)))
                <= 1e-13 * np.max(np.abs(got)))


@pytest.mark.parametrize("points", [1 << 16, 48])
def test_pass_size_does_not_change_the_solve(monkeypatch, no_plans, points):
    # every value is computed pointwise, so the split into passes changes no
    # bit: 40x40 points of six families and far points of e^z take several
    # passes of the default size, and points up a column of an oscillating
    # field, redone on finer lattices, are split differently in those
    # rounds too.  At 48 points a pass holds one panel, in every round.
    U, V = np.meshgrid(np.linspace(-1, 1, 40), np.linspace(-3, 3, 40),
                       indexing="ij")
    cases = [(catalog.bjorling_data_for(s), U + 1j * V)
             for s in NEAR_SURFACES]
    far = np.linspace(-1, 1, 20)[:, None] + 1j * np.linspace(50, 300, 20)
    cases.append((_exp_data(), far))
    cases.append((_exp_data(_oscillating_column),
                  np.array([[-1.5 + 0.8j, 0.3 + 0.4j],
                            [-1.5 + 1.7j, 20.0 - 0.9j]])))
    assert U.size * NODES > bjorling._PASS_POINTS
    assert points < 2 * NODES or points > U.size * NODES
    if points < 2 * NODES:
        # one point per pass: keep the case short
        cases = [(data, z[::8, ::8]) for data, z in cases]
    default = [segment_integral(data.integrand, z) for data, z in cases]
    monkeypatch.setattr(bjorling, "_PASS_POINTS", points)
    # plans are split into passes when they are built: start from none
    no_plans.cache_clear()
    for (data, z), got in zip(cases, default):
        assert np.array_equal(segment_integral(data.integrand, z), got)


@pytest.mark.parametrize("partials", [1, 7])
def test_partial_panel_chunks_do_not_change_the_solve(monkeypatch, no_plans,
                                                      partials):
    # partial panels taken one by one are integrated in chunks of a pass's
    # rows, each pointwise, so the chunk size changes no bit: 1 and 7 rows
    monkeypatch.setattr(bjorling, "_TABLE_RATIO", 0)
    U, V = np.meshgrid(np.linspace(-1.7, 1.7, 15), np.linspace(-2.5, 2.5, 9),
                       indexing="ij")
    cases = [(catalog.bjorling_data_for(s), U + 1j * V)
             for s in NEAR_SURFACES[:3]]
    default = [segment_integral(data.integrand, z) for data, z in cases]
    monkeypatch.setattr(bjorling, "_PASS_POINTS", partials * NODES)
    # the plan's rows and weights are formed when it is built: start from
    # no plans
    no_plans.cache_clear()
    for (data, z), got in zip(cases, default):
        assert np.array_equal(segment_integral(data.integrand, z), got)


@pytest.fixture
def einsums(monkeypatch):
    """The subscripts of every np.einsum call, in order."""
    calls, einsum = [], np.einsum

    def recording(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    return calls


def _grid(half_u, half_v, nu, nv):
    U, V = np.meshgrid(np.linspace(-half_u, half_u, nu),
                       np.linspace(-half_v, half_v, nv), indexing="ij")
    return U + 1j * V


_TABLE, _ONE_BY_ONE = "pjk,tk->pjt", "lk,ljk->lj"
# Point sets with partial panels, the path each takes by default, and an
# integrand: the benchmark's near grid and verify's 21x21 grid (1.4 and
# 1.8 table entries per partial panel), a 21x21 grid on [-3, 3]^2 (4.7),
# 1024 scattered points (257 and more) and the oscillating column's
# points, which take refinement rounds.
PARTIAL_PANEL_SETS = {
    "near 32x32": (_grid(1, 1, 32, 32), _TABLE, 0),
    "verify 21x21": (_grid(1, 1, 21, 21), _TABLE, 1),
    "21x21 on [-3, 3]^2": (_grid(3, 3, 21, 21), _ONE_BY_ONE, 2),
    "1024 scattered": (np.random.default_rng(23).uniform(-1, 1, 1024)
                       + 1j * np.random.default_rng(29).uniform(-1, 1, 1024),
                       _ONE_BY_ONE, 0),
    "oscillating column": (np.array([-1.5 + 0.8j, 0.3 + 0.4j, -1.5 + 1.7j,
                                     20.0 - 0.9j]), _ONE_BY_ONE, None),
}


@pytest.mark.parametrize("name", PARTIAL_PANEL_SETS)
def test_both_partial_panel_paths_give_the_same_bits(monkeypatch, einsums,
                                                     name):
    # a pass integrates its partial panels as one table, or one by one
    # when the table has more than _TABLE_RATIO entries per partial panel:
    # both paths, forced by the ratio, give the bits of the default solve
    z, path, surface = PARTIAL_PANEL_SETS[name]
    integrand = (_exp_data(_oscillating_column) if surface is None
                 else catalog.bjorling_data_for(NEAR_SURFACES[surface])
                 ).integrand
    solved = segment_integral(integrand, z)
    assert path in einsums
    for ratio, taken, other in ((0, _ONE_BY_ONE, _TABLE),
                                (np.inf, _TABLE, _ONE_BY_ONE)):
        monkeypatch.setattr(bjorling, "_TABLE_RATIO", ratio)
        einsums.clear()
        assert np.array_equal(segment_integral(integrand, z), solved), ratio
        assert taken in einsums and other not in einsums


def test_near_grid_points_solved_alone_keep_the_bits_of_the_grid():
    # the grid takes the table product of its 66 panels at 21 fractions; a
    # point alone takes a table of its own two panels
    z = _grid(1, 1, 32, 32).reshape(-1)
    integrand = catalog.bjorling_data_for(NEAR_SURFACES[0]).integrand
    together = segment_integral(integrand, z)
    for k, p in enumerate(z):
        assert np.array_equal(segment_integral(integrand, np.array(p)),
                              together[k]), p


def _spanning(w, out=None):
    """Values from e^-5 to e^5 in size, of every sign and phase, that vary
    slowly enough along a path for unit panels."""
    t = w.real + w.imag
    vals = np.stack([np.exp(5.0 * np.sin(0.4 * t + c) + 0.9j * (t - c))
                     for c in (0.0, 2.0, 4.0)], axis=-1)
    if out is None:
        return vals
    out[...] = vals
    return out


@pytest.mark.parametrize("z,panels", [
    (np.array(1.0 + 0j), 1), (np.array(7.0 + 0j), 7),
    (_grid(1, 1, 32, 32), 66), (np.array(256j), 256)])
def test_panel_means_keep_the_bits_of_the_complex_mean(z, panels):
    # a pass takes each panel's Gauss-Legendre mean on the real planes of
    # its values; the lattice rule takes it panel by panel with the complex
    # einsum: passes of 1, 7, 66 and 256 panels of values from e^-5 to e^5
    # give the same bits
    sizes = []

    def recording(w, out):
        sizes.append(np.abs(_spanning(w, out)))
        return out

    got = segment_integral(recording, z)
    assert [s.shape[:2] for s in sizes] == [(panels, NODES)]
    assert sizes[0].min() < np.exp(-3.5) and sizes[0].max() > np.exp(3.5)
    assert np.array_equal(got, _lattice_reference(_spanning, z))


BJORLING_FAMILIES = [f for f, info in catalog.FAMILY_INFO.items()
                     if info.curve is not None]


def _bjorling_surface(family, a):
    info = catalog.FAMILY_INFO[family]
    lam = {p.name: p.default for p in info.params}.get("lam") or 0.0
    return catalog.CatalogSurface(family, a=a, lam=lam)


# Each family with twist rates of its range: a = 0 for the constant twists.
TWIST_CASES = [(family, a) for family in BJORLING_FAMILIES
               for a in (0.0, 0.3, 1.0, 1.7)
               if a > 0.0 or catalog.FAMILY_INFO[family].twist == "constant"]


@pytest.mark.parametrize("family,a", TWIST_CASES)
def test_frame_integrand_matches_the_cross_product(family, a):
    # the integrand from the frame identity V x alpha' = eps mu (q n + p b)
    # against the cross product of the maps themselves on |z| <= 3
    rng = np.random.default_rng(3)
    z = rng.uniform(-3.0, 3.0, 600) + 1j * rng.uniform(-3.0, 3.0, 600)
    z = z[np.abs(z) <= 3.0]
    data = catalog.bjorling_data_for(_bjorling_surface(family, a))
    got = data.integrand(z)
    cross = lorentz_cross(data.normal_field(z), data.alpha.d(z))
    assert np.max(np.abs(got - cross)) <= 1e-13 * np.max(np.abs(cross))
    out = np.empty_like(got)
    assert data.integrand(z, out=out) is out
    assert np.array_equal(out, got)


_SPACELIKE_AXIS = (frames.CIRCLE_SPACELIKE, frames.HELIX_SPACELIKE_I,
                   frames.HELIX_SPACELIKE_II)


@pytest.mark.parametrize("family", BJORLING_FAMILIES)
def test_far_points_solve_to_the_closed_form(family):
    # far from the real axis, and along it for the spacelike-axis curves,
    # where the kernels grow like e^|v| or e^|u|: nothing cancels in the
    # frame integrand, so each displacement X(z) - X(u) is within 1e-13 of
    # the closed form, relative to 1 + max |X(z)|
    u, v = np.meshgrid([0.0, 0.7, -2.3], [8.5, 12.5, 20.5, 30.5])
    u, v = u.ravel(), v.ravel()
    if catalog.FAMILY_INFO[family].curve in _SPACELIKE_AXIS:
        u = np.concatenate([u, [8.5, 10.5, 12.5, 20.5]])
        v = np.concatenate([v, np.full(4, 0.3)])
    surface = _bjorling_surface(family, 1.0)
    points = np.stack([u, u]), np.stack([np.zeros_like(v), v])
    solved = solve_bjorling(catalog.bjorling_data_for(surface))(*points)
    exact = catalog.patch(surface)(*points)
    err = np.max(np.abs((solved[1] - solved[0]) - (exact[1] - exact[0])),
                 axis=-1) / (1.0 + np.max(np.abs(exact[1]), axis=-1))
    assert np.max(err) <= 1e-13


def test_a_nearly_lightlike_helix_solves_at_once():
    # lam = 1 - 1e-12 makes the binormal's terms about 7e5 in size; the
    # frame integrand scales them back by mu, and a 21x21 grid on
    # [-1, 1]^2 solves to the closed form within 1e-13
    surface = catalog.helicoidal_timelike(1.0, 1.0 - 1e-12)
    U, V = np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21),
                       indexing="ij")
    solved = solve_bjorling(catalog.bjorling_data_for(surface))(U, V)
    exact = catalog.patch(surface)(U, V)
    assert np.max(np.abs(solved - exact)) <= 1e-13 * (1.0 + np.max(
        np.abs(exact)))


def test_a_swapped_normal_field_is_evaluated():
    # a counting field swapped in by dataclasses.replace sees every node
    # of the near-axis pass: the solve is the lattice rule of the cross
    # product, within rounding of the frame integrand's solve
    for data, z in _near_axis_cases():
        counts = []
        field = data.normal_field

        def counting(w):
            counts.append(np.size(w))
            return field(w)

        swapped = dataclasses.replace(
            data, normal_field=AnalyticMap(counting, field.deriv))
        got = segment_integral(swapped.integrand, z)
        # 12 columns with points above and below the real axis, none at
        # u = 0: one panel each way along the axis and up and down each
        # column
        assert sum(counts) == (2 + 2 * 12) * NODES
        assert np.array_equal(got, _lattice_reference(swapped.integrand, z))
        frame = segment_integral(data.integrand, z)
        assert np.max(np.abs(got - frame)) <= 1e-14 * np.max(np.abs(frame))


def test_a_swapped_curve_is_evaluated():
    # another family's curve under the same normal field changes the
    # integrand: the solve is the generic pass of the swapped maps
    data, z = _near_axis_cases()[0]
    other = catalog.bjorling_data_for(catalog.bending_spacelike(0.7))
    swapped = dataclasses.replace(data, alpha=other.alpha)
    got = segment_integral(swapped.integrand, z)
    assert not np.array_equal(got, segment_integral(data.integrand, z))
    assert np.array_equal(got, _lattice_reference(swapped.integrand, z))


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
    segment_integral(data.integrand, near)
    # one pass: a panel each way along the real axis, and one up or down
    # the column of each point off it (sin pi and sin 2 pi round to
    # +3.7e-17 and -7.3e-17, so six points are off it, each with its own
    # column and side)
    assert counts == [(2 + 6) * NODES]
    counts.clear()
    z = 300j
    value = segment_integral(data.integrand, np.array(z))
    # V x alpha' = (0, e^w, 0) for V = (0, 0, 1), alpha' = (e^w, 0, 0)
    exact = np.exp(z) - 1.0
    assert abs(value[1] - exact) <= 1e-11 * abs(exact)
    # 300 unit panels up the imaginary axis, in passes of _PASS_POINTS
    assert sum(counts) == 300 * NODES
    assert max(counts) <= bjorling._PASS_POINTS


@pytest.mark.parametrize("axis", ["real", "column"])
def test_non_finite_integrand_raises_at_its_point(axis):
    # NaN beyond 1.5 along the real axis, or up the columns: the panel from
    # 1 to 2 (1j to 2j) is not finite; of the two points whose paths cross
    # it, the first is named, with its path and its NaN estimate
    if axis == "real":
        nan_where = lambda w: w.real > 1.5  # noqa: E731
        z = np.array([0.5 + 0.5j, -0.3 + 0.1j, 2.0 + 0.1j, 1.8 - 0.2j])
    else:
        nan_where = lambda w: w.imag > 1.5  # noqa: E731
        z = np.array([0.5 + 0.5j, -0.3 + 0.1j, 0.2 + 2.0j, 0.2 + 1.8j])
    data = _exp_data(_counting_normal([], nan_where=nan_where))
    with pytest.raises(QuadratureError) as info:
        segment_integral(data.integrand, z)
    err = info.value
    assert err.z == z[2]
    assert np.isnan(err.estimate) and np.isnan(err.tol)
    message = str(err)
    assert str(z[2]) in message
    assert "on its 3 lattice panel(s) of 1 piece(s) each" in message


@pytest.mark.parametrize("axis,tol", [("real", np.nan), ("column", np.inf)])
def test_infinite_integrand_raises_at_its_point(axis, tol):
    # an integrand that is infinite, not NaN, beyond 1.5: the same point is
    # named with a NaN estimate.  Its tolerance follows the size of its
    # integral.  Along the real axis the partial panel up its column sums
    # inf - inf, so the tolerance is NaN.  Up a column its last full
    # panel's mean, taken on the real planes, is inf + 0i, which the step i
    # makes NaN + inf i, of infinite size, so the tolerance is infinite
    # (the complex mean, inf + NaN i from 0 * inf, made it NaN)
    def integrand(w, out):
        beyond = (w.real if axis == "real" else w.imag) > 1.5
        out[...] = np.where(beyond, np.inf, np.exp(w))[..., None]
        return out

    z = (np.array([0.5 + 0.5j, -0.3 + 0.1j, 2.0 + 0.1j, 1.8 - 0.2j])
         if axis == "real"
         else np.array([0.5 + 0.5j, -0.3 + 0.1j, 0.2 + 2.0j, 0.2 + 1.8j]))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(QuadratureError) as info:
            segment_integral(integrand, z)
    assert info.value.z == z[2]
    assert np.isnan(info.value.estimate)
    assert np.array_equal(info.value.tol, tol, equal_nan=True)


def _unresolved_case():
    """A normal field that oscillates 1e5 / (2 pi) times per unit up the
    columns left of the imaginary axis, counting the points it is asked
    for into the returned list, and four points, three of them left of 0:
    no path through such a column is resolved by 1024 panels of NODES
    nodes."""
    def field(w):
        third = np.where(w.real < 0.0, np.exp(1e5j * w.imag), 1.0)
        zero = np.zeros_like(w)
        return vec3(zero, zero, third + zero)

    counts = []
    data = dataclasses.replace(_exp_data(field), normal_field=AnalyticMap(
        lambda w: (counts.append(np.size(w)), field(w))[1], None))
    z = np.array([0.5 + 0.5j, -0.5 + 0.5j, -0.5 + 0.7j, -0.2 + 0.1j])
    return data, z, counts


def test_panel_cap_raises_with_point_estimate_and_tolerance():
    # the first point whose path misses is named when its panels, on the
    # finest lattice, reach the cap: 2 lattice panels of 512 pieces
    data, z, counts = _unresolved_case()
    with pytest.raises(QuadratureError) as info:
        segment_integral(data.integrand, z)
    err = info.value
    assert err.z == z[1]
    assert np.isfinite(err.estimate) and err.estimate > err.tol > 0.0
    message = str(err)
    assert str(z[1]) in message
    assert "on its 2 lattice panel(s) of 512 piece(s) each" in message
    assert "at most 1024 pieces along a path" in message
    assert f"{err.estimate:.3g}" in message and f"{err.tol:.3g}" in message
    # the first round takes the 5 unit panels of the four paths (two points
    # share the column Re z = -0.5); the round on the lattice of 1 / p the
    # panel length takes the ceil(0.5 p) panels of the negative real axis
    # out to Re z = -0.5, and the ceil(0.7 p) and ceil(0.1 p) panels up the
    # columns Re z = -0.5 and -0.2:
    #   p = 2: 1 + 2 + 1 = 4        p = 32: 16 + 23 + 4 = 43
    #   p = 4: 2 + 3 + 1 = 6        p = 64: 32 + 45 + 7 = 84
    #   p = 8: 4 + 6 + 1 = 11       p = 128: 64 + 90 + 13 = 167
    #   p = 16: 8 + 12 + 2 = 22     p = 256: 128 + 180 + 26 = 334
    #                               p = 512: 256 + 359 + 52 = 667
    assert sum(counts) == (5 + 4 + 6 + 11 + 22 + 43 + 84 + 167 + 334
                           + 667) * NODES == 42976


def test_refined_rounds_keep_integrand_calls_within_a_pass():
    # every round integrates whole panels of the finer lattice in passes of
    # _PASS_POINTS nodes: the round of 667 panels at 1 / 512 the panel
    # length takes two full passes and one of 155 panels
    data, z, counts = _unresolved_case()
    with pytest.raises(QuadratureError):
        segment_integral(data.integrand, z)
    assert max(counts) <= bjorling._PASS_POINTS
    assert counts[-3:] == [bjorling._PASS_POINTS] * 2 + [155 * NODES]


def test_path_cap_refuses_a_point_before_any_evaluation():
    # a path crosses at most 1024 lattice panels: 24 along the real axis and
    # 1000 up its column are integrated, half a panel more is refused,
    # naming the first such point, before the integrand is evaluated
    counts = []
    data = _exp_data(_counting_normal(counts))
    value = segment_integral(data.integrand, np.array(24.0 + 1000j))
    assert np.all(np.isfinite(value))
    assert sum(counts) == 1024 * NODES
    counts.clear()
    z = np.array([0.5j, 24.5 + 1000j, 1e5j])
    with pytest.raises(QuadratureError) as info:
        segment_integral(data.integrand, z)
    assert counts == []
    err = info.value
    assert err.z == z[1] and err.estimate is None and err.tol is None
    message = str(err)
    assert str(z[1]) in message
    assert "crosses 1025 lattice panels, more than 1024" in message


NON_FINITE = [complex(np.nan, 0.5), complex(np.inf, 0.5),
              complex(-np.inf, 0.5), complex(0.5, np.nan),
              complex(0.5, np.inf), complex(0.5, -np.inf)]


@pytest.mark.parametrize("bad", NON_FINITE, ids=str)
def test_non_finite_point_is_refused_before_any_evaluation(bad):
    # through segment_integral and solve_bjorling alike: QuadratureError
    # names the first non-finite point, and numpy warns about nothing
    counts = []
    data = _exp_data(_counting_normal(counts))
    z = np.array([0.5 + 0.5j, bad, complex(np.nan, np.nan), 0.1j])
    patch = solve_bjorling(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: segment_integral(data.integrand, z),
                      lambda: patch(z.real, z.imag)):
            with pytest.raises(QuadratureError) as info:
                solve()
            assert np.array_equal(info.value.z, bad, equal_nan=True)
            assert str(bad) in str(info.value)
            assert info.value.estimate is None
    assert counts == []


def test_bench_near_grid_takes_66_panels():
    # 32 columns of 32 points on [-1, 1]^2: one panel each way along the
    # real axis and up and down each column, 2 112 evaluations for 1 024
    # points where one pass per point took 32 768
    counts = []
    data = catalog.bjorling_data_for(catalog.bending_timelike(1.3))
    field = data.normal_field
    swapped = dataclasses.replace(data, normal_field=AnalyticMap(
        lambda w: (counts.append(np.size(w)), field(w))[1], field.deriv))
    U, V = np.meshgrid(np.linspace(-1, 1, 32), np.linspace(-1, 1, 32),
                       indexing="ij")
    solve_bjorling(swapped)(U, V)
    assert sum(counts) == 66 * NODES == 2112


def _oscillating_column(w):
    """Normal field (0, 0, e^{30 i Im w}) on the column Re w = -1.5 and
    (0, 0, 1) elsewhere."""
    third = np.where(w.real == -1.5, np.exp(30j * w.imag), 1.0)
    zero = np.zeros_like(w)
    return vec3(zero, zero, third + zero)


def test_a_refined_path_leaves_other_points_bits():
    # a normal field that oscillates 31 / (2 pi) times per unit up the
    # column Re z = -1.5 only: its points are redone on halved panels, to
    # their own tolerance, while every point keeps the bits it gets alone,
    # next to a point whose integral is 5e8 times larger
    counts = []
    data = _exp_data(_oscillating_column)
    swapped = dataclasses.replace(data, normal_field=AnalyticMap(
        lambda w: (counts.append(np.size(w)), _oscillating_column(w))[1],
        None))
    z = np.array([-1.5 + 0.8j, 0.3 + 0.4j, -1.5 + 1.7j, 20.0 - 0.9j])
    together = segment_integral(swapped.integrand, z)
    assert sum(counts) > 26 * NODES  # 26 unit panels in the first round
    for k, p in enumerate(z):
        assert np.array_equal(together[k],
                              segment_integral(data.integrand, np.array(p)))
    # V x alpha' = (0, phi e^w, 0): e^x - 1 along the axis, then
    # e^x (e^{31 i y} - 1) / 31 up the column
    x, y = z[[0, 2]].real, z[[0, 2]].imag
    exact = np.exp(x) - 1.0 + np.exp(x) * (np.exp(31j * y) - 1.0) / 31.0
    assert np.max(np.abs(together[[0, 2], 1] - exact)) <= 1e-11


def test_a_fast_twist_is_refined_to_the_closed_form(monkeypatch, no_plans):
    # bending-timelike at a = 250 on a 9x9 grid over [-1, 1]^2: the fast
    # twist sends points through five rounds, on lattices of 1 to 1 / 16 the
    # panel length, each a plan of the points that the round before it
    # missed, and the solve stays within 1e-13 of the closed form (1.3e-14
    # measured), each point with the bits and the rounds it gets alone
    surface = catalog.bending_timelike(250.0)
    data = catalog.bjorling_data_for(surface)
    U, V = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9),
                       indexing="ij")
    calls, plan = [], bjorling._plan
    monkeypatch.setattr(bjorling, "_plan", lambda flat, pieces=1: (
        calls.append((flat.copy(), pieces)), plan(flat, pieces))[1])
    X = solve_bjorling(data)(U, V)
    grid = calls[:]
    assert [pieces for _, pieces in grid] == [1, 2, 4, 8, 16]
    assert [flat.size for flat, _ in grid] == [81, 80, 80, 80, 80]
    exact = catalog.patch(surface)(U, V)
    assert np.max(np.abs(X - exact)) <= 1e-13 * np.max(np.abs(exact))
    z = (U + 1j * V).reshape(-1)
    assert z.tobytes() == grid[0][0].tobytes()
    together = segment_integral(data.integrand, z)
    rounds = []
    for k, p in enumerate(z):
        calls.clear()
        assert np.array_equal(together[k],
                              segment_integral(data.integrand, np.array(p)))
        rounds.append(len(calls))
    # round r plans the points still missing after r rounds alone, in order
    rounds = np.array(rounds)
    for r, (flat, _) in enumerate(grid):
        assert flat.tobytes() == z[rounds > r].tobytes()


def test_points_that_share_no_column_take_one_panel_per_unit():
    # with distinct real parts no column panel is shared: each point takes
    # ceil|Im z| panels up or down its column, and the real axis one panel
    # per unit on each side, shared by all
    u = np.linspace(-0.9, 0.9, 8)
    for height, column_panels in ((0.5, 1), (1.0, 1), (2.5, 3)):
        counts = []
        data = _exp_data(_counting_normal(counts))
        z = u + 1j * height * np.where(np.arange(8) % 2, 1.0, -1.0)
        segment_integral(data.integrand, z)
        assert sum(counts) == (8 * column_panels + 2) * NODES


def test_lattice_lines_are_not_evaluated_as_empty_partial_panels():
    # a point on a lattice line ends with a full panel: z = 0.5 + 1j, 1 + 0.5j
    # and 1 + 1j take one panel along the axis and one up the column, z = 2j
    # two up the imaginary axis, z = 1 one along the real axis, z = 0 none
    counts = []
    data = _exp_data(_counting_normal(counts))
    for z, panels in ((0.5 + 1j, 2), (1 + 0.5j, 2), (1 + 1j, 2), (2j, 2),
                      (1 + 0j, 1), (0j, 0)):
        counts.clear()
        value = segment_integral(data.integrand, np.array(z))
        assert sum(counts) == panels * NODES, z
        # V x alpha' = (0, e^w, 0): the integral is e^z - 1
        assert abs(value[1] - (np.exp(z) - 1.0)) <= 1e-15 * abs(np.exp(z))


def test_special_points_keep_their_bits_in_any_company():
    # each point gives the bits it gets when solved alone, whatever shares
    # the call: zero, points on either axis, a negative zero, a duplicate,
    # points on lattice lines and points far up or down their columns
    data = catalog.bjorling_data_for(catalog.helicoidal_timelike(1.2, 0.6))
    special = [0j, 0.4 + 0j, 0.7j, complex(-0.0, 0.3), complex(-0.0, -0.6),
               complex(0.0, 0.3), 0.45 - 0.25j, 0.45 - 0.25j, 1j, -1j,
               1 + 0.5j, -1 - 0.5j, 1 + 1j, -0.3 - 2.6j, 0.45 + 3.0j]
    rng = np.random.default_rng(7)
    company = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-3, 3, 40)
    z = np.concatenate([company[:20], special, company[20:]])
    together = segment_integral(data.integrand, z)
    solved = solve_bjorling(data)(z.real, z.imag)
    patch = solve_bjorling(data)
    for k, p in enumerate(special):
        at = 20 + k
        alone = segment_integral(data.integrand, np.array(p))
        assert np.array_equal(together[at], alone), p
        assert np.array_equal(solved[at],
                              patch(np.array(p.real), np.array(p.imag))), p
        assert np.array_equal(together[at],
                              _lattice_point(data.integrand, p)), p
    assert np.array_equal(together[26], together[27])


@pytest.fixture
def no_plans():
    """The plan cache, empty for the test and emptied after it."""
    bjorling._kept_plan.cache_clear()
    yield bjorling._kept_plan
    bjorling._kept_plan.cache_clear()


@pytest.fixture
def built(no_plans, monkeypatch):
    """The sizes of the point sets whose plans are built, in order."""
    sizes, plan = [], bjorling._plan

    def counting(flat, pieces=1):
        sizes.append(flat.size)
        return plan(flat, pieces)

    monkeypatch.setattr(bjorling, "_plan", counting)
    return sizes


def _read_only(plan):
    arrays = [f for f in plan if isinstance(f, np.ndarray)]
    return arrays and not any(a.flags.writeable for a in arrays)


def test_cached_plans_give_the_bits_of_cold_solves(no_plans):
    # six point sets (the benchmark's near and far grids, special points,
    # a set with refinement rounds, a single point and 16 points up to 80
    # panels up or down their columns, which take several passes and
    # columns of many lengths) and five integrands,
    # solved in a seeded order that revisits sets within the cache and
    # evicts them: every solve has the bits of the same solve from an empty
    # cache
    U, V = np.meshgrid(np.linspace(-1, 1, 32), np.linspace(-1, 1, 32),
                       indexing="ij")
    Uf, Vf = np.meshgrid(np.linspace(-1, 1, 2), np.linspace(-3, 3, 4),
                         indexing="ij")
    sets = [U + 1j * V, Uf + 1j * Vf,
            np.array([0j, complex(-0.0, 0.3), 1 + 1j, -0.3 - 2.6j, 0.7j]),
            np.array([-1.5 + 0.8j, 0.3 + 0.4j, -1.5 + 1.7j, 20.0 - 0.9j]),
            np.array(0.45 - 0.25j),
            np.random.default_rng(11).uniform(-1, 1, 16)
            + 1j * np.random.default_rng(12).uniform(-80, 80, 16)]
    integrands = [catalog.bjorling_data_for(s).integrand
                  for s in NEAR_SURFACES[:3]]
    integrands += [_exp_data().integrand,
                   _exp_data(_oscillating_column).integrand]
    cold = {}
    for i, z in enumerate(sets):
        for j, integrand in enumerate(integrands):
            no_plans.cache_clear()
            cold[i, j] = segment_integral(integrand, z)
    assert no_plans.cache_info().currsize == 1
    rng = np.random.default_rng(19)
    order = rng.integers(0, len(sets), 40)
    for i, j in zip(order, rng.integers(0, len(integrands), 40)):
        got = segment_integral(integrands[j], sets[i])
        assert got.tobytes() == cold[i, j].tobytes(), (i, j)
        assert no_plans.cache_info().currsize <= bjorling._PLAN_CACHE
    # and the kept plans stay read-only
    for z in sets:
        assert _read_only(bjorling._point_plan(z.reshape(-1)))


def _plan_bytes(plan):
    """The bytes of a plan's arrays, each counted once."""
    arrays = {id(f): f for f in plan if isinstance(f, np.ndarray)}
    return sum(a.nbytes for a in arrays.values())


def test_kept_plans_are_sized_by_their_points(no_plans):
    # a kept plan holds a few numbers per point, line and pass, none per
    # lattice panel: 1 024 points far up their columns cross half a million
    # and a million panels, and their plans stay within 1 MB
    U, V = np.meshgrid(np.linspace(-1, 1, 32), np.linspace(-1, 1, 32),
                       indexing="ij")
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 1024)
    for z, panels, limit in (
            ((U + 1j * V).reshape(-1), 66, 65_000),
            (x + 1j * rng.uniform(-1000, 1000, 1024), 500_000, 1_000_000),
            (x + 1j * rng.uniform(1020, 1021, 1024), 1_000_000, 1_000_000)):
        plan = bjorling._point_plan(z)
        assert plan is bjorling._point_plan(z)
        assert plan.panels >= panels
        assert _plan_bytes(plan) <= limit
    assert no_plans.cache_info().currsize == 3


def test_a_grid_solved_twice_builds_one_plan(built):
    # the benchmark's near grid: the second solve takes the kept plan, and
    # both have the bits of a solve from an empty cache
    U, V = np.meshgrid(np.linspace(-1, 1, 32), np.linspace(-1, 1, 32),
                       indexing="ij")
    solve = solve_bjorling(catalog.bjorling_data_for(NEAR_SURFACES[0]))
    cold = solve(U, V).tobytes()
    built.clear()
    bjorling._kept_plan.cache_clear()
    assert [solve(U, V).tobytes() for _ in range(2)] == [cold, cold]
    assert built == [U.size]


def test_the_plan_cache_keeps_a_few_small_point_sets(built):
    data = _exp_data()
    sets = [np.linspace(-1, 1, 5) + 1j * (0.1 * k + 0.05) for k in range(10)]
    for z in sets:
        segment_integral(data.integrand, z)
    assert len(built) == 10
    # the last _PLAN_CACHE sets are kept; the one used least recently goes
    # first
    assert bjorling._PLAN_CACHE == 4
    for z in sets[-4:]:
        segment_integral(data.integrand, z)
    assert len(built) == 10
    segment_integral(data.integrand, sets[-4])
    segment_integral(data.integrand, sets[0])
    assert len(built) == 11
    for z in sets[-2:] + sets[-4:-3]:
        segment_integral(data.integrand, z)
    assert len(built) == 11
    segment_integral(data.integrand, sets[-3])
    assert len(built) == 12
    # a set of _PASS_POINTS // 8 points is kept, one more point is not
    assert bjorling._PASS_POINTS // 8 == 1024
    rng = np.random.default_rng(3)
    for n, builds in ((1024, [1024]), (1025, [1025, 1025])):
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        del built[:]
        cold = segment_integral(data.integrand, z).tobytes()
        assert segment_integral(data.integrand, z).tobytes() == cold
        assert built == builds
        assert _read_only(bjorling._point_plan(z))


def test_an_integrand_cannot_change_a_later_solve_through_its_nodes(
        no_plans):
    # the nodes come read-only; an integrand that makes them writeable and
    # overwrites them spoils no value of its own solve or of later ones
    data = catalog.bjorling_data_for(NEAR_SURFACES[3])
    _, z = _near_axis_cases()[3]
    cold = segment_integral(data.integrand, z)
    refused = []

    def vandal(w, out):
        data.integrand(w, out=out)
        try:
            w[...] = 0.0
        except ValueError:
            refused.append(w.size)
        w.flags.writeable = True
        w[...] = np.nan

    assert segment_integral(vandal, z).tobytes() == cold.tobytes()
    assert refused == [2 * NODES + 24 * NODES]
    for _ in range(2):
        assert segment_integral(data.integrand, z).tobytes() == cold.tobytes()


def test_threads_share_the_plan_cache(no_plans):
    # more threads than cores solve six point sets in a seeded order, with
    # a short switch interval: every solve keeps the bits of its solve from
    # an empty cache, and the cache keeps its bound
    data = catalog.bjorling_data_for(NEAR_SURFACES[1])
    sets = [np.linspace(-1, 1, 9)[:, None]
            + 1j * np.linspace(-0.9 + 0.1 * k, 0.9, 7) for k in range(6)]
    cold = []
    for z in sets:
        no_plans.cache_clear()
        cold.append(segment_integral(data.integrand, z).tobytes())
    no_plans.cache_clear()
    failures = []

    def work(seed):
        try:
            for i in np.random.default_rng(seed).integers(0, len(sets), 30):
                if segment_integral(data.integrand,
                                    sets[i]).tobytes() != cold[i]:
                    failures.append(i)
        except Exception as exc:  # reported by the assertion below
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert 0 < no_plans.cache_info().currsize <= bjorling._PLAN_CACHE


@pytest.mark.parametrize("bad, message", [
    (complex(np.nan, 0.5), "non-finite point z=(nan+0.5j)"),
    (24.5 + 1000j, "crosses 1025 lattice panels, more than 1024"),
    # a path count past 2**63, which an int64 count would wrap
    (0.5 + 2.0 ** 63 * 1j,
     "crosses 9223372036854775808 lattice panels, more than 1024")])
def test_refused_points_raise_on_every_call(built, bad, message):
    counts = []
    data = _exp_data(_counting_normal(counts))
    z = np.array([0.5 + 0.5j, bad])
    for _ in range(3):
        with pytest.raises(QuadratureError, match=re.escape(message)):
            segment_integral(data.integrand, z)
    assert counts == [] and built == [2] * 3
    assert bjorling._kept_plan.cache_info().currsize == 0


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
    def func(u, v):
        return np.stack(np.broadcast_arrays(u, v, 0.0), axis=-1)

    patch = SurfacePatch(func, domain=(-2, 2, -1, 1), label="plane")
    assert patch.domain == (-2, 2, -1, 1)
    assert patch.label == "plane"
    # a solved patch carries the default domain
    solved = solve_bjorling(catalog.bjorling_data_for(
        catalog.bending_timelike(2.0)))
    assert solved.label == "bjorling"
    assert solved.domain == SurfacePatch(func).domain \
        == (-np.pi, np.pi, -1.0, 1.0)
