"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single summary line
with the measured number next to the tolerance it is held to, so a terminal
run shows the whole gate at a glance.  Tolerances here are contractual: do
not loosen them to make a failing build pass.
"""

import json
import time

import numpy as np

import maxsurf as M
from maxsurf import catalog, verify, weierstrass as W
from maxsurf.cli import main as cli_main


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


# One representative per parameter regime for the families with closed-form
# Bjorling data; the rotational families join for the curvature scans.
ORACLE_INSTANCES = (
    catalog.bending_timelike(0.5),
    catalog.bending_timelike(1.0),
    catalog.bending_timelike(2.0),
    catalog.bending_spacelike(0.5),
    catalog.bending_spacelike(1.0),
    catalog.bending_spacelike(2.0),
    catalog.helicoidal_timelike(1.0, 0.6),
    catalog.helicoidal_spacelike_i(1.0, 2.0),
    catalog.helicoidal_spacelike_ii(1.0, 1.0),
    catalog.lightlike_rotational(0.0),
    catalog.lightlike_rotational(1.0),
)

SCAN_INSTANCES = ORACLE_INSTANCES + (
    catalog.elliptic_catenoid(0.0),
    catalog.elliptic_catenoid(1.0),
    catalog.hyperbolic_catenoid(1.0),
    catalog.helicoidal_timelike_constant(1.0, 0.6),
    catalog.enneper_second_kind(4.0 / 3.0, -1.0 / 3.0),
)

FORM_INSTANCES = (
    catalog.bending_timelike(1.0),
    catalog.bending_spacelike(1.0),
    catalog.helicoidal_timelike(1.0, 0.6),
    catalog.helicoidal_spacelike_i(1.0, 2.0),
    catalog.helicoidal_spacelike_ii(1.0, 1.0),
    catalog.lightlike_rotational(1.0),
)


def test_closed_forms_match_the_bjorling_solver(capsys):
    grid = M.Grid(-1.0, 1.0, -1.0, 1.0, nu=21, nv=21)
    U, V = grid.mesh()
    start = time.perf_counter()
    worst = 0.0
    for s in ORACLE_INSTANCES:
        data = catalog.bjorling_data_for(s)
        numeric = M.solve_bjorling(data)
        closed = catalog.patch(s)
        worst = max(worst, float(np.max(np.abs(closed(U, V) - numeric(U, V)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _report(capsys, 1, ok,
            f"integral solve vs closed forms, {len(ORACLE_INSTANCES)} "
            f"surfaces on 21x21: max {worst:.3e} (tol 1e-8), "
            f"{elapsed:.1f}s (limit 60s)")
    assert worst < 1e-8
    assert elapsed < 60.0


def test_mean_curvature_vanishes_on_every_catalog_surface(capsys):
    worst = 0.0
    for s in SCAN_INSTANCES:
        grid = M.Grid.from_domain(catalog.DEFAULT_DOMAINS[s.family],
                                  nu=21, nv=21)
        value, _ = M.mean_curvature_scan(catalog.patch(s), grid, h=1e-3)
        worst = max(worst, value)

    def graph(u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return np.stack([u, v, 0.3 * (u * u + v * v)], axis=-1)

    control, _ = M.mean_curvature_scan(
        M.SurfacePatch(func=graph, domain=(-1, 1, -1, 1), label="paraboloid"),
        M.Grid(-1.0, 1.0, -1.0, 1.0, nu=21, nv=21), h=1e-3)
    ok = worst < 1e-5 and control > 0.1
    _report(capsys, 2, ok,
            f"mean curvature scan, {len(SCAN_INSTANCES)} surfaces: "
            f"max {worst:.3e} (tol 1e-5); non-maximal control {control:.3f} "
            f"(must exceed 0.1)")
    assert worst < 1e-5
    assert control > 0.1


def test_form_triples_are_null_and_reproduce_their_data(capsys):
    k = np.arange(100)
    ring = 0.8 * np.exp(2j * np.pi * k / 100) + 0.07j
    worst_null = worst_data = worst_rec = 0.0
    for s in FORM_INSTANCES:
        triple = M.forms_for(s)
        worst_null = max(worst_null, float(np.max(triple.null_residual(ring))))
        data = catalog.bjorling_data_for(s)
        direct = data.alpha.d(ring) + 1j * M.lorentz_cross(
            data.normal_field(ring), data.alpha.d(ring))
        worst_data = max(worst_data,
                         float(np.max(np.abs(triple(ring) - direct))))
        rec = M.reconstruct_forms(M.weierstrass_pair(triple))
        worst_rec = max(worst_rec,
                        float(np.max(np.abs(rec(ring) - triple(ring)))))
    ok = worst_null < 1e-10 and worst_rec < 1e-10 and worst_data < 1e-12
    _report(capsys, 3, ok,
            f"form identities at 100 ring points x {len(FORM_INSTANCES)} "
            f"surfaces: null {worst_null:.3e} (tol 1e-10), pair round trip "
            f"{worst_rec:.3e} (tol 1e-10), data match {worst_data:.3e} "
            f"(tol 1e-12)")
    assert worst_null < 1e-10
    assert worst_rec < 1e-10
    assert worst_data < 1e-12


def test_loop_periods_match_the_residue_values(capsys):
    loop = W.Loop(0j, 1.0)
    worst_zero = 0.0
    worst_second = 0.0
    for n in (1, 2, 3):
        for s in (catalog.bending_spacelike(float(n)),
                  catalog.helicoidal_spacelike_i(float(n), 2.0),
                  catalog.helicoidal_spacelike_ii(float(n), 1.0)):
            triple = M.forms_for(s, W.PUNCTURED_CHART)
            vals = [W.period(triple, k, loop) for k in (1, 2, 3)]
            if n == 1:
                # only the second component carries a real period; its signed
                # value comes from the residue of the forms at the puncture
                if s.family == catalog.BENDING_SPACELIKE:
                    second = -np.pi
                elif s.family == catalog.HELICOIDAL_SPACELIKE_I:
                    second = np.pi * (s.lam + s.mu)
                else:
                    second = -np.pi * (s.lam + s.mu)
                worst_zero = max(worst_zero, abs(vals[0].real),
                                 abs(vals[2].real))
                worst_second = max(worst_second, abs(vals[1].real - second))
            else:
                worst_zero = max(worst_zero,
                                 *(abs(v.real) for v in vals))
    ok = worst_zero < 1e-10 and worst_second < 1e-6
    _report(capsys, 4, ok,
            f"loop periods, 9 punctured surfaces: vanishing components "
            f"{worst_zero:.3e} (tol 1e-10), signed second component off by "
            f"{worst_second:.3e} (tol 1e-6)")
    assert worst_zero < 1e-10
    assert worst_second < 1e-6


def test_dual_total_curvature_hits_the_quantized_targets(capsys):
    results = []
    for s, chart, target, rtol in (
            (catalog.bending_spacelike(1.0), W.PUNCTURED_CHART,
             -8.0 * np.pi, 0.05),
            (catalog.lightlike_rotational(1.0), W.EXP_CHART,
             -4.0 * np.pi, 0.05),
            (catalog.lightlike_rotational(3.0), W.EXP_CHART,
             -4.0 * np.pi, 0.05)):
        start = time.perf_counter()
        w = M.weierstrass_pair(M.dualize(M.forms_for(s, chart)))
        value = M.total_curvature(w, (1e-3, 1e3))
        elapsed = time.perf_counter() - start
        results.append((f"{s.family} a = {s.a:g}",
                        abs(value - target) / abs(target), rtol, elapsed))
    start = time.perf_counter()
    model = W.WeierstrassData(
        g=lambda z: z,
        f=lambda z: np.ones_like(np.asarray(z, complex)),
        chart=W.PUNCTURED_CHART, signature=W.EUCLID,
        singularities=(), label="degree-one-model")
    value = M.total_curvature(model, (1e-3, 1e3))
    elapsed = time.perf_counter() - start
    results.append(("degree-one model", abs(value + 4.0 * np.pi) / (4.0 * np.pi),
                    0.01, elapsed))
    ok = all(rel < rtol and dt < 30.0 for _, rel, rtol, dt in results)
    parts = ", ".join(f"{name} {rel:.2e} (tol {rtol:g}, {dt:.1f}s)"
                      for name, rel, rtol, dt in results)
    _report(capsys, 5, ok, f"dual total curvature: {parts}; limit 30s each")
    for name, rel, rtol, dt in results:
        assert rel < rtol, name
        assert dt < 30.0, name


def test_rotational_surfaces_are_equivariant_under_their_groups(capsys):
    thetas = (-1.0, -0.3, 0.3, 1.0)
    grid = M.Grid(-1.0, 1.0, -1.0, 1.0, nu=11, nv=11)
    pairs = (
        (catalog.elliptic_catenoid(1.0), M.rotation_timelike_axis()),
        (catalog.hyperbolic_catenoid(1.0), M.rotation_spacelike_axis()),
        (catalog.lightlike_rotational(1.0), M.rotation_lightlike_axis()),
        (catalog.helicoidal_timelike_constant(1.0, 0.6),
         M.screw_timelike_axis(0.6)),
    )
    worst_equi = worst_eta = 0.0
    for s, group in pairs:
        rep = M.equivariance(catalog.patch(s), group, thetas, grid)
        worst_equi = max(worst_equi, rep)
        worst_eta = max(worst_eta,
                        *(verify.isometry_defect(group, t) for t in thetas))
    ok = worst_equi < 1e-9 and worst_eta < 1e-12
    _report(capsys, 6, ok,
            f"group equivariance, 4 surface/group pairs on 11x11: "
            f"orbit match {worst_equi:.3e} (tol 1e-9), metric preservation "
            f"{worst_eta:.3e} (tol 1e-12)")
    assert worst_equi < 1e-9
    assert worst_eta < 1e-12


def test_generating_curves_satisfy_the_orbit_ode(capsys):
    vg = np.linspace(-2.0, 2.0, 81)
    worst_ode = worst_ident = 0.0
    for a in (0.0, 1.0):
        curve = catalog.generating_curve_for(a)
        worst_ode = max(worst_ode, float(np.max(catalog.ode_residual(
            curve, curve.cubic / 4.0, -2.0 * curve.offset, vg))))
        worst_ident = max(worst_ident, catalog.lightlike_identification_check(
            a, np.linspace(-2.0, 2.0, 21), np.linspace(-1.0, 1.0, 21)))
    worst_h = 0.0
    for s in (catalog.lightlike_rotational(1.0),
              catalog.enneper_second_kind(4.0 / 3.0, -1.0 / 3.0)):
        grid = M.Grid.from_domain(catalog.DEFAULT_DOMAINS[s.family],
                                  nu=21, nv=21)
        value, _ = M.mean_curvature_scan(catalog.patch(s), grid, h=1e-3)
        worst_h = max(worst_h, value)
    ok = worst_ode < 1e-12 and worst_ident < 1e-10 and worst_h < 1e-5
    _report(capsys, 7, ok,
            f"orbit surfaces: cubic ODE residual {worst_ode:.3e} "
            f"(tol 1e-12), fixed-circle identification {worst_ident:.3e} "
            f"(tol 1e-10), mean curvature {worst_h:.3e} (tol 1e-5)")
    assert worst_ode < 1e-12
    assert worst_ident < 1e-10
    assert worst_h < 1e-5


def test_evaluation_is_continuous_across_the_unit_twist_rate(capsys):
    rng = np.random.default_rng(20260822)
    u = rng.uniform(-1.0, 1.0, 50)
    v = rng.uniform(-1.0, 1.0, 50)
    makers = (
        catalog.bending_spacelike,
        lambda a: catalog.helicoidal_spacelike_i(a, 2.0),
        lambda a: catalog.helicoidal_spacelike_ii(a, 1.0),
    )
    worst = 0.0
    for make in makers:
        center = catalog.patch(make(1.0))(u, v)
        for da in (-1e-8, 1e-8):
            near = catalog.patch(make(1.0 + da))(u, v)
            worst = max(worst, float(np.max(np.abs(near - center))))
    ok = worst < 1e-6
    _report(capsys, 8, ok,
            f"continuity across a = 1, 3 families at 50 points, "
            f"step 1e-8: max jump {worst:.3e} (tol 1e-6)")
    assert worst < 1e-6


def test_cli_reruns_are_identical_and_exit_codes_hold(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"family": "bending-spacelike", "a": 1.0,
                               "formats": ["obj", "csv"]}))
    codes = {}
    codes["sample-1"] = cli_main(["sample", "--config", str(cfg),
                                  "--out", str(tmp_path / "m1")])
    codes["sample-2"] = cli_main(["sample", "--config", str(cfg),
                                  "--out", str(tmp_path / "m2")])
    same_obj = (tmp_path / "m1.obj").read_bytes() \
        == (tmp_path / "m2.obj").read_bytes()
    same_csv = (tmp_path / "m1.csv").read_bytes() \
        == (tmp_path / "m2.csv").read_bytes()
    codes["verify-1"] = cli_main(["verify", "--config", str(cfg),
                                  "--report", str(tmp_path / "r1.json")])
    codes["verify-2"] = cli_main(["verify", "--config", str(cfg),
                                  "--report", str(tmp_path / "r2.json")])
    same_report = (tmp_path / "r1.json").read_bytes() \
        == (tmp_path / "r2.json").read_bytes()
    codes["perturbed"] = cli_main(["verify", "--config", str(cfg),
                                   "--set", "perturb=0.05",
                                   "--report", str(tmp_path / "bad.json")])
    codes["unknown-family"] = cli_main(["verify", "--config", str(cfg),
                                        "--family", "torus"])
    codes["missing-config"] = cli_main(["verify", "--config",
                                        str(tmp_path / "absent.json")])
    expected = {"sample-1": 0, "sample-2": 0, "verify-1": 0, "verify-2": 0,
                "perturbed": 1, "unknown-family": 2, "missing-config": 3}
    ok = codes == expected and same_obj and same_csv and same_report
    _report(capsys, 9, ok,
            f"command line: reruns byte-identical "
            f"(obj {same_obj}, csv {same_csv}, report {same_report}); "
            f"exit codes {codes}")
    assert same_obj and same_csv and same_report
    assert codes == expected
