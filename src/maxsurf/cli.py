"""Command line front end.

Subcommands:

    maxsurf sample   evaluate a family on a grid and write OBJ/CSV meshes
    maxsurf verify   run the numerical check suites, emit a JSON report
    maxsurf families list family ids and parameter constraints

Configuration is one JSON document; every flag overrides a config field and
`--set path=value` reaches any nested field.  Outputs are deterministic:
identical configs produce byte-identical files.  Exit codes: 0 ok, 1 check
failure, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import catalog, verify, weierstrass
from .bjorling import (GaussLegendre, QuadratureError, SurfacePatch,
                       solve_bjorling)
from .lorentz import lorentz_cross
from .verify import CheckResult, Grid

SCHEMA = "maxsurf-report/1"

_SUITES = ("all", "h", "periods", "curvature", "equivariance")
_FORMATS = ("obj", "csv")

_FORM_FAMILIES = frozenset((
    catalog.BENDING_TIMELIKE, catalog.BENDING_SPACELIKE,
    catalog.LIGHTLIKE_ROTATIONAL, catalog.HELICOIDAL_TIMELIKE,
    catalog.HELICOIDAL_SPACELIKE_I, catalog.HELICOIDAL_SPACELIKE_II))

_PUNCTURED_FAMILIES = frozenset((
    catalog.BENDING_SPACELIKE, catalog.HELICOIDAL_SPACELIKE_I,
    catalog.HELICOIDAL_SPACELIKE_II))

_DEFAULT_LAM = {
    catalog.HELICOIDAL_TIMELIKE: 0.6,
    catalog.HELICOIDAL_TIMELIKE_CONSTANT: 0.6,
    catalog.HELICOIDAL_SPACELIKE_I: 2.0,
    catalog.HELICOIDAL_SPACELIKE_II: 1.0,
}

_DEFAULT_TOLERANCES = {
    "oracle": 1e-8,
    "mean_curvature": 1e-5,
    "conformality": 1e-6,
    "recovery_position": 1e-8,
    "recovery_normal": 1e-6,
    "equivariance": 1e-9,
    "isometry": 1e-12,
    "null_condition": 1e-10,
    "forms_data": 1e-12,
    "reconstruction": 1e-8,
    "period": 1e-6,
    "total_curvature_rel": 0.05,
    "ode": 1e-12,
    "identification": 1e-10,
}

_TOP_KEYS = frozenset((
    "family", "a", "lambda", "cubic", "offset", "grid", "quadrature",
    "tolerances", "out", "formats", "report", "suite", "perturb", "fd_step",
    "annulus", "curvature_grid", "u0", "thetas"))

_GRID_BOUNDS = ("u_min", "u_max", "v_min", "v_max")
_GRID_KEYS = frozenset(_GRID_BOUNDS + ("nu", "nv"))


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass
class JobConfig:
    family: str
    a: float | None
    lam: float | None
    cubic: float | None
    offset: float | None
    grid: dict
    quadrature: GaussLegendre
    tolerances: dict
    out: str | None
    formats: tuple
    report: str | None
    suite: str
    perturb: float
    fd_step: float
    annulus: tuple
    curvature_grid: tuple
    u0: float
    thetas: tuple


def _number(value, where):
    # abs(nan) <= max is False; an int above max has no float to become.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _build_grid(raw) -> dict:
    """Typed grid fields, to be laid over the command's default grid.

    The four bounds describe one rectangle and come all or none; nu and nv
    may each be given alone.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"grid must be an object, got {raw!r}")
    unknown = set(raw) - _GRID_KEYS
    if unknown:
        raise ConfigError(f"unknown grid field {sorted(unknown)[0]!r}")
    missing = set(_GRID_BOUNDS) - set(raw)
    if 0 < len(missing) < len(_GRID_BOUNDS):
        raise ConfigError(f"grid is missing field {sorted(missing)[0]!r}")
    return {k: (_integer if k in ("nu", "nv") else _number)(v, f"grid.{k}")
            for k, v in raw.items()}


def _build_quadrature(raw) -> GaussLegendre:
    if raw is None:
        return GaussLegendre()
    if not isinstance(raw, dict) or "rule" not in raw:
        raise ConfigError("quadrature must be an object with a 'rule' field")
    if raw["rule"] != "gauss-legendre":
        raise ConfigError(f"unknown quadrature rule {raw['rule']!r}; the "
                          "only rule is 'gauss-legendre'")
    extra = set(raw) - {"rule", "nodes"}
    if extra:
        raise ConfigError(f"unknown quadrature field {sorted(extra)[0]!r}; "
                          "the only rule is 'gauss-legendre', with 'nodes'")
    try:
        return GaussLegendre(nodes=_integer(raw.get("nodes", 64),
                                            "quadrature.nodes"))
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from exc


def _build_tolerances(raw) -> dict:
    tols = dict(_DEFAULT_TOLERANCES)
    if raw is None:
        return tols
    if not isinstance(raw, dict):
        raise ConfigError(f"tolerances must be an object, got {raw!r}")
    for key, value in raw.items():
        if key not in tols:
            raise ConfigError(f"unknown tolerance {key!r}")
        num = _number(value, f"tolerances.{key}")
        if not num > 0:
            raise ConfigError(f"tolerances.{key} must be positive, got {num}")
        tols[key] = num
    return tols


def _build_pair(raw, where, kind):
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2):
        raise ConfigError(f"{where} must be a pair, got {raw!r}")
    if kind is int:
        return (_integer(raw[0], where), _integer(raw[1], where))
    return (_number(raw[0], where), _number(raw[1], where))


def build_job_config(raw: dict) -> JobConfig:
    """Validate a raw config dict into a JobConfig; raises ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    family = raw.get("family")
    if family is None:
        raise ConfigError("config needs a 'family' (see `maxsurf families`)")
    if family not in catalog.FAMILY_INFO:
        raise ConfigError(f"unknown family {family!r} "
                          f"(see `maxsurf families`)")
    suite = raw.get("suite", "all")
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {_SUITES}")
    formats = raw.get("formats", ["obj"])
    if isinstance(formats, str):
        formats = [formats]
    if (not isinstance(formats, list) or not formats
            or any(f not in _FORMATS for f in formats)):
        raise ConfigError(f"formats must be a non-empty subset of {_FORMATS}, "
                          f"got {formats!r}")
    fd_step = _number(raw.get("fd_step", 1e-3), "fd_step")
    if not fd_step > 0:
        raise ConfigError(f"fd_step must be positive, got {fd_step}")
    thetas = raw.get("thetas", [-1.0, -0.3, 0.3, 1.0])
    if not isinstance(thetas, list) or not thetas:
        raise ConfigError(f"thetas must be a non-empty list, got {thetas!r}")
    for key in ("out", "report"):
        if not isinstance(raw.get(key), (str, type(None))):
            raise ConfigError(f"{key} must be a path string or null, "
                              f"got {raw[key]!r}")
    annulus = _build_pair(raw.get("annulus", [1e-3, 1e3]), "annulus", float)
    curvature_grid = _build_pair(raw.get("curvature_grid", [400, 256]),
                                 "curvature_grid", int)
    try:
        weierstrass.check_curvature_domain(annulus, curvature_grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    opt = {k: (None if raw.get(k) is None else _number(raw[k], k))
           for k in ("a", "lambda", "cubic", "offset")}
    return JobConfig(
        family=family,
        a=opt["a"],
        lam=opt["lambda"],
        cubic=opt["cubic"],
        offset=opt["offset"],
        grid={} if raw.get("grid") is None else _build_grid(raw["grid"]),
        quadrature=_build_quadrature(raw.get("quadrature")),
        tolerances=_build_tolerances(raw.get("tolerances")),
        out=raw.get("out"),
        formats=tuple(formats),
        report=raw.get("report"),
        suite=suite,
        perturb=_number(raw.get("perturb", 0.0), "perturb"),
        fd_step=fd_step,
        annulus=annulus,
        curvature_grid=curvature_grid,
        u0=_number(raw.get("u0", 0.0), "u0"),
        thetas=tuple(_number(t, "thetas") for t in thetas),
    )


def surface_from_config(cfg: JobConfig) -> catalog.CatalogSurface:
    fam = cfg.family
    try:
        if fam == catalog.ENNEPER_SECOND_KIND:
            if cfg.cubic is not None:
                return catalog.enneper_second_kind(
                    cfg.cubic, cfg.offset if cfg.offset is not None else 0.0)
            curve = catalog.generating_curve_for(
                cfg.a if cfg.a is not None else 0.0)
            return catalog.enneper_second_kind(curve.cubic, curve.offset)
        a = cfg.a if cfg.a is not None else 1.0
        if fam in _DEFAULT_LAM:
            lam = cfg.lam if cfg.lam is not None else _DEFAULT_LAM[fam]
            return catalog.CatalogSurface(fam, a=a, lam=lam)
        return catalog.CatalogSurface(fam, a=a)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _patch_for(surface, cfg: JobConfig) -> SurfacePatch:
    base = catalog.patch(surface)
    if not cfg.perturb:
        return base
    eps = cfg.perturb

    # Synthetic offset: shifts the evaluation so the check suites have a
    # failure path to exercise; never applied to the reference solve.
    def func(u, v):
        pts = np.array(base(u, v), dtype=float, copy=True)
        pts[..., 0] += eps
        return pts

    return SurfacePatch(func=func, domain=base.domain,
                        label=base.label + f":perturb={eps:g}")


def _default_grid(cfg: JobConfig, fam: str, for_sample: bool) -> Grid:
    """The command's default grid for the family, with the config's grid
    fields laid over it."""
    if for_sample:
        grid = Grid.from_domain(catalog.DEFAULT_DOMAINS[fam], nu=64, nv=16)
    elif fam == catalog.ENNEPER_SECOND_KIND:
        grid = Grid.from_domain(catalog.DEFAULT_DOMAINS[fam], nu=21, nv=21)
    else:
        grid = Grid(-1.0, 1.0, -1.0, 1.0, nu=21, nv=21)
    try:
        return replace(grid, **cfg.grid)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


# Unused by `sample`; bench/run.py still records and calibrates with it.
def _thread_count() -> int:
    raw = os.environ.get("MAXSURF_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"MAXSURF_THREADS must be an integer, got {raw!r}") \
            from exc
    if n < 1:
        raise ConfigError(f"MAXSURF_THREADS must be at least 1, got {n}")
    return min(n, 64)


def _format_floats(values) -> list:
    """Every value of a float array as '%.17g' text, in C order."""
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return ("%.17g " * len(flat) % tuple(flat)).split()


def _write_obj(path, label, grid: Grid, coords, mask):
    """Quads over the grid; `coords` are the vertex coordinates as text."""
    nv = grid.nv
    k = np.arange(1, grid.nu * nv + 1).reshape(grid.nu, nv)[:-1, :-1].ravel()
    quads = np.stack((k, k + nv, k + nv + 1, k + 1), axis=-1).ravel().tolist()
    bad = (np.flatnonzero(~mask) + 1).tolist()
    parts = [f"# maxsurf mesh\n# surface {label}\n# grid {grid.describe()}\n",
             "v %s %s %s\n" * (len(coords) // 3) % tuple(coords)]
    if bad:
        parts += ["# vertices outside the spacelike region "
                  "(1-based indices):\n",
                  "# nonspacelike %d\n" * len(bad) % tuple(bad)]
    parts.append("f %d %d %d %d\n" * k.size % tuple(quads))
    with open(path, "w", newline="\n") as fh:
        fh.writelines(parts)
    return k.size


def _write_csv(path, grid: Grid, coords, mask):
    us, vs = (_format_floats(axis) for axis in grid.axes())
    flags = np.where(mask, "1", "0").ravel().tolist()
    rows = zip([u for u in us for _ in vs], vs * grid.nu, coords[0::3],
               coords[1::3], coords[2::3], flags)
    with open(path, "w", newline="\n") as fh:
        fh.write("u,v,x,y,z,spacelike\n")
        fh.write("%s,%s,%s,%s,%s,%s\n" * len(flags)
                 % tuple(itertools.chain.from_iterable(rows)))


def _output_paths(out: str, formats):
    base = out
    for fmt in _FORMATS:
        suffix = "." + fmt
        if base.endswith(suffix):
            base = base[:-len(suffix)]
            break
    return {fmt: base + "." + fmt for fmt in formats}


def cmd_sample(cfg: JobConfig) -> int:
    surface = surface_from_config(cfg)
    grid = _default_grid(cfg, surface.family, for_sample=True)
    patch = _patch_for(surface, cfg)
    coords = _format_floats(patch(*grid.mesh()))
    mask = verify.spacelike_region(patch, grid, h=cfg.fd_step)
    paths = _output_paths(cfg.out or "mesh", cfg.formats)
    for fmt, path in paths.items():
        if fmt == "obj":
            faces = _write_obj(path, patch.label, grid, coords, mask)
            print(f"wrote {path}: {grid.nu * grid.nv} vertices, {faces} faces")
        else:
            _write_csv(path, grid, coords, mask)
            print(f"wrote {path}: {grid.nu * grid.nv} rows")
    return 0


def _expected_real_periods(surface) -> dict:
    n = round(surface.a)
    if n != 1:
        return {1: 0.0, 2: 0.0, 3: 0.0}
    if surface.family == catalog.BENDING_SPACELIKE:
        second = -np.pi
    elif surface.family == catalog.HELICOIDAL_SPACELIKE_I:
        second = np.pi * (surface.lam + surface.mu)
    else:
        second = -np.pi * (surface.lam + surface.mu)
    return {1: 0.0, 2: second, 3: 0.0}


_ROTATION_GROUPS = {
    catalog.ELLIPTIC_CATENOID:
        lambda s: verify.rotation_timelike_axis(),
    catalog.HYPERBOLIC_CATENOID:
        lambda s: verify.rotation_spacelike_axis(),
    catalog.LIGHTLIKE_ROTATIONAL:
        lambda s: verify.rotation_lightlike_axis(),
    catalog.ENNEPER_SECOND_KIND:
        lambda s: verify.rotation_lightlike_axis(),
    catalog.HELICOIDAL_TIMELIKE_CONSTANT:
        lambda s: verify.screw_timelike_axis(s.lam),
}


def _check(name, residual, tolerance, grid="", flagged=(), note=""):
    return CheckResult(name, float(residual), float(tolerance),
                       bool(residual < tolerance), grid, tuple(flagged), note)


def _verify_checks(cfg: JobConfig, surface, patch, grid):
    """Run the requested suites; returns (checks, skipped notes)."""
    checks = []
    skipped = []
    tols = cfg.tolerances
    fam = surface.family
    suite = cfg.suite

    def skip(name, why):
        skipped.append({"name": name, "reason": why})

    if suite == "all":
        if fam == catalog.ENNEPER_SECOND_KIND:
            skip("oracle-agreement", "orbit parametrization has no Björling "
                                     "data in these coordinates")
        else:
            data = catalog.bjorling_data_for(surface, u0=cfg.u0)
            numeric = solve_bjorling(data, cfg.quadrature)
            U, V = grid.mesh()
            try:
                res = float(np.max(np.abs(patch(U, V) - numeric(U, V))))
                checks.append(_check("oracle-agreement", res, tols["oracle"],
                                     grid.describe()))
            except QuadratureError as exc:
                checks.append(_check("oracle-agreement", float("inf"),
                                     tols["oracle"], grid.describe(),
                                     note=str(exc)))

    if suite in ("all", "h"):
        value, flagged = verify.mean_curvature_scan(patch, grid,
                                                    h=cfg.fd_step)
        checks.append(_check("mean-curvature", value, tols["mean_curvature"],
                             grid.describe(), flagged=flagged))
        if fam == catalog.ENNEPER_SECOND_KIND:
            skip("conformality", "orbit parameters are not conformal")
        else:
            res = verify.conformality_residual(patch, grid, h=cfg.fd_step)
            checks.append(_check("conformality", res, tols["conformality"],
                                 grid.describe()))
        if fam == catalog.ENNEPER_SECOND_KIND:
            curve = catalog.GeneratingCurve(cubic=surface.cubic,
                                            offset=surface.offset)
            vg = np.linspace(-2.0, 2.0, 81)
            res = float(np.max(catalog.ode_residual(
                curve, surface.cubic / 4.0, -2.0 * surface.offset, vg)))
            checks.append(_check("generating-curve-ode", res, tols["ode"],
                                 "v in [-2,2], 81 samples"))
            if cfg.a is not None and cfg.cubic is None:
                ug = np.linspace(-2.0, 2.0, 21)
                res = catalog.lightlike_identification_check(
                    cfg.a, ug, np.linspace(-1.0, 1.0, 21))
                checks.append(_check("orbit-identification", res,
                                     tols["identification"]))

    if suite == "all":
        if fam == catalog.ENNEPER_SECOND_KIND:
            skip("bjorling-recovery", "no Björling data (see oracle note)")
        else:
            data = catalog.bjorling_data_for(surface, u0=cfg.u0)
            ug = np.linspace(grid.u_min, grid.u_max, 21)
            rep = verify.bjorling_recovery(
                patch, data, ug, position_tol=tols["recovery_position"],
                normal_tol=tols["recovery_normal"])
            checks.extend(rep.checks)

    if suite in ("all", "equivariance"):
        maker = _ROTATION_GROUPS.get(fam)
        if maker is None:
            skip("equivariance", f"{fam} is not invariant under a motion "
                                 "group acting by parameter shift")
        else:
            group = maker(surface)
            rep = verify.equivariance(patch, group, cfg.thetas, grid,
                                      tol=tols["equivariance"])
            checks.extend(rep.checks)
            checks.append(verify.group_isometry_check(
                group, cfg.thetas, tol=tols["isometry"]))

    if suite == "all" and fam in _FORM_FAMILIES:
        triple = weierstrass.forms_for(surface)
        zs = weierstrass.probe_ring(100)
        checks.append(_check("null-condition",
                             float(np.max(triple.null_residual(zs))),
                             tols["null_condition"], "ring |z-0.07i|=0.8"))
        data = catalog.bjorling_data_for(surface, u0=cfg.u0)
        direct = data.alpha.d(zs) \
            + 1j * lorentz_cross(data.normal_field(zs), data.alpha.d(zs))
        res = float(np.max(np.abs(triple(zs) - direct)))
        checks.append(_check("forms-match-data", res, tols["forms_data"],
                             "ring |z-0.07i|=0.8"))
        pair = weierstrass.weierstrass_pair(triple)
        rec = weierstrass.reconstruct_forms(pair)
        res = float(np.max(np.abs(rec(zs) - triple(zs))))
        checks.append(_check("pair-reconstruction", res,
                             tols["reconstruction"], "ring |z-0.07i|=0.8"))

    if suite in ("all", "periods"):
        if fam not in _PUNCTURED_FAMILIES:
            skip("periods", f"{fam} has no punctured chart")
        elif abs(surface.a - round(surface.a)) > 1e-9:
            skip("periods", "forms are meromorphic only for integer twist "
                            "rate")
        else:
            triple = weierstrass.forms_for(surface,
                                           weierstrass.PUNCTURED_CHART)
            loop = weierstrass.Loop(0j, 1.0)
            expected = _expected_real_periods(surface)
            for k in (1, 2, 3):
                try:
                    value = weierstrass.period(triple, k, loop)
                    res = abs(value.real - expected[k])
                    note = f"value {value.real:.12g}{value.imag:+.12g}i, " \
                           f"expected real part {expected[k]:.12g}"
                    checks.append(_check(f"period-phi{k}", res, tols["period"],
                                         "unit loop", note=note))
                except QuadratureError as exc:
                    checks.append(_check(f"period-phi{k}", float("inf"),
                                         tols["period"], "unit loop",
                                         note=str(exc)))

    if suite in ("all", "curvature"):
        target = None
        if (fam == catalog.BENDING_SPACELIKE
                and abs(surface.a - round(surface.a)) <= 1e-9):
            triple = weierstrass.forms_for(surface,
                                           weierstrass.PUNCTURED_CHART)
            target = -4.0 * np.pi * (round(surface.a) + 1)
        elif fam == catalog.LIGHTLIKE_ROTATIONAL:
            triple = weierstrass.forms_for(surface)
            target = -4.0 * np.pi
        if target is None:
            skip("total-curvature", f"no closed-form total curvature target "
                                    f"for {fam} here")
        else:
            w = weierstrass.weierstrass_pair(weierstrass.dualize(triple))
            try:
                value = weierstrass.total_curvature(w, cfg.annulus,
                                                    cfg.curvature_grid)
                res = abs(value - target) / abs(target)
                note = f"value {value:.9g}, target {target:.9g}"
                checks.append(_check("total-curvature", res,
                                     tols["total_curvature_rel"],
                                     f"annulus {cfg.annulus}, grid "
                                     f"{cfg.curvature_grid}", note=note))
            except QuadratureError as exc:
                checks.append(_check("total-curvature", float("inf"),
                                     tols["total_curvature_rel"],
                                     note=str(exc)))

    return checks, skipped


def cmd_verify(cfg: JobConfig) -> int:
    surface = surface_from_config(cfg)
    grid = _default_grid(cfg, surface.family, for_sample=False)
    patch = _patch_for(surface, cfg)
    checks, skipped = _verify_checks(cfg, surface, patch, grid)
    passed = all(c.passed for c in checks)
    parameters = {}
    if surface.family == catalog.ENNEPER_SECOND_KIND:
        parameters["cubic"] = surface.cubic
        parameters["offset"] = surface.offset
    else:
        parameters["a"] = surface.a
        if surface.family in catalog._LAM_FAMILIES:
            parameters["lambda"] = surface.lam
    report = {
        "schema": SCHEMA,
        "surface": {"family": surface.family, "parameters": parameters},
        "suite": cfg.suite,
        "grid": grid.describe(),
        "fd_step": cfg.fd_step,
        "quadrature": {"rule": "gauss-legendre",
                       "nodes": cfg.quadrature.nodes},
        "checks": [c.to_dict() for c in checks],
        "skipped": skipped,
        "passed": passed,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.report:
        with open(cfg.report, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for c in checks:
        state = "PASS" if c.passed else "FAIL"
        print(f"{state} {c.name}: residual {c.residual:.3e} "
              f"(tolerance {c.tolerance:.3e})")
    for s in skipped:
        print(f"SKIP {s['name']}: {s['reason']}")
    print("ok" if passed else "FAILED")
    return 0 if passed else 1


def _family_lines():
    lines = []
    width = max(len(f) for f in catalog.FAMILY_INFO)
    for fam, info in catalog.FAMILY_INFO.items():
        parts = [f"{p}: {info[p]}" if p in info else f"{p}: real"
                 for p in info["params"]]
        lines.append(f"{fam:<{width}}  {'; '.join(parts)}")
    lines.append("")
    lines.append("enneper-second-kind also accepts a >= 0, from which cubic "
                 "and offset are derived")
    return lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxsurf",
        description="Maximal surfaces in Lorentz-Minkowski space: sampling, "
                    "verification, family catalog.")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="path to the JSON config document")
        p.add_argument("--family", help="family id (see `maxsurf families`)")
        p.add_argument("--a", type=float, help="twist rate")
        p.add_argument("--lambda", dest="lam", type=float, help="helix pitch")
        p.add_argument("--set", action="append", default=[],
                       metavar="PATH=VALUE", dest="overrides",
                       help="override any config field, e.g. "
                            "--set grid.nu=33 or --set tolerances.oracle=1e-9")

    ps = sub.add_parser("sample", help="write mesh files for a family")
    add_common(ps)
    ps.add_argument("--out", help="output path base (format suffix appended)")

    pv = sub.add_parser("verify", help="run the numerical check suites")
    add_common(pv)
    pv.add_argument("--suite", choices=_SUITES, help="which checks to run")
    pv.add_argument("--report", help="write the JSON report here instead of "
                                     "stdout")

    sub.add_parser("families", help="list family ids and constraints")
    return parser


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like path=value")
    path, _, raw = text.partition("=")
    if not path:
        raise ConfigError(f"override {text!r} has an empty path")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except ValueError as exc:  # e.g. an integer over Python's digit limit
        raise ConfigError(f"override {path!r}: {exc}") from exc
    return path, value


def _apply_override(config: dict, path: str, value):
    keys = path.split(".")
    node = config
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = node[key] = {}
        elif not isinstance(nxt, dict):
            raise ConfigError(f"cannot override through scalar field {key!r}")
        node = nxt
    node[keys[-1]] = value


def _load_raw_config(args) -> dict:
    if args.config is None:
        raw = {}
    else:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config} is not valid JSON: "
                                  f"line {exc.lineno}, column {exc.colno}: "
                                  f"{exc.msg}") from exc
            except ValueError as exc:  # not UTF-8, or an over-long integer
                raise ConfigError(f"{args.config} is not valid JSON: "
                                  f"{exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")
    for text in args.overrides:
        path, value = _parse_override(text)
        _apply_override(raw, path, value)
    for key in ("family", "a", "lam", "out", "suite", "report"):
        value = getattr(args, key, None)
        if value is not None:
            raw["lambda" if key == "lam" else key] = value
    return raw


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "families":
            print("\n".join(_family_lines()))
            return 0
        raw = _load_raw_config(args)
        cfg = build_job_config(raw)
        if args.command == "sample":
            return cmd_sample(cfg)
        return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
