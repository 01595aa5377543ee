"""The package's public names and the kinds of its records."""

import dataclasses
import importlib
import pkgutil
import subprocess
import sys

import pytest

import maxsurf
from maxsurf import catalog, cli, frames, motions, verify


def test_every_public_name_resolves_and_star_import_binds_it():
    names = maxsurf.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(maxsurf, name)] == []
    namespace = {}
    exec("from maxsurf import *", namespace)
    assert [name for name in names
            if namespace.get(name) is not getattr(maxsurf, name)] == []


def _package_modules():
    return [importlib.import_module(f"maxsurf.{info.name}")
            for info in pkgutil.iter_modules(maxsurf.__path__)]


def test_dataclasses_are_the_records_that_replace_or_validate():
    # passed to dataclasses.replace by tests or the benchmark, or validated
    # in __post_init__; every other record is a NamedTuple or a plain class
    found = {f"{mod.__name__[len('maxsurf.'):]}.{name}"
             for mod in _package_modules()
             for name, obj in vars(mod).items()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)
             and obj.__module__ == mod.__name__}
    assert found == {
        "bjorling.SurfacePatch", "frames.BjorlingData", "verify.CheckResult",
        "weierstrass.FormTriple", "weierstrass.WeierstrassData",
        "catalog.CatalogSurface", "catalog.GeneratingCurve",
        "frames.CurveFamily", "frames.NormalFieldSpec", "verify.Grid",
        "weierstrass.Loop"}


_JOB_FIELDS = dict(
    family="bending-timelike", a=None, lam=None, cubic=None, offset=None,
    grid={}, tolerances={}, out=None, formats=("obj",), report=None,
    suite="all", perturb=0.0, fd_step=1e-3, annulus=(1e-3, 1e3),
    thetas=(0.3,))


# (record, its fields without a default, its other fields' defaults)
@pytest.mark.parametrize("record, given, defaults", [
    (catalog.Param, dict(name="a"), dict(text="real", default=None)),
    (catalog.Family, dict(params=(), domain=(0.0, 1.0, 0.0, 1.0),
                          evaluate=abs),
     dict(curve=None, twist=None, group=None, orbit_of=None,
          verify_domain=None, forms=None, punctured=None, unit_period=None)),
    (frames.AnalyticMap, dict(func=abs), dict(deriv=None)),
    (frames._Formulas, dict(kernel=abs, alpha=abs, deriv=abs, legs=abs,
                            eps=1.0), {}),
    (motions.MotionGroup, dict(tag="rotation", matrix=abs),
     dict(translation=None)),
    (verify.FundamentalForms, dict(E=1.0, F=0.0, G=1.0, e=0.5, f=0.0,
                                   g2=-0.5, degenerate=False), {}),
    (cli.JobConfig, _JOB_FIELDS, {}),
])
def test_records_keep_what_their_callers_use(record, given, defaults):
    rec = record(**given)
    assert all(getattr(rec, k) is v for k, v in given.items())
    assert {k: getattr(rec, k) for k in defaults} == defaults
    assert rec == record(**given)
    first = next(iter(given))
    assert rec != record(**{**given, first: "other"})
    assert repr(rec).startswith(f"{record.__name__}({first}=")
    with pytest.raises(AttributeError):
        setattr(rec, first, "other")
    if record is catalog.Param:
        assert rec.test(0.0) is True
    if record is catalog.Family:
        assert rec.curvature(None) is None


def test_a_verify_job_builds_its_stencil_once(monkeypatch):
    cfg = cli.build_job_config({"family": catalog.BENDING_TIMELIKE})
    surface = cli.surface_from_config(cfg)
    patch = cli._patch_for(surface, cfg)
    grid = cli._default_grid(cfg, surface.family, for_sample=False)
    built = []
    monkeypatch.setattr(verify, "grid_stencil",
                        lambda *args: built.append(args) or object())
    job = cli._Job(cfg, surface, patch, grid,
                   catalog.FAMILY_INFO[surface.family], None, None)
    assert job.stencil is job.stencil
    assert built == [(patch, grid, cfg.fd_step)]


# Run in a fresh interpreter: the command's exit status, then whether the
# Weierstrass layer and numpy's Legendre module were imported.
_COMMAND = """
import sys
from maxsurf import cli
status = cli.main(sys.argv[1:])
print(status, "maxsurf.weierstrass" in sys.modules,
      "numpy.polynomial" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads", [
    (["sample", "--family", "bending-timelike", "--out", "{tmp}/mesh",
      "--set", "formats=[\"obj\", \"csv\"]"], False),
    (["families"], False),
    (["verify", "--family", "bending-timelike", "--suite", "all",
      "--report", "{tmp}/report.json"], True),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_a_command_imports_the_weierstrass_layer_only_to_use_it(
        tmp_path, argv, loads):
    run = subprocess.run(
        [sys.executable, "-c", _COMMAND]
        + [arg.format(tmp=tmp_path) for arg in argv],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"0 {loads} {loads}"


_BARE_IMPORT = """
import sys
import maxsurf
assert "maxsurf.weierstrass" not in sys.modules
assert set(maxsurf.__all__) <= set(dir(maxsurf))
assert "maxsurf.weierstrass" not in sys.modules
assert maxsurf.total_curvature is maxsurf.weierstrass.total_curvature
assert "numpy.polynomial" not in sys.modules
"""


def test_weierstrass_names_resolve_on_first_use():
    run = subprocess.run([sys.executable, "-c", _BARE_IMPORT],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
