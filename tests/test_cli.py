"""Command line behavior: config handling, outputs, exit codes."""

import contextlib
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from math import ceil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maxsurf import catalog, cli, verify, weierstrass
from maxsurf.bjorling import _MAX_NODES
from maxsurf.cli import build_job_config, main, surface_from_config
from maxsurf.verify import Grid


def write_config(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


def test_families_lists_every_id(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    for fam in ("bending-timelike", "bending-spacelike",
                "lightlike-rotational", "helicoidal-timelike",
                "helicoidal-spacelike-i", "helicoidal-spacelike-ii",
                "elliptic-catenoid", "hyperbolic-catenoid",
                "helicoidal-timelike-constant", "enneper-second-kind"):
        assert fam in out


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "sample" in capsys.readouterr().out


def test_sample_writes_obj_and_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="elliptic-catenoid",
                       a=1.0,
                       grid={"u_min": -3.0, "u_max": 3.0, "v_min": -0.5,
                             "v_max": 0.5, "nu": 64, "nv": 16},
                       out=str(tmp_path / "mesh"), formats=["obj", "csv"])
    assert main(["sample", "--config", cfg]) == 0
    obj = (tmp_path / "mesh.obj").read_text().splitlines()
    assert obj[0] == "# maxsurf mesh"
    v_lines = [l for l in obj if l.startswith("v ")]
    f_lines = [l for l in obj if l.startswith("f ")]
    assert len(v_lines) == 64 * 16 == 1024
    assert len(f_lines) == 63 * 15
    csv = (tmp_path / "mesh.csv").read_text().splitlines()
    assert csv[0] == "u,v,x,y,z,spacelike"
    assert len(csv) == 1 + 1024
    # 17 significant digits survive a float round trip exactly
    for row in csv[1:16]:
        parts = row.split(",")
        for token in parts[:5]:
            assert f"{float(token):.17g}" == token
    # an output path that ends in the format's suffix keeps one suffix
    assert main(["sample", "--config", cfg, "--out",
                 str(tmp_path / "single.obj"), "--set", 'formats=["obj"]']) \
        == 0
    assert [p.name for p in tmp_path.glob("single*")] == ["single.obj"]
    assert (tmp_path / "single.obj").read_bytes() \
        == (tmp_path / "mesh.obj").read_bytes()


def test_sample_defaults_grid_from_family(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="bending-timelike",
                       out=str(tmp_path / "m"))
    assert main(["sample", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "1024 vertices" in out


def test_sample_marks_nonspacelike_vertices(tmp_path):
    cfg = write_config(tmp_path / "c.json", family="lightlike-rotational",
                       a=0.0,
                       grid={"u_min": -1.0, "u_max": 1.0, "v_min": 0.0,
                             "v_max": 1.0, "nu": 5, "nv": 5},
                       out=str(tmp_path / "m"))
    assert main(["sample", "--config", cfg]) == 0
    obj = (tmp_path / "m.obj").read_text()
    assert "# nonspacelike" in obj


def test_sample_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "c.json", family="bending-spacelike",
                       a=1.0, formats=["obj", "csv"])
    for name in ("a", "b"):
        assert main(["sample", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _reference_mesh_text(patch, grid):
    """OBJ and CSV text from per-row sampling and per-element formatting,
    the writers that the bulk ones replaced."""
    us, vs = grid.axes()
    points = np.stack([patch(np.full(grid.nv, u), vs) for u in us])
    mask = verify.spacelike_region(patch, grid, h=1e-3)
    nu, nv = grid.nu, grid.nv
    obj = ["# maxsurf mesh", f"# surface {patch.label}",
           f"# grid {grid.describe()}"]
    for i in range(nu):
        for j in range(nv):
            p = points[i, j]
            obj.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    bad = np.argwhere(~mask)
    if bad.size:
        obj.append("# vertices outside the spacelike region "
                   "(1-based indices):")
        for i, j in bad:
            obj.append(f"# nonspacelike {i * nv + j + 1}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            k = i * nv + j + 1
            obj.append(f"f {k} {k + nv} {k + nv + 1} {k + 1}")
    csv = ["u,v,x,y,z,spacelike"]
    for i in range(nu):
        for j in range(nv):
            p = points[i, j]
            csv.append(",".join((f"{us[i]:.17g}", f"{vs[j]:.17g}",
                                 f"{p[0]:.17g}", f"{p[1]:.17g}",
                                 f"{p[2]:.17g}", "1" if mask[i, j] else "0")))
    return "\n".join(obj) + "\n", "\n".join(csv) + "\n"


@pytest.mark.parametrize("family, a, lam, grid", [
    ("lightlike-rotational", 0.0, None, Grid(-1.0, 1.0, 0.0, 1.0, 5, 3)),
    ("helicoidal-timelike", 2.3, 0.4, Grid(-1.0, 2.0, -0.5, 0.25, 7, 4)),
])
def test_sample_bytes_match_the_per_element_writers(tmp_path, family, a, lam,
                                                    grid):
    cfg = write_config(tmp_path / "c.json", family=family, a=a,
                       **{"lambda": lam},
                       grid={"u_min": grid.u_min, "u_max": grid.u_max,
                             "v_min": grid.v_min, "v_max": grid.v_max,
                             "nu": grid.nu, "nv": grid.nv},
                       formats=["obj", "csv"], out=str(tmp_path / "m"))
    assert main(["sample", "--config", cfg]) == 0
    surface = catalog.CatalogSurface(family, a=a, lam=lam or 0.0)
    obj, csv = _reference_mesh_text(catalog.patch(surface), grid)
    assert (tmp_path / "m.obj").read_bytes() == obj.encode()
    assert (tmp_path / "m.csv").read_bytes() == csv.encode()
    assert ("# nonspacelike" in obj) == (family == "lightlike-rotational")


def _token_mesh_text(patch, grid, mask):
    """OBJ and CSV text from a list of '%.17g' tokens laid into '%s'
    templates, the writers that the line writers replaced."""
    def tokens(values):
        flat = np.asarray(values, dtype=float).ravel().tolist()
        return ("%.17g " * len(flat) % tuple(flat)).split()

    coords = tokens(patch(*grid.mesh()))
    nu, nv = grid.nu, grid.nv
    k = np.arange(1, nu * nv + 1).reshape(nu, nv)[:-1, :-1].ravel()
    quads = np.stack((k, k + nv, k + nv + 1, k + 1), axis=-1).ravel().tolist()
    bad = (np.flatnonzero(~mask) + 1).tolist()
    obj = (f"# maxsurf mesh\n# surface {patch.label}\n"
           f"# grid {grid.describe()}\n"
           + "v %s %s %s\n" * (len(coords) // 3) % tuple(coords))
    if bad:
        obj += ("# vertices outside the spacelike region (1-based indices):\n"
                + "# nonspacelike %d\n" * len(bad) % tuple(bad))
    obj += "f %d %d %d %d\n" * k.size % tuple(quads)
    us, vs = (tokens(axis) for axis in grid.axes())
    flags = np.where(mask, "1", "0").ravel().tolist()
    rows = zip([u for u in us for _ in vs], vs * nu, coords[0::3],
               coords[1::3], coords[2::3], flags)
    csv = "u,v,x,y,z,spacelike\n" + "%s,%s,%s,%s,%s,%s\n" * len(flags) \
        % tuple(x for row in rows for x in row)
    return obj, csv


@pytest.mark.parametrize("family, a, grid, formats", [
    ("bending-timelike", 1.0, Grid(-1.0, 1.0, -0.3, 0.3, 2, 2),
     ["obj", "csv"]),
    ("lightlike-rotational", 0.0, Grid(-1.0, 1.0, 0.0, 1.0, 6, 5),
     ["obj", "csv"]),
    ("helicoidal-spacelike-ii", 2.3, Grid(-1.2, 1.2, -0.4, 0.4, 9, 4),
     ["obj"]),
    ("enneper-second-kind", 1.0, Grid(-1.0, 1.0, -1.0, -0.1, 4, 7), ["csv"]),
    # several row blocks of mesh text and of the mask, with nonspacelike
    # nodes in each
    *(("lightlike-rotational", 0.0, Grid(-1.0, 1.0, 0.0, 1.0, 400, 50),
       formats) for formats in (["obj", "csv"], ["obj"], ["csv"])),
    # rows of more than _TEXT_NODES nodes: one row per block
    *(("lightlike-rotational", 0.0, Grid(-1.0, 1.0, 0.0, 1.0, 3, 4100),
       formats) for formats in (["obj", "csv"], ["obj"], ["csv"])),
])
def test_sample_bytes_match_the_token_writers(tmp_path, family, a, grid,
                                              formats):
    raw = {"family": family, "a": a, "formats": formats,
           "out": str(tmp_path / "m"),
           "grid": {"u_min": grid.u_min, "u_max": grid.u_max,
                    "v_min": grid.v_min, "v_max": grid.v_max,
                    "nu": grid.nu, "nv": grid.nv}}
    assert main(["sample", "--config", write_config(tmp_path / "c.json",
                                                    **raw)]) == 0
    patch = catalog.patch(surface_from_config(build_job_config(raw)))
    mask = verify.spacelike_region(patch, grid, h=1e-3)
    obj, csv = _token_mesh_text(patch, grid, mask)
    assert ("# nonspacelike" in obj) == (family == "lightlike-rotational")
    for fmt, text in (("obj", obj), ("csv", csv)):
        path = tmp_path / f"m.{fmt}"
        assert path.exists() == (fmt in formats)
        if fmt in formats:
            data = path.read_bytes()
            assert data == text.encode()
            # no marker byte of the line buffer reaches the file
            assert not set(data) & set(range(0x20)) - {ord("\n")}


def _kernel_texts(values):
    tokens = cli._float_tokens(np.asarray(values, dtype=float))
    return [row[row != 0].tobytes().decode() for row in tokens]


# Raw float64 bit patterns, and patterns whose exponent puts the value in
# or next to the range 1e-4 <= |x| < 1e17 that the kernel formats itself.
_BITS = st.integers(0, 2 ** 64 - 1)
_NEAR_BITS = st.builds(lambda sign, exp, frac: sign << 63 | exp << 52 | frac,
                       st.integers(0, 1), st.integers(1023 - 15, 1023 + 57),
                       st.integers(0, 2 ** 52 - 1))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(_BITS, _NEAR_BITS), min_size=1, max_size=40))
def test_float_kernel_gives_the_bytes_of_percent_17g(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _kernel_texts(x) == ["%.17g" % v for v in x.tolist()]


def _half_way_values():
    """Doubles with 18 significant digits, the last a 5: M / 2^k in
    [10^E, 10^(E + 1)) with M odd and k = 17 - E.  Rounding them to 17
    digits is an exact tie, at |x| 10^(16 - E) above 2^53, where a double
    cannot hold it; the tie goes to the even D."""
    out = []
    for e in range(-4, 16):
        k = 17 - e
        low = ceil(Fraction(10) ** e * 2 ** k) | 1
        high = min(Fraction(10) ** (e + 1) * 2 ** k, Fraction(2 ** 53))
        top = ceil(high) - 1
        top -= 1 - top % 2
        out += [m / 2 ** k for m in (low, low + 2, low + 4, top - 2, top)]
    return out


def test_float_kernel_matches_percent_17g_on_edge_cases():
    values = []
    for e in range(-6, 19):
        p = 10.0 ** e
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        # 9.99...95 with 16 nines after the point parses to 10^(e + 1)
        values.append(float("9." + "9" * 16 + f"5e{e}"))
    ties = _half_way_values()
    for t in ties:
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, t
    values += ties
    values += [1.0, 2.0, 10.0, 123.0, 2.0 ** 53, 2.0 ** 53 + 2.0, 1e16 + 2.0,
               99999999999999984.0, 0.0, 5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, np.inf]
    values += [-v for v in values] + [np.nan]
    assert _kernel_texts(values) == ["%.17g" % v for v in values]
    assert _kernel_texts([1.0, -0.0, 0.1, 1e-4]) == [
        "1", "-0", "0.10000000000000001", "0.0001"]


def test_verify_report_schema_and_status(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="bending-spacelike", a=1.0)
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", cfg,
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "maxsurf-report/1"
    assert report["passed"] is True
    assert report["surface"]["family"] == "bending-spacelike"
    names = {c["name"] for c in report["checks"]}
    assert {"oracle-agreement", "mean-curvature", "conformality",
            "core-curve", "normal-field", "null-condition",
            "forms-match-data", "pair-reconstruction", "period-phi1",
            "period-phi2", "period-phi3", "total-curvature"} <= names
    out = capsys.readouterr().out
    assert "PASS oracle-agreement" in out
    assert out.strip().endswith("ok")


def test_verify_report_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "c.json", family="elliptic-catenoid", a=1.0)
    for name in ("r1.json", "r2.json"):
        assert main(["verify", "--config", cfg,
                     "--report", str(tmp_path / name)]) == 0
    assert (tmp_path / "r1.json").read_bytes() \
        == (tmp_path / "r2.json").read_bytes()


def _sample(out, nu, nv, *extra):
    return main(["sample", "--family", "bending-timelike", "--out", str(out),
                 "--set", f"grid.nu={nu}", "--set", f"grid.nv={nv}", *extra])


def test_rerun_over_a_longer_output_leaves_no_stale_bytes(tmp_path, capsys):
    both = ("--set", 'formats=["obj","csv"]')
    assert _sample(tmp_path / "m", 160, 160, *both) == 0
    long = (tmp_path / "m.obj").stat().st_size
    assert _sample(tmp_path / "m", 4, 4, *both) == 0
    assert _sample(tmp_path / "fresh", 4, 4, *both) == 0
    for fmt in ("obj", "csv"):
        assert (tmp_path / f"m.{fmt}").read_bytes() \
            == (tmp_path / f"fresh.{fmt}").read_bytes()
    assert (tmp_path / "m.obj").stat().st_size < long
    sizes = []
    for name, suite in (("r.json", "all"), ("r.json", "h"),
                        ("fresh.json", "h")):
        assert main(["verify", "--family", "bending-timelike", "--suite",
                     suite, "--report", str(tmp_path / name)]) == 0
        sizes.append((tmp_path / name).stat().st_size)
    assert sizes[1] < sizes[0]
    assert (tmp_path / "r.json").read_bytes() \
        == (tmp_path / "fresh.json").read_bytes()


def test_rewrite_keeps_the_inode_mode_and_links_of_an_output(tmp_path,
                                                             capsys):
    target = tmp_path / "m.obj"
    target.write_bytes(b"x" * 100_000)
    target.chmod(0o640)
    before = target.stat()
    (tmp_path / "link.obj").symlink_to(target)
    os.link(target, tmp_path / "hard.obj")
    assert _sample(tmp_path / "link", 4, 4) == 0
    assert _sample(tmp_path / "fresh", 4, 4) == 0
    after = target.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert (tmp_path / "link.obj").is_symlink()
    text = (tmp_path / "fresh.obj").read_bytes()
    assert target.read_bytes() == (tmp_path / "hard.obj").read_bytes() == text


def test_failed_rewrite_leaves_only_the_bytes_written(tmp_path, capsys,
                                                      monkeypatch):
    args = ["sample", "--family", "lightlike-rotational", "--a", "0",
            "--out", str(tmp_path / "m"), "--set", 'formats=["obj","csv"]',
            "--set", 'grid={"u_min":-1,"u_max":1,"v_min":0,"v_max":1,'
                     '"nu":400,"nv":50}']
    assert main(args) == 0
    full = {fmt: (tmp_path / f"m.{fmt}").read_bytes() for fmt in ("obj", "csv")}
    tokens = cli._float_tokens
    blocks = []

    def failing(x):
        if np.size(x) > 1000:  # the coordinates of a block of rows
            blocks.append(x)
            if len(blocks) == 2:
                raise OSError(28, "No space left on device")
        return tokens(x)

    monkeypatch.setattr(cli, "_float_tokens", failing)
    assert main(args) == 3
    assert "No space left on device" in capsys.readouterr().err
    nodes = cli._TEXT_NODES // 50 * 50  # the first block of rows
    for fmt, head in (("obj", 3), ("csv", 1)):
        lines = full[fmt].splitlines(keepends=True)
        written = b"".join(lines[:head + nodes])
        assert len(written) < len(full[fmt])
        assert (tmp_path / f"m.{fmt}").read_bytes() == written


@pytest.mark.parametrize("command, limit", [("sample", 100_000),
                                             ("verify", 1_000)])
def test_a_failed_write_cuts_the_file_at_the_bytes_that_reached_it(
        tmp_path, capsys, monkeypatch, command, limit):
    if command == "sample":
        def run(name):
            return _sample(tmp_path / name, 160, 160)
        suffix = ".obj"
    else:  # the report, a few KB, reaches the file at close, in one flush
        def run(name):
            return main(["verify", "--family", "bending-timelike", "--suite",
                         "h", "--report", str(tmp_path / (name + ".json"))])
        suffix = ".json"
    assert run("fresh") == 0
    full = (tmp_path / ("fresh" + suffix)).read_bytes()
    target = tmp_path / ("m" + suffix)
    target.write_bytes(b"#" * (len(full) + 100_000))  # a longer old file

    class FullDisk(io.FileIO):
        """Raw writes that fill the file up to limit bytes, then fail."""

        def write(self, b):
            room = limit - self.tell()
            if room <= 0:
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(memoryview(b)[:room])

    def failing_open(file, *args, **kwargs):
        if isinstance(file, int):
            return io.BufferedWriter(
                FullDisk(file, "w", closefd=kwargs.get("closefd", True)))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert run("m") == 3
    assert "No space left on device" in capsys.readouterr().err
    assert target.read_bytes() == full[:limit]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout")
def test_report_to_a_pipe_is_written_whole(tmp_path, capsys):
    argv = ["verify", "--family", "bending-timelike", "--suite", "h"]
    piped = subprocess.run([sys.executable, "-m", "maxsurf.cli", *argv,
                            "--report", "/dev/stdout"], capture_output=True)
    assert piped.returncode == 0, piped.stderr
    assert main(argv + ["--report", str(tmp_path / "r.json")]) == 0
    report = (tmp_path / "r.json").read_bytes()
    assert piped.stdout.startswith(report)
    assert piped.stdout[len(report):].decode().rstrip().endswith("\nok")


def test_verify_suite_filtering(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "c.json", family="bending-spacelike", a=2.0)
    assert main(["verify", "--config", cfg, "--suite", "periods"]) == 0
    report = json.loads(capsys.readouterr().out.split("\nPASS")[0])
    names = [c["name"] for c in report["checks"]]
    assert names == ["period-phi1", "period-phi2", "period-phi3"]

    # no periods at a twist that is not an integer
    assert main(["verify", "--config", cfg, "--suite", "periods",
                 "--a", "2.3"]) == 0
    report = json.loads(capsys.readouterr().out.split("\nSKIP")[0])
    assert report["checks"] == [] and report["skipped"] == [
        {"name": "periods",
         "reason": "forms are meromorphic only for integer twist rate"}]

    # a period that does not settle fails its check with the rule's error
    forms_for = weierstrass.forms_for

    def near_pole(surface, chart):
        triple = forms_for(surface, chart)
        return weierstrass.FormTriple(
            lambda z: (1.0 / (z - 0.999),) + tuple(triple.func(z))[1:],
            chart=triple.chart, singularities=triple.singularities)

    monkeypatch.setattr(weierstrass, "forms_for", near_pole)
    report = tmp_path / "r.json"
    assert main(["verify", "--config", cfg, "--suite", "periods",
                 "--report", str(report)]) == 1
    assert "FAIL period-phi1: residual inf" in capsys.readouterr().out
    checks = json.loads(report.read_text())["checks"]
    assert checks[0]["note"] == ("contour integral did not settle after "
                                 "16384 nodes")
    assert [c["passed"] for c in checks] == [False, True, True]

    assert main(["verify", "--config", cfg, "--suite", "h"]) == 0
    report = json.loads(capsys.readouterr().out.split("\nPASS")[0])
    names = [c["name"] for c in report["checks"]]
    assert names == ["mean-curvature", "conformality"]


def test_verify_equivariance_suite(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="elliptic-catenoid", a=1.0,
                       suite="equivariance")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "equivariance" in out
    assert "isometry:rotation-timelike-axis" in out


def test_verify_curvature_suite_skips_without_target(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="helicoidal-timelike",
                       a=1.0, suite="curvature")
    assert main(["verify", "--config", cfg]) == 0
    assert "SKIP total-curvature" in capsys.readouterr().out


# Skip reasons of `maxsurf verify`, by code; {fam} is the family id.
_SKIP_REASONS = {
    "motion": "{fam} is not invariant under a motion group acting by "
              "parameter shift",
    "chart": "{fam} has no punctured chart",
    "target": "no closed-form total curvature target for {fam} here",
    "orbit": "orbit parametrization has no Björling data in these "
             "coordinates",
    "conformal": "orbit parameters are not conformal",
    "data": "no Björling data (see oracle note)",
}

# (family, suite) -> (the checks run, in order; the skipped checks, in
# order, as name=reason code), at the family's default parameters.
_VERIFY_TABLE = {
    ("bending-timelike", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field null-condition forms-match-data pair-reconstruction",
        "equivariance=motion periods=chart total-curvature=target"),
    ("bending-timelike", "h"): ("mean-curvature conformality", ""),
    ("bending-timelike", "periods"): ("", "periods=chart"),
    ("bending-timelike", "curvature"): ("", "total-curvature=target"),
    ("bending-timelike", "equivariance"): ("", "equivariance=motion"),
    ("bending-spacelike", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field null-condition forms-match-data pair-reconstruction "
        "period-phi1 period-phi2 period-phi3 total-curvature",
        "equivariance=motion"),
    ("bending-spacelike", "h"): ("mean-curvature conformality", ""),
    ("bending-spacelike", "periods"): (
        "period-phi1 period-phi2 period-phi3",
        ""),
    ("bending-spacelike", "curvature"): ("total-curvature", ""),
    ("bending-spacelike", "equivariance"): ("", "equivariance=motion"),
    ("lightlike-rotational", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field equivariance isometry:rotation-lightlike-axis "
        "null-condition forms-match-data pair-reconstruction "
        "total-curvature",
        "periods=chart"),
    ("lightlike-rotational", "h"): ("mean-curvature conformality", ""),
    ("lightlike-rotational", "periods"): ("", "periods=chart"),
    ("lightlike-rotational", "curvature"): ("total-curvature", ""),
    ("lightlike-rotational", "equivariance"): (
        "equivariance isometry:rotation-lightlike-axis",
        ""),
    ("helicoidal-timelike", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field null-condition forms-match-data pair-reconstruction",
        "equivariance=motion periods=chart total-curvature=target"),
    ("helicoidal-timelike", "h"): ("mean-curvature conformality", ""),
    ("helicoidal-timelike", "periods"): ("", "periods=chart"),
    ("helicoidal-timelike", "curvature"): ("", "total-curvature=target"),
    ("helicoidal-timelike", "equivariance"): ("", "equivariance=motion"),
    ("helicoidal-spacelike-i", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field null-condition forms-match-data pair-reconstruction "
        "period-phi1 period-phi2 period-phi3",
        "equivariance=motion total-curvature=target"),
    ("helicoidal-spacelike-i", "h"): ("mean-curvature conformality", ""),
    ("helicoidal-spacelike-i", "periods"): (
        "period-phi1 period-phi2 period-phi3",
        ""),
    ("helicoidal-spacelike-i", "curvature"): ("", "total-curvature=target"),
    ("helicoidal-spacelike-i", "equivariance"): ("", "equivariance=motion"),
    ("helicoidal-spacelike-ii", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field null-condition forms-match-data pair-reconstruction "
        "period-phi1 period-phi2 period-phi3",
        "equivariance=motion total-curvature=target"),
    ("helicoidal-spacelike-ii", "h"): ("mean-curvature conformality", ""),
    ("helicoidal-spacelike-ii", "periods"): (
        "period-phi1 period-phi2 period-phi3",
        ""),
    ("helicoidal-spacelike-ii", "curvature"): ("", "total-curvature=target"),
    ("helicoidal-spacelike-ii", "equivariance"): ("", "equivariance=motion"),
    ("elliptic-catenoid", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field equivariance isometry:rotation-timelike-axis",
        "periods=chart total-curvature=target"),
    ("elliptic-catenoid", "h"): ("mean-curvature conformality", ""),
    ("elliptic-catenoid", "periods"): ("", "periods=chart"),
    ("elliptic-catenoid", "curvature"): ("", "total-curvature=target"),
    ("elliptic-catenoid", "equivariance"): (
        "equivariance isometry:rotation-timelike-axis",
        ""),
    ("hyperbolic-catenoid", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field equivariance isometry:rotation-spacelike-axis",
        "periods=chart total-curvature=target"),
    ("hyperbolic-catenoid", "h"): ("mean-curvature conformality", ""),
    ("hyperbolic-catenoid", "periods"): ("", "periods=chart"),
    ("hyperbolic-catenoid", "curvature"): ("", "total-curvature=target"),
    ("hyperbolic-catenoid", "equivariance"): (
        "equivariance isometry:rotation-spacelike-axis",
        ""),
    ("helicoidal-timelike-constant", "all"): (
        "oracle-agreement mean-curvature conformality core-curve "
        "normal-field equivariance isometry:screw-timelike-axis",
        "periods=chart total-curvature=target"),
    ("helicoidal-timelike-constant", "h"): ("mean-curvature conformality", ""),
    ("helicoidal-timelike-constant", "periods"): ("", "periods=chart"),
    ("helicoidal-timelike-constant", "curvature"): (
        "",
        "total-curvature=target"),
    ("helicoidal-timelike-constant", "equivariance"): (
        "equivariance isometry:screw-timelike-axis",
        ""),
    ("enneper-second-kind", "all"): (
        "mean-curvature generating-curve-ode equivariance "
        "isometry:rotation-lightlike-axis",
        "oracle-agreement=orbit conformality=conformal "
        "bjorling-recovery=data periods=chart total-curvature=target"),
    ("enneper-second-kind", "h"): (
        "mean-curvature generating-curve-ode",
        "conformality=conformal"),
    ("enneper-second-kind", "periods"): ("", "periods=chart"),
    ("enneper-second-kind", "curvature"): ("", "total-curvature=target"),
    ("enneper-second-kind", "equivariance"): (
        "equivariance isometry:rotation-lightlike-axis",
        ""),
}


@pytest.mark.parametrize("family, suite", list(_VERIFY_TABLE))
def test_verify_runs_and_skips_the_tabled_checks(tmp_path, capsys, family,
                                                 suite):
    report = tmp_path / "r.json"
    main(["verify", "--family", family, "--suite", suite,
          "--report", str(report)])
    got = json.loads(report.read_text())
    names, skips = _VERIFY_TABLE[family, suite]
    assert [c["name"] for c in got["checks"]] == names.split()
    assert [(s["name"], s["reason"]) for s in got["skipped"]] == [
        (name, _SKIP_REASONS[code].format(fam=family))
        for name, code in (s.split("=") for s in skips.split())]


def test_injected_failure_returns_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="bending-timelike", a=1.0,
                       perturb=0.05)
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL oracle-agreement" in out
    assert "FAIL core-curve" in out
    assert out.strip().endswith("FAILED")


@pytest.mark.parametrize("family, perturb", [
    ("bending-timelike", 0.05), ("bending-timelike", 0.0),
    ("helicoidal-spacelike-i", 1e-9), ("lightlike-rotational", 0.05)])
def test_oracle_residual_is_the_dense_mesh_difference(tmp_path, capsys,
                                                      family, perturb):
    # the oracle reads the patch values of the shared stencil; they carry
    # the bits of the patch evaluated on the dense mesh
    report = tmp_path / "r.json"
    main(["verify", "--family", family, "--set", f"perturb={perturb}",
          "--report", str(report)])
    (check,) = [c for c in json.loads(report.read_text())["checks"]
                if c["name"] == "oracle-agreement"]
    cfg = build_job_config({"family": family, "perturb": perturb})
    surface = surface_from_config(cfg)
    U, V = cli._default_grid(cfg, family, for_sample=False).mesh()
    numeric = cli.solve_bjorling(catalog.bjorling_data_for(surface))
    direct = np.max(np.abs(cli._patch_for(surface, cfg)(U, V)
                           - numeric(U, V)))
    assert check["residual"] == float(direct)


@pytest.mark.parametrize("family, calls", [
    ("bending-timelike", 1), ("elliptic-catenoid", 1),
    ("enneper-second-kind", 0)])
def test_verify_builds_the_bjorling_data_once(monkeypatch, capsys, family,
                                              calls):
    made = []

    def counted(surface):
        made.append(surface)
        return data_for(surface)

    data_for = catalog.bjorling_data_for
    monkeypatch.setattr(catalog, "bjorling_data_for", counted)
    main(["verify", "--family", family, "--suite", "all"])
    assert len(made) == calls


def test_config_error_paths(tmp_path, capsys, monkeypatch):
    bad_family = write_config(tmp_path / "a.json", family="moebius")
    assert main(["verify", "--config", bad_family]) == 2
    unknown_key = write_config(tmp_path / "b.json",
                               family="bending-timelike", shiny=True)
    assert main(["verify", "--config", unknown_key]) == 2
    assert "shiny" in capsys.readouterr().err
    bad_tol = write_config(tmp_path / "c.json", family="bending-timelike",
                           tolerances={"oracle": -1.0})
    assert main(["verify", "--config", bad_tol]) == 2
    bad_grid = write_config(tmp_path / "d.json", family="bending-timelike",
                            grid={"u_min": 0, "u_max": 1})
    assert main(["verify", "--config", bad_grid]) == 2
    not_json = tmp_path / "e.json"
    not_json.write_text("not json")
    assert main(["verify", "--config", str(not_json)]) == 2
    bad_lam = write_config(tmp_path / "f.json", family="helicoidal-timelike",
                           a=1.0)
    assert main(["verify", "--config", bad_lam, "--lambda", "3.0"]) == 2
    huge_int = tmp_path / "g.json"
    huge_int.write_text('{"family": "bending-timelike", "a": 1'
                        + "0" * 5000 + "}")
    not_utf8 = tmp_path / "h.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    for path in (huge_int, not_utf8):
        assert main(["verify", "--config", str(path)]) == 2, path
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for args in (["sample", "--set", "out=5"],
                 ["verify", "--set", "report=1"],
                 ["sample", "--set", "fd_step=1e400"],
                 ["verify", "--set", "tolerances.oracle=1e400"],
                 ["verify", "--set", "a=NaN"],
                 ["verify", "--set", "a=1" + "0" * 400],
                 ["verify", "--set", "a=1" + "0" * 5000]):
        assert main(args + ["--family", "bending-spacelike"]) == 2, args
        assert "config error" in capsys.readouterr().err
    # each malformed field, by its own message
    for args, message in (
            (["grid.nu=1.5"], "grid.nu must be an integer, got 1.5"),
            (["grid=5"], "grid must be an object, got 5"),
            (["grid.w=1"], "unknown grid field 'w'"),
            (["tolerances=5"], "tolerances must be an object, got 5"),
            (["tolerances.shiny=1"], "unknown tolerance 'shiny'"),
            (["suite=z"], f"unknown suite 'z'; choose from {cli._SUITES}"),
            (['formats=["png"]'], "formats must be a non-empty subset of "
                                  f"{cli._FORMATS}, got ['png']"),
            (["fd_step=-1"], "fd_step must be positive, got -1.0"),
            (["thetas=[]"], "thetas must be a non-empty list, got []"),
            (["annulus=[1]"], "annulus must be a pair, got [1]"),
            (["=5"], "override '=5' has an empty path"),
            (["a=1", "a.b=1"], "cannot override through scalar field 'a'")):
        sets = [arg for text in args for arg in ("--set", text)]
        assert main(["verify", "--family", "bending-spacelike"] + sets) == 2
        assert capsys.readouterr().err == f"config error: {message}\n", args
    assert main(["verify", "--suite", "h"]) == 2
    assert capsys.readouterr().err == ("config error: config needs a 'family' "
                                       "(see `maxsurf families`)\n")
    (tmp_path / "list.json").write_text("[1]")
    assert main(["verify", "--config", "list.json"]) == 2
    assert capsys.readouterr().err == ("config error: list.json must hold a "
                                       "JSON object\n")
    with pytest.raises(cli.ConfigError,
                       match="^config root must be a JSON object$"):
        build_job_config([])
    # an override that is not JSON is taken as a string; one format may be
    # given as a string; a valid tolerance reaches its check
    assert main(["verify", "--family", "bending-spacelike", "--suite", "h",
                 "--set", "report=r.json", "--set", "formats=csv",
                 "--set", "tolerances.conformality=2e-6"]) == 0
    checks = json.loads((tmp_path / "r.json").read_text())["checks"]
    assert [c["tolerance"] for c in checks] == [1e-5, 2e-6]
    # a finite step whose square overflows fails its residuals instead of
    # ending in an OverflowError, on complex steps and, at a twist too small
    # for them, on Richardson's stencil
    for twist in ([], ["--a", "1e-300"]):
        assert main(["verify", "--family", "bending-timelike",
                     "--set", "fd_step=1e300"] + twist) == 1
        captured = capsys.readouterr()
        assert "FAIL mean-curvature: residual nan" in captured.out
        assert "Traceback" not in captured.err
    # a family that is not a string is an unknown family, not a crash
    for value in ("[1]", "{}"):
        assert main(["verify", "--set", f"family={value}"]) == 2
        err = capsys.readouterr().err
        assert f"config error: unknown family {value}" in err
        assert "Traceback" not in err
    # the Björling surface does not depend on its anchor, so none is taken
    assert main(["verify", "--family", "bending-spacelike",
                 "--set", "u0=0.5"]) == 2
    assert "unknown config field 'u0'" in capsys.readouterr().err
    # parameters the family does not take
    for args in (["--family", "bending-timelike", "--lambda", "0.5"],
                 ["--family", "helicoidal-timelike", "--set", "cubic=2"],
                 ["--family", "elliptic-catenoid", "--set", "offset=0.5"],
                 ["--family", "enneper-second-kind", "--a", "1",
                  "--set", "cubic=2"],
                 ["--family", "enneper-second-kind", "--set", "offset=0.5"],
                 ["--family", "enneper-second-kind", "--a", "-3"]):
        assert main(["verify", "--suite", "h"] + args) == 2, args
        assert "config error" in capsys.readouterr().err
    assert main(["verify", "--suite", "h", "--family", "bending-timelike",
                 "--set", "lambda=null"]) == 0
    # a sample grid on which the surface overflows writes nothing, also
    # when the first non-finite node is in the last of several row blocks,
    # or past the first column of a row with finite nodes before it
    capsys.readouterr()
    for grid, node in (
            ('{"u_min":700,"u_max":720,"v_min":-1,"v_max":1,"nu":3,"nv":3}',
             "[1, 0], (u, v) = (710.0, -1.0)"),
            ('{"u_min":705,"u_max":709,"v_min":0,"v_max":5,"nu":5,"nv":6}',
             "[1, 5], (u, v) = (706.0, 5.0)"),
            ('{"u_min":0,"u_max":720,"v_min":-1,"v_max":1,"nu":400,"nv":50}',
             "[394, 0], (u, v) = (710.9774436090225, -1.0)")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sample", "--family", "bending-timelike", "--out",
                         "overflow", "--set", 'formats=["obj","csv"]',
                         "--set", "grid=" + grid]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: bending-timelike:a=1 has non-finite "
                       f"coordinates at grid node {node}; choose a grid on "
                       "which the surface is finite\n")
        assert caught == []
        assert not list(tmp_path.glob("overflow*"))


# finite values, near the defaults and across the whole range
_WIDE = st.floats(-3, 3) | st.floats(-1e300, 1e300) | st.sampled_from(
    [0.0, 1.0, -1e300, 1e300])
_POSITIVE = st.floats(1e-3, 3) | st.floats(1e-300, 1e300) | st.sampled_from(
    [1e-300, 1e300])
_SORTED = st.lists(_WIDE, min_size=2, max_size=2).map(sorted)


@st.composite
def _wide_configs(draw):
    """A config with up to two of its numeric fields set, of the right
    shape but drawn from the whole finite range, so that the others keep
    their defaults and the run gets past the config."""
    family = draw(st.sampled_from(sorted(catalog.FAMILY_INFO)))
    params = [p.name for p in catalog.FAMILY_INFO[family].params]
    (u_min, u_max), (v_min, v_max) = draw(_SORTED), draw(_SORTED)
    optional = {
        "a": _POSITIVE | _WIDE, "fd_step": _POSITIVE,
        "thetas": st.lists(_WIDE, min_size=1, max_size=3),
        "annulus": st.lists(_POSITIVE, min_size=2, max_size=2).map(sorted),
        "grid": st.fixed_dictionaries({
            "u_min": st.just(u_min), "u_max": st.just(u_max),
            "v_min": st.just(v_min), "v_max": st.just(v_max),
            "nu": st.integers(2, 5), "nv": st.integers(2, 5)})}
    if "lam" in params:
        optional["lambda"] = _POSITIVE | _WIDE
    if "cubic" in params:
        optional["cubic"] = _POSITIVE
    names = draw(st.lists(st.sampled_from(sorted(optional)), max_size=2,
                          unique=True))
    return dict({k: draw(optional[k]) for k in names}, family=family,
                suite=draw(st.sampled_from(cli._SUITES)))


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["sample", "verify"]), raw=_wide_configs())
# a step whose square overflows; a path of more than 2**63 lattice panels
@example(command="verify", raw={"family": "bending-timelike", "suite": "all",
                                "fd_step": 1e300})
@example(command="verify", raw={"family": "bending-spacelike", "suite": "all",
                                "grid": {"u_min": 0, "u_max": 1, "v_min": 0,
                                         "v_max": 2.0 ** 63, "nu": 2,
                                         "nv": 2}})
def test_no_config_ends_in_a_traceback(tmp_path, command, raw):
    raw = dict(raw, formats=["obj", "csv"], out=str(tmp_path / "m"),
               report=str(tmp_path / "r.json"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = main([command, "--config",
                     write_config(tmp_path / "c.json", **raw)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("args, code, line", [
    # a NaN residual fails its check instead of reading as PASS
    (["verify", "--family", "lightlike-rotational", "--set",
      "thetas=[0.3,1e200]", "--suite", "equivariance"], 1,
     "FAIL equivariance: residual nan"),
    (["verify", "--family", "hyperbolic-catenoid", "--set",
      "thetas=[0.3,800]", "--suite", "equivariance"], 1,
     "FAIL equivariance: residual nan"),
    # a degenerate core-curve normal fails normal-field, not with a traceback
    (["verify", "--family", "helicoidal-timelike", "--lambda",
      "0.999999999999"], 1, "FAIL normal-field: residual inf"),
    (["verify", "--family", "helicoidal-timelike-constant", "--lambda",
      "0.999999999999"], 1, "FAIL normal-field: residual inf"),
    (["verify", "--family", "helicoidal-spacelike-i", "--lambda",
      "1.000000000001"], 1, "FAIL normal-field: residual inf"),
    # a pitch whose square overflows is a surface that is not finite
    (["verify", "--family", "helicoidal-spacelike-ii", "--lambda", "1e200"],
     2, "config error: helicoidal-spacelike-ii:a=1:lam=1e+200 has non-finite"),
    (["sample", "--family", "helicoidal-spacelike-ii", "--lambda", "1e200"],
     2, "config error: helicoidal-spacelike-ii:a=1:lam=1e+200 has non-finite"),
    # a twist past about 354.9 overflows the generating curve's constants
    (["verify", "--family", "enneper-second-kind", "--a", "400"], 2,
     "config error: generating curve overflows at a=400: cubic=inf, "
     "offset=inf"),
    (["verify", "--family", "enneper-second-kind", "--a", "800"], 2,
     "config error: generating curve overflows at a=800: cubic=nan, "
     "offset=nan"),
    # a grid whose span overflows is refused before any node is computed
    (["verify", "--family", "bending-timelike", "--set",
      'grid={"u_min":-1e308,"u_max":1e308,"v_min":0,"v_max":1}'], 2,
     "config error: grid: grid spans must be finite, got (inf, 1.0)"),
    # a job that asks for more than the 128 TiB x86-64 address space fails
    # at its first large allocation, whatever the overcommit setting, and
    # touches little memory before it
    (["sample", "--family", "bending-timelike", "--set", "grid.nu=2",
      "--set", "grid.nv=100000000000000"], 2,
     "config error: out of memory: Unable to allocate"),
    (["verify", "--family", "lightlike-rotational", "--suite", "curvature",
      "--set", "curvature_grid=[8,100000000000000]"], 2,
     "config error: unknown config field 'curvature_grid'"),
    # a grid of more nodes than numpy can index in every array of the job
    # is refused; one just inside still fails at its first allocation
    (["verify", "--family", "bending-timelike", "--set",
      "grid.nu=9223372036854775807"], 2,
     f"config error: grid: grid needs at most {_MAX_NODES} nodes, got "
     "9223372036854775807x21"),
    (["verify", "--family", "bending-timelike", "--set",
      "grid.nv=4611686018427387904"], 2,
     f"config error: grid: grid needs at most {_MAX_NODES} nodes, got "
     "21x4611686018427387904"),
    (["sample", "--family", "bending-timelike", "--set",
      "grid.nu=4611686018427387904", "--out", "m"], 2,
     f"config error: grid: grid needs at most {_MAX_NODES} nodes, got "
     "4611686018427387904x16"),
    (["verify", "--family", "bending-timelike", "--set", "grid.nu=2",
      "--set", f"grid.nv={_MAX_NODES // 2}"], 2,
     "config error: out of memory: Unable to allocate"),
    # the total-curvature rule has no start setting: curvature grids that
    # once passed _MAX_NODES or ran out of memory are unknown fields,
    # refused before anything is allocated
    *[(["verify", "--family", "lightlike-rotational", "--suite", "curvature",
        "--set", f"curvature_grid=[{nr},{nth}]"], 2,
       "config error: unknown config field 'curvature_grid'")
      for nr, nth in ((8, 4611686018427387904), (9223372036854775806, 8),
                      (8, 9223372036854775806),
                      (8, _MAX_NODES // 9 // 2 * 2))],
])
def test_edge_inputs_fail_cleanly(tmp_path, monkeypatch, capsys, args, code,
                                  line):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == code
    out, err = capsys.readouterr()
    assert line in (out if code == 1 else err)
    assert "Traceback" not in err and caught == []
    if code == 1:
        # the report is written, with every other check still run
        assert '"passed": false' in out and out.strip().endswith("FAILED")
    if "normal-field" in line:
        assert "PASS core-curve" in out
    assert not list(tmp_path.iterdir())


def test_io_error_paths(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 3
    cfg = write_config(tmp_path / "c.json", family="bending-timelike")
    assert main(["sample", "--config", cfg,
                 "--out", str(tmp_path / "no" / "dir" / "mesh")]) == 3


def test_non_finite_curvature_integrand_is_reported(tmp_path, capsys):
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--family", "lightlike-rotational",
                     "--suite", "curvature", "--set", "annulus=[1e-3,1e300]",
                     "--report", str(report)])
    assert code == 1
    (check,) = json.loads(report.read_text())["checks"]
    assert check["residual"] == float("inf")
    assert check["note"] == ("total curvature integrand is not finite at "
                             "r = 1.60399e+154, theta = 0")
    assert "FAIL total-curvature: residual inf" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["[128,32]", "[1,1]", "[400,255]"])
def test_the_curvature_grid_is_an_unknown_field(tmp_path, capsys, value):
    # the total-curvature rule has no setting: its start is fixed, so the
    # old default and the grids it once refused are all unknown fields
    report = tmp_path / "r.json"
    assert main(["verify", "--family", "bending-spacelike", "--suite",
                 "curvature", "--set", f"curvature_grid={value}",
                 "--report", str(report)]) == 2
    assert ("config error: unknown config field 'curvature_grid'"
            in capsys.readouterr().err)
    assert not report.exists()


def test_a_config_file_cannot_set_the_curvature_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="bending-spacelike",
                       curvature_grid=[128, 32])
    report = tmp_path / "r.json"
    assert main(["verify", "--config", cfg, "--suite", "curvature",
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown config field 'curvature_grid'" in err
    assert "Traceback" not in err and not report.exists()


def test_the_curvature_check_reports_its_fixed_start(tmp_path):
    # the report names the rule's start as the old default did, so reports
    # of the same job read the same
    report = tmp_path / "r.json"
    assert main(["verify", "--family", "bending-spacelike", "--suite",
                 "curvature", "--report", str(report)]) == 0
    (check,) = json.loads(report.read_text())["checks"]
    assert check["name"] == "total-curvature" and check["passed"]
    assert check["grid"] == "annulus (0.001, 1000.0), grid (128, 32)"


def test_nearly_lightlike_helix_passes_its_oracle(tmp_path, capsys):
    # at lam = 1 - 1e-12 the frame integrand solves the 21x21 grid at once
    # and matches the forms; the finite-difference normal of the closed form
    # still finds its tangent plane degenerate
    report = tmp_path / "r.json"
    assert main(["verify", "--family", "helicoidal-timelike",
                 "--lambda", "0.999999999999", "--suite", "all",
                 "--report", str(report)]) == 1
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    for name in ("oracle-agreement", "forms-match-data"):
        assert checks[name]["passed"] is True, checks[name]
        assert "note" not in checks[name]
    assert checks["normal-field"]["passed"] is False
    assert checks["normal-field"]["note"] == (
        "degenerate tangent plane along the core curve at u=-1.0")


def test_repeated_main_calls_match_fresh_runs(tmp_path, capsys):
    # the parser is built once per process; an override given to one call
    # must not reach the next
    runs = [["--set", "grid.nu=9"], []]
    in_process = []
    for i, extra in enumerate(runs):
        report = tmp_path / f"in{i}.json"
        code = main(["verify", "--family", "bending-timelike", "--suite", "h",
                     *extra, "--report", str(report)])
        in_process.append((code, capsys.readouterr().out, report.read_bytes()))
    fresh = []
    for i, extra in enumerate(runs):
        report = tmp_path / f"fresh{i}.json"
        proc = subprocess.run([sys.executable, "-m", "maxsurf.cli", "verify",
                               "--family", "bending-timelike", "--suite", "h",
                               *extra, "--report", str(report)],
                              capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout, report.read_bytes()))
    assert in_process == fresh
    assert in_process[0][2] != in_process[1][2]
    assert cli._build_parser() is cli._build_parser()


def test_set_overrides_reach_nested_fields(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="bending-spacelike", a=1.0,
                       grid={"u_min": -1.0, "u_max": 1.0, "v_min": -0.4,
                             "v_max": 0.4, "nu": 21, "nv": 21})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "m"),
                 "--set", "grid.nu=8", "--set", "grid.nv=6"]) == 0
    obj = (tmp_path / "m.obj").read_text().splitlines()
    assert sum(1 for l in obj if l.startswith("v ")) == 48


def test_partial_grid_override_merges_onto_the_default_grid(tmp_path,
                                                            capsys):
    assert main(["sample", "--family", "bending-timelike",
                 "--out", str(tmp_path / "m"), "--set", "grid.nu=8"]) == 0
    assert "wrote " + str(tmp_path / "m.obj") + ": 128 vertices" \
        in capsys.readouterr().out
    report = tmp_path / "r.json"
    assert main(["verify", "--family", "bending-timelike", "--suite", "h",
                 "--report", str(report), "--set", "grid.nv=5"]) == 0
    assert json.loads(report.read_text())["grid"] == "[-1,1]x[-1,1] 21x5"


def test_set_override_rejects_bad_path(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="bending-spacelike")
    assert main(["verify", "--config", cfg, "--set", "a.b=1"]) == 2
    assert main(["verify", "--config", cfg, "--set", "noequals"]) == 2


def test_flags_override_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="bending-timelike", a=1.0)
    report = tmp_path / "r.json"
    assert main(["verify", "--config", cfg, "--family", "elliptic-catenoid",
                 "--suite", "h", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["surface"]["family"] \
        == "elliptic-catenoid"


def test_enneper_verify_runs_orbit_checks(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", family="enneper-second-kind",
                       a=1.0, suite="h")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "generating-curve-ode" in out
    assert "orbit-identification" in out


def test_console_entry_point_round_trip(tmp_path):
    """`python -m maxsurf.cli` and the `maxsurf` console script both work.

    The console script is the installed `maxsurf` when one is on PATH;
    otherwise it is the `[project.scripts]` declaration in `pyproject.toml`,
    run through `sys.executable` as a console-script wrapper would run it.
    """
    cfg = write_config(tmp_path / "c.json", family="bending-timelike", a=1.0,
                       out=str(tmp_path / "m"))
    first = subprocess.run([sys.executable, "-m", "maxsurf.cli", "sample",
                            "--config", cfg], capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    script = shutil.which("maxsurf")
    if script is not None:
        command = [script]
    else:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            spec = tomllib.load(fh)["project"].get("scripts", {}).get("maxsurf")
        match = re.fullmatch(r"([\w.]+):(\w+)", spec or "")
        assert match, f"`maxsurf = {spec!r}` is not a module:function spec"
        module, func = match.groups()
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        command = [sys.executable, "-c", wrapper]
    listing = subprocess.run(command + ["families"], capture_output=True,
                             text=True)
    assert listing.returncode == 0
    assert "bending-timelike" in listing.stdout
