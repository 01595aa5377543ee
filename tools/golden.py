"""Write golden `maxsurf` outputs and their SHA-256 sums into a directory.

    PYTHONPATH=src python tools/golden.py OUTDIR

The tree holds, for the `maxsurf` found on the import path:

- the `verify` report and stdout of every family and suite at a = 1, 2
  and 2.3, with the default lambda and, for the helicoid families, one
  other lambda;
- the `sample` OBJ, CSV and stdout of every family at the default grid,
  at the default a and at a = 2.3;
- the same for lightlike-rotational at a = 0 on [-1, 1]x[0, 1] at
  400x50, a grid of several row blocks with nonspacelike nodes;
- the `verify --suite all` report and stdout of bending-timelike and
  helicoidal-spacelike-i at their defaults on [-3, 3]^2 at 21x21, whose
  oracle solves integrate their partial panels one by one;
- the `verify --suite all` report and stdout of bending-timelike and
  elliptic-catenoid at their defaults on [-1, 1]x[-1.5, -0.1] at 21x21,
  a grid entirely below the real axis, whose oracle solves take every
  point as its mirror image;
- the `verify --suite all` report and stdout of bending-timelike with
  `perturb=0.05`, a patch that is not analytic, so its derivatives take
  the Richardson stencil beside the grid's node values;
- the `verify --suite periods` report and stdout of bending-spacelike and
  helicoidal-spacelike-ii at a = 1e-10, an integer twist that rounds to 0,
  where the periods check is skipped;
- the `verify --suite periods` and `--suite curvature` reports and stdout
  of bending-spacelike at a = 2.0000000005, within catalog.integer_rate's
  1e-9 of 2, whose checks read the a = 2 forms;
- the `sample` OBJ, CSV and stdout and the `verify --suite all` report and
  stdout of bending-spacelike at a = 1, 2 and 2.3 on ZERO_GRID, whose
  nodes include u = 0 and v = 0, where a closed form that adds 0.0 * u
  could print -0 for 0;
- the stdout of bending-timelike refused in every suite on OVERFLOW_GRID,
  where cosh overflows: `verify` evaluates its grid before any check;
- the stdout of bending-timelike `verify --report ""` and
  `sample --out ""`, refused: an empty path is not read as no path;
- the `families` listing.

Each stdout file ends with the exit code.  `OUTDIR/SHA256SUMS` lists every
file with its sum, so two trees hold the same bytes exactly when their
sums files are equal:

    diff OLD/SHA256SUMS NEW/SHA256SUMS
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

from maxsurf import catalog, cli

TWISTS = ("1", "2", "2.3")
# Families verified on WIDE_GRID besides their default grids.
WIDE_FAMILIES = (catalog.BENDING_TIMELIKE, catalog.HELICOIDAL_SPACELIKE_I)
WIDE_GRID = '{"u_min":-3,"u_max":3,"v_min":-3,"v_max":3,"nu":21,"nv":21}'
# Families verified on LOWER_GRID, below the real axis, besides.
LOWER_FAMILIES = (catalog.BENDING_TIMELIKE, catalog.ELLIPTIC_CATENOID)
LOWER_GRID = ('{"u_min":-1,"u_max":1,"v_min":-1.5,"v_max":-0.1,'
              '"nu":21,"nv":21}')
# Families whose periods check is skipped at a twist that rounds to 0.
ZERO_RATE_FAMILIES = (catalog.BENDING_SPACELIKE,
                      catalog.HELICOIDAL_SPACELIKE_II)
# A twist that catalog.integer_rate takes as the integer 2, and the suites
# whose checks it decides.
NEAR_INTEGER_TWIST = "2.0000000005"
NEAR_INTEGER_SUITES = ("periods", "curvature")
# bending-spacelike's default box at 25x17, with nodes at u = 0 and v = 0.
ZERO_GRID = ('{"u_min":-1.2,"u_max":1.2,"v_min":-0.4,"v_max":0.4,'
             '"nu":25,"nv":17}')
# A grid with non-finite nodes, which `verify` refuses before any check.
OVERFLOW_GRID = ('{"u_min":700,"u_max":720,"v_min":-1,"v_max":1,'
                 '"nu":3,"nv":3}')
# One lambda per helicoid family besides the default, inside its range.
OTHER_LAMBDA = {
    catalog.HELICOIDAL_TIMELIKE: "0.3",
    catalog.HELICOIDAL_SPACELIKE_I: "1.5",
    catalog.HELICOIDAL_SPACELIKE_II: "0.5",
    catalog.HELICOIDAL_TIMELIKE_CONSTANT: "0.3",
}


def run(name, argv):
    """Run `maxsurf argv`; write its stdout and stderr, then its exit code,
    to NAME.out in the current directory."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    with open(name + ".out", "w", newline="\n") as fh:
        fh.write(sink.getvalue() + f"exit {code}\n")


def jobs():
    """(file name, argv) of every golden run."""
    yield "families", ["families"]
    for fam in catalog.FAMILY_INFO:
        lams = [None] + ([OTHER_LAMBDA[fam]] if fam in OTHER_LAMBDA else [])
        for suite in cli._SUITES:
            for a in TWISTS:
                for lam in lams:
                    name = f"verify-{fam}-{suite}-a{a}"
                    argv = ["verify", "--family", fam, "--suite", suite,
                            "--a", a]
                    if lam is not None:
                        name += f"-lambda{lam}"
                        argv += ["--lambda", lam]
                    yield name, argv + ["--report", name + ".json"]
        for a in (None, "2.3"):
            name = f"sample-{fam}" + ("" if a is None else f"-a{a}")
            argv = ["sample", "--family", fam, "--out", name,
                    "--set", 'formats=["obj","csv"]']
            yield name, argv + ([] if a is None else ["--a", a])
    name = "sample-lightlike-rotational-a0-400x50"
    yield name, ["sample", "--family", catalog.LIGHTLIKE_ROTATIONAL, "--a",
                 "0", "--out", name, "--set", 'formats=["obj","csv"]',
                 "--set", 'grid={"u_min":-1,"u_max":1,"v_min":0,"v_max":1,'
                          '"nu":400,"nv":50}']
    for suffix, families, grid in (("wide", WIDE_FAMILIES, WIDE_GRID),
                                   ("lower", LOWER_FAMILIES, LOWER_GRID)):
        for fam in families:
            name = f"verify-{fam}-all-{suffix}"
            yield name, ["verify", "--family", fam, "--suite", "all",
                         "--set", "grid=" + grid, "--report", name + ".json"]
    for fam in ZERO_RATE_FAMILIES:
        name = f"verify-{fam}-periods-a1e-10"
        yield name, ["verify", "--family", fam, "--suite", "periods", "--a",
                     "1e-10", "--report", name + ".json"]
    fam = catalog.BENDING_SPACELIKE
    for suite in NEAR_INTEGER_SUITES:
        name = f"verify-{fam}-{suite}-a{NEAR_INTEGER_TWIST}"
        yield name, ["verify", "--family", fam, "--suite", suite, "--a",
                     NEAR_INTEGER_TWIST, "--report", name + ".json"]
    for a in TWISTS:
        name = f"sample-{fam}-a{a}-25x17"
        yield name, ["sample", "--family", fam, "--a", a, "--out", name,
                     "--set", 'formats=["obj","csv"]', "--set",
                     "grid=" + ZERO_GRID]
        name = f"verify-{fam}-all-a{a}-25x17"
        yield name, ["verify", "--family", fam, "--suite", "all", "--a", a,
                     "--set", "grid=" + ZERO_GRID, "--report", name + ".json"]
    fam = catalog.BENDING_TIMELIKE
    name = f"verify-{fam}-all-perturb"
    yield name, ["verify", "--family", fam, "--suite", "all", "--set",
                 "perturb=0.05", "--report", name + ".json"]
    for suite in cli._SUITES:
        name = f"verify-{fam}-{suite}-overflow"
        yield name, ["verify", "--family", fam, "--suite", suite, "--set",
                     "grid=" + OVERFLOW_GRID, "--report", name + ".json"]
    yield f"verify-{fam}-periods-empty-report", [
        "verify", "--family", fam, "--suite", "periods", "--report", ""]
    yield f"sample-{fam}-empty-out", ["sample", "--family", fam, "--out", ""]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = args[0]
    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    for name, job in jobs():
        run(name, job)
    lines = []
    for name in sorted(os.listdir(".")):
        if name != "SHA256SUMS":
            with open(name, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  "
                             f"{name}\n")
    with open("SHA256SUMS", "w", newline="\n") as fh:
        fh.writelines(lines)
    print(f"{len(lines)} files, sums in {os.path.join(out, 'SHA256SUMS')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
