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
import contextlib
import functools
import json
import os
import stat
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import catalog, frames, verify
from .bjorling import (_PASS_POINTS, NODES, QuadratureError, SurfacePatch,
                       solve_bjorling)
from .verify import CheckResult, Grid

SCHEMA = "maxsurf-report/1"

_SUITES = ("all", "h", "periods", "curvature", "equivariance")
_FORMATS = ("obj", "csv")

_GRID_BOUNDS = ("u_min", "u_max", "v_min", "v_max")
_GRID_KEYS = frozenset(_GRID_BOUNDS + ("nu", "nv"))


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


class JobConfig(NamedTuple):
    family: str
    a: float | None
    lam: float | None
    cubic: float | None
    offset: float | None
    grid: dict
    tolerances: dict
    out: str | None
    formats: tuple
    report: str | None
    suite: str
    perturb: float
    fd_step: float
    annulus: tuple
    thetas: tuple


def _number(value, where):
    if not frames.finite_real(value):
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


def _build_tolerances(raw) -> dict:
    tols = dict(_TOLERANCES)
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


def build_job_config(raw: dict) -> JobConfig:
    """Validate a raw config dict into a JobConfig; raises ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(map(_key, JobConfig._fields))
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    family = raw.get("family")
    if family is None:
        raise ConfigError("config needs a 'family' (see `maxsurf families`)")
    if not isinstance(family, str) or family not in catalog.FAMILY_INFO:
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
    for key in ("out", "report"):  # "" would read as no path
        if raw.get(key) == "" or not isinstance(raw.get(key),
                                                (str, type(None))):
            raise ConfigError(f"{key} must be a path string or null, "
                              f"got {raw[key]!r}")
    annulus = raw.get("annulus", [1e-3, 1e3])
    if not isinstance(annulus, (list, tuple)) or len(annulus) != 2:
        raise ConfigError(f"annulus must be a pair, got {annulus!r}")
    annulus = (_number(annulus[0], "annulus"), _number(annulus[1], "annulus"))
    try:
        frames.check_curvature_domain(annulus)
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
        tolerances=_build_tolerances(raw.get("tolerances")),
        out=raw.get("out"),
        formats=tuple(formats),
        report=raw.get("report"),
        suite=suite,
        perturb=_number(raw.get("perturb", 0.0), "perturb"),
        fd_step=fd_step,
        annulus=annulus,
        thetas=tuple(_number(t, "thetas") for t in thetas),
    )


def _key(name: str) -> str:
    """The config key of a CatalogSurface or JobConfig field."""
    return "lambda" if name == "lam" else name


def surface_from_config(cfg: JobConfig) -> catalog.CatalogSurface:
    """The surface the config names.  A family takes the fields of its
    params, or, without those that have no default, its orbit_of field."""
    fam = cfg.family
    info = catalog.FAMILY_INFO[fam]
    given = [p for p in ("a", "lam", "cubic", "offset")
             if getattr(cfg, p) is not None]
    own = [p.name for p in info.params]
    derive = info.orbit_of is not None and not any(
        p.default is None and p.name in given for p in info.params)
    if set(given) - set([info.orbit_of.name] if derive else own):
        alone = f", or {info.orbit_of.name} alone" if info.orbit_of else ""
        raise ConfigError(
            f"{fam} takes {' and '.join(map(_key, own))}{alone}; "
            f"got {' and '.join(map(_key, given))}")
    try:
        if derive:
            a = info.orbit_of.default if cfg.a is None else cfg.a
            info.orbit_of.check(fam, a)
            curve = catalog.generating_curve_for(a)
            return catalog.CatalogSurface(fam, cubic=curve.cubic,
                                          offset=curve.offset)
        return catalog.CatalogSurface(fam, **{
            p.name: p.default if getattr(cfg, p.name) is None
            else getattr(cfg, p.name) for p in info.params})
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
                        label=base.label + f":perturb={eps:g}",
                        broadcasts=base.broadcasts)


def _default_grid(cfg: JobConfig, fam: str, for_sample: bool) -> Grid:
    """The command's default grid for the family, with the config's grid
    fields laid over it."""
    info = catalog.FAMILY_INFO[fam]
    if for_sample:
        grid = Grid.from_domain(info.domain, nu=64, nv=16)
    else:
        grid = Grid.from_domain(info.verify_domain or info.domain,
                                nu=21, nv=21)
    try:
        return replace(grid, **cfg.grid)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


# Unused by `sample`; bench/run.py still records and calibrates with it.
def _thread_count() -> int:
    return os.cpu_count() or 1


# Mesh text.  '%.17g' of a double x with 1e-4 <= |x| < 1e17 is its
# fixed-point form: the 17-digit integer D = round-half-even(|x| 10^(16 - E)),
# E being the decimal exponent of |x|, with the point after digit E (or with
# "0." and -E - 1 zeros before D when E < 0), and with the trailing zeros of
# the fraction stripped.  _float_tokens computes D exactly in numpy: 10^k is
# an exact double for k <= 22, and Dekker's product (Numer. Math. 18, 1971)
# gives |x| 10^k as an exact sum hi + lo of doubles.  Other values, and the
# non-finite ones, go through '%.17g' itself.
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles


def _halves(y):
    """Veltkamp's split of y into a sum of two 26-bit doubles."""
    c = _SPLIT * y
    high = c - (c - y)
    return high, y - high


# 10^k for k = 0..20 and its halves.
_POW10 = np.array([10.0 ** k for k in range(21)])
_POW10_HIGH, _POW10_LOW = _halves(_POW10)
# A token has _WIDTH columns, the length of the longest '%.17g' text,
# "-2.2250738585072014e-308": the sign, "0." and three zeros for E < 0, then
# 18 slots for the digits and the point.
_WIDTH = 24
_PREFIX = np.frombuffer(b"-0.000", np.uint8)[:, None]
# the largest E that shows each character of "0.000"
_LEADS = np.array([-1, -1, -2, -3, -4], np.int8)[:, None]
_SLOTS = np.arange(18, dtype=np.int8)[:, None]
_ZERO, _POINT = ord("0"), ord(".")
for _table in (_POW10, _POW10_HIGH, _POW10_LOW, _LEADS, _SLOTS):
    _table.flags.writeable = False
# Nodes per block of mesh text: half a pass.  On a 160x160 OBJ+CSV sample
# (2-core Xeon), blocks of 8192 / 4096 / 2048 nodes wrote in 27.4 / 25.9 /
# 27.5 ms (medians of 200 interleaved runs), and the writer's arrays
# peaked at 5.7 / 3.0 / 1.5 MB (tracemalloc).
_TEXT_NODES = _PASS_POINTS // 2


def _scaled(a, e):
    """a 10^(16 - e) as the exact sum hi + lo of two doubles (Dekker)."""
    k = 16 - e
    hi = a * _POW10[k]
    (ah, al), ph, pl = _halves(a), _POW10_HIGH[k], _POW10_LOW[k]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _pick(mask, if_true, if_false):
    """np.where(mask, if_true, if_false) for uint8 arrays, by bit ops."""
    return if_false ^ (if_true ^ if_false) * mask.view(np.uint8)


def _float_tokens(x):
    """'%.17g' % v for each v of x, in C order, as tokens: one row of
    _WIDTH bytes per value, its text with NUL bytes between and after.
    The rows are a transposed view, which the writers copy once, into the
    text."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    # log10 may miss E by one next to a power of ten; the exact product
    # puts it right.
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _scaled(a, e)
    moved = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).view(np.int8) - (
        (hi < 1e16) | (hi == 1e16) & (lo < 0)).view(np.int8)
    if moved.any():
        e += moved
        hi, lo = _scaled(a, e)
    # hi is an even integer in [1e16, 1e17], so hi + lo ties the way lo
    # does.  D never rounds up to 10^17: the double below each power of ten
    # in range lies more than 10^(E - 16) / 2 below it.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    e = e.astype(np.int8)
    # The work below runs on rows of n values, one row per column of the
    # tokens.  D is its leading digit and four groups of four digits.
    top = d // 10 ** 8
    rest = (d - top * 10 ** 8).astype(np.uint32)
    top = top.astype(np.uint32)
    head = top // 10 ** 4
    lead = head // 10 ** 4
    groups = np.stack((head - lead * 10 ** 4, top - head * 10 ** 4,
                       rest // 10 ** 4, rest % 10 ** 4)).astype(np.uint16)
    # digits[s + 1] is digit s of D; rows 0 and 18 pad
    digits = np.empty((19, n), np.uint8)
    digits[0] = digits[18] = _ZERO
    digits[1] = lead + _ZERO
    quads = digits[2:18].reshape(4, 4, n)
    for j, unit in enumerate((1000, 100, 10, 1)):
        q = groups // unit
        quads[:, j] = q + _ZERO
        groups -= q * unit
    # digits up to the last nonzero one, and at least up to digit E
    kept = np.maximum(np.maximum(e, 0) + 1,
                      ((digits[1:18] != _ZERO) * _SLOTS[1:]).max(0))
    # The point goes into slot b + 1: after digit E, or, when E < 0, into
    # the last slot, which is then unused.
    b = np.maximum(e, 0) + (e < 0) * np.int8(16)
    chars = np.empty((_WIDTH, n), np.uint8)
    chars[0] = _PREFIX[0] * (x < 0)
    chars[1:6] = _PREFIX[1:] * (e <= _LEADS)
    chars[6:] = _pick(_SLOTS == b + 1, np.uint8(_POINT),
                      _pick(_SLOTS <= b, digits[1:], digits[:-1]))
    chars[6:] *= _SLOTS < kept + (kept > b + 1)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()],
                        dtype=f"S{_WIDTH}")
        chars[:, slow] = text.view(np.uint8).reshape(-1, _WIDTH).T
    return chars.T


def _int_tokens(k):
    """'%d' of each non-negative integer of k (not empty), as tokens (a
    transposed view, as from _float_tokens)."""
    k = np.asarray(k).ravel()
    width = len(str(int(k.max())))
    rest = k.astype(np.uint32 if k.max() < 2 ** 32 else np.uint64)
    chars = np.empty((width, k.size), np.uint8)
    for j in range(width - 1, -1, -1):
        q = rest // 10
        chars[j] = rest - q * 10 + _ZERO
        if j < width - 1:  # a leading zero is no digit
            chars[j] *= k >= 10 ** (width - 1 - j)
        rest = q
    return chars.T


def _lines(*parts) -> bytes:
    """The text of lines laid out from parts: each part is bytes that every
    line holds there, or the tokens of a field, one per line, whose leading
    axes broadcast against the shape of the lines and whose NUL bytes are
    dropped."""
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in parts
                                  if not isinstance(p, bytes)))
    widths = [len(p) if isinstance(p, bytes) else p.shape[-1] for p in parts]
    chars = np.empty(shape + (sum(widths),), np.uint8)
    at = 0
    for part, w in zip(parts, widths):
        chars[..., at:at + w] = (np.frombuffer(part, np.uint8)
                                 if isinstance(part, bytes) else part)
        at += w
    return chars.tobytes().translate(None, b"\0")


@contextlib.contextmanager
def _rewrite(path):
    """A binary file that replaces the content of path: written from its
    start over the old bytes, then cut at the last byte that reached the
    file when it closes, on success or on an exception (also when the
    exception is a failed write or flush).  The result is the inode, mode
    and bytes that open(path, "wb") leaves, without freeing the old blocks
    at open, which on ext4 can wait for the writeback of the last run's
    file.  A run that is killed before it closes the file (SIGKILL, an
    unhandled SIGTERM) leaves the new bytes followed by the old file's
    tail, where "wb" would leave the new bytes alone.  A pipe or a device
    is written and never cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb", closefd=False) as fh:
            yield fh
    finally:
        try:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if st.st_size > end:  # a fresh or same-size file is whole
                    os.ftruncate(fd, end)
        finally:
            os.close(fd)


_LINE = np.frombuffer(b"%s,%s,\2\3%s\1%s\1%s\4\0\n" % ((b"\0" * _WIDTH,) * 5),
                      np.uint8)
_XYZ = tuple(2 * _WIDTH + 4 + k * (_WIDTH + 1) for k in range(3))
_V, _FLAG = _WIDTH + 1, _LINE.size - 2
_CSV_TABLE = bytes.maketrans(b"\1\4", b",,")
_OBJ_TABLE = bytes.maketrans(b"\1\2\3\4", b" v \n")


def _write_mesh(paths, label, grid: Grid, points, mask):
    r"""Write the OBJ and/or CSV mesh of the (nu, nv, 3) points with their
    spacelike mask, in blocks of rows of at most _TEXT_NODES nodes (one row
    when a row holds more), so that the text never holds the whole mesh.

    One _float_tokens call per block formats its x, y, z and u (and the v
    axis for a new block shape) into a buffer of lines, allocated with its
    separators and v tokens once per block shape; each line is _LINE:
        u , v , \2 \3 x \1 y \1 z \4 flag \n
    with NUL-padded tokens.  The CSV block is the buffer with NUL, \2 and
    \3 dropped and \1 and \4 read as commas (_CSV_TABLE); the OBJ vertex
    block is its columns from \2 to \4 with NUL dropped, \2 read as "v",
    \3 and \1 as spaces and \4 as a newline (_OBJ_TABLE).  Each file is
    rewritten in place and cut to its new length (see _rewrite), no fsync."""
    nu, nv = grid.nu, grid.nv
    vs = grid.axes()[1]
    buf = None
    with contextlib.ExitStack() as stack:
        files = {fmt: stack.enter_context(_rewrite(path))
                 for fmt, path in paths.items()}
        obj, csv = files.get("obj"), files.get("csv")
        if obj:
            obj.write(f"# maxsurf mesh\n# surface {label}\n"
                      f"# grid {grid.describe()}\n".encode())
        if csv:
            csv.write(b"u,v,x,y,z,spacelike\n")
        for rows, (us, _) in grid.row_blocks(_TEXT_NODES, sparse=True):
            block = points[rows]
            r, n = len(block), len(block) * nv
            fresh = buf is None or len(buf) != r
            if fresh:
                buf = np.empty((r, nv, _LINE.size), np.uint8)
                buf[...] = _LINE
            tokens = _float_tokens(np.concatenate((
                np.moveaxis(block, -1, 0).ravel(), us.ravel(),
                vs if fresh else vs[:0])))
            for k, at in enumerate(_XYZ):
                buf[..., at:at + _WIDTH] = tokens[k * n:(k + 1) * n].reshape(
                    r, nv, _WIDTH)
            buf[..., :_WIDTH] = tokens[3 * n:3 * n + r, None]
            if fresh:
                buf[..., _V:_V + _WIDTH] = tokens[3 * n + r:]
            buf[..., _FLAG] = mask[rows] + np.uint8(_ZERO)
            if obj:
                obj.write(buf[..., _XYZ[0] - 2:_FLAG].tobytes().translate(
                    _OBJ_TABLE, b"\0"))
            if csv:
                csv.write(buf.tobytes().translate(_CSV_TABLE, b"\0\2\3"))
        if obj:
            bad = np.flatnonzero(~mask) + 1
            if bad.size:
                obj.write(b"# vertices outside the spacelike region "
                          b"(1-based indices):\n")
            for i in range(0, bad.size, _TEXT_NODES):
                obj.write(_lines(b"# nonspacelike ",
                                 _int_tokens(bad[i:i + _TEXT_NODES]), b"\n"))
            # the faces of rows i..j - 1 join vertex rows i..j; t holds the
            # 1-based index of each of those vertices
            rows = max(1, _TEXT_NODES // nv)
            for i in range(0, nu - 1, rows):
                j = min(i + rows, nu - 1)
                t = _int_tokens(np.arange(i * nv + 1, (j + 1) * nv + 1))
                t = t.reshape(j + 1 - i, nv, -1)
                obj.write(_lines(b"f ", t[:-1, :-1], b" ", t[1:, :-1], b" ",
                                 t[1:, 1:], b" ", t[:-1, 1:], b"\n"))


def _output_paths(out: str, formats):
    base = out
    for fmt in _FORMATS:
        suffix = "." + fmt
        if base.endswith(suffix):
            base = base[:-len(suffix)]
            break
    return {fmt: base + "." + fmt for fmt in formats}


def _grid_values(patch, grid: Grid):
    """The patch's (nu, nv, 3) values at the grid nodes, once per command,
    in row blocks; refuses a non-finite node, naming the first such node."""
    points = np.empty((grid.nu, grid.nv, 3))
    for rows, mesh in grid.row_blocks(_PASS_POINTS, patch.broadcasts):
        points[rows] = patch(*mesh)
    if not np.isfinite(points).all():
        i, j = np.argwhere(~np.isfinite(points).all(axis=-1))[0]
        us, vs = grid.axes()
        raise ConfigError(
            f"{patch.label} has non-finite coordinates at grid node "
            f"[{i}, {j}], (u, v) = ({float(us[i])!r}, {float(vs[j])!r}); "
            "choose a grid on which the surface is finite")
    return points


def cmd_sample(cfg: JobConfig) -> int:
    surface = surface_from_config(cfg)
    grid = _default_grid(cfg, surface.family, for_sample=True)
    patch = _patch_for(surface, cfg)
    with np.errstate(all="ignore"):
        points = _grid_values(patch, grid)
        mask = verify.spacelike_region(patch, grid, h=cfg.fd_step)
    paths = _output_paths(cfg.out or "mesh", cfg.formats)
    _write_mesh(paths, patch.label, grid, points, mask)
    for fmt, path in paths.items():
        if fmt == "obj":
            faces = (grid.nu - 1) * (grid.nv - 1)
            print(f"wrote {path}: {grid.nu * grid.nv} vertices, {faces} faces")
        else:
            print(f"wrote {path}: {grid.nu * grid.nv} rows")
    return 0


class _Job:
    """What the checks of one `verify` run read.  values are _grid_values,
    as `sample` evaluates its grid; data is catalog.bjorling_data_for, or
    None without info.curve."""

    def __init__(self, cfg: JobConfig, surface: catalog.CatalogSurface,
                 patch: SurfacePatch, grid: Grid, info: catalog.Family,
                 values: np.ndarray, data):
        self.cfg, self.surface, self.patch = cfg, surface, patch
        self.grid, self.info, self.values, self.data = grid, info, values, data

    @functools.cached_property
    def stencil(self):  # verify.grid_stencil, built when a check reads it
        return verify.grid_stencil(self.patch, self.grid, self.cfg.fd_step)


# (name, suites, rule, run) of each check, in the order they run.
# rule(job) is True when the check runs, False when it does not apply, or
# the reason it is skipped; run(job) returns its CheckResults.  _TOLERANCES
# holds the default of each config tolerance, from the checks that read it.
_CHECKS = []
_TOLERANCES = {}


def _verifies(name, suites, rule=lambda job: True, **tolerances):
    def register(run):
        _CHECKS.append((name, ("all",) + suites, rule, run))
        _TOLERANCES.update(tolerances)
        return run
    return register


def _has_data(why):
    # Björling solutions are conformal; the orbit parameters are not.
    return lambda job: job.info.curve is not None or why


@_verifies("oracle-agreement", (), _has_data(
    "orbit parametrization has no Björling data in these coordinates"),
    oracle=1e-8)
def _oracle(job):
    numeric = solve_bjorling(job.data)
    note = ""
    try:
        res = float(np.max(np.abs(job.values - numeric(*job.grid.mesh()))))
    except QuadratureError as exc:
        res, note = float("inf"), str(exc)
    return [CheckResult("oracle-agreement", res, job.cfg.tolerances["oracle"],
                        job.grid.describe(), note=note)]


@_verifies("mean-curvature", ("h",), mean_curvature=1e-5)
def _mean_curvature(job):
    value, flagged = verify.mean_curvature_scan(
        job.patch, job.grid, h=job.cfg.fd_step, stencil=job.stencil)
    return [CheckResult("mean-curvature", value,
                        job.cfg.tolerances["mean_curvature"],
                        job.grid.describe(), flagged)]


@_verifies("conformality", ("h",),
           _has_data("orbit parameters are not conformal"), conformality=1e-6)
def _conformality(job):
    res = verify.conformality_residual(job.patch, job.grid, h=job.cfg.fd_step,
                                       stencil=job.stencil)
    return [CheckResult("conformality", res,
                        job.cfg.tolerances["conformality"],
                        job.grid.describe())]


@_verifies("generating-curve-ode", ("h",),
           lambda job: job.info.orbit_of is not None, ode=1e-12)
def _ode(job):
    s = job.surface
    curve = catalog.GeneratingCurve(cubic=s.cubic, offset=s.offset)
    vg = np.linspace(-2.0, 2.0, 81)
    res = float(np.max(catalog.ode_residual(curve, s.cubic / 4.0,
                                            -2.0 * s.offset, vg)))
    return [CheckResult("generating-curve-ode", res, job.cfg.tolerances["ode"],
                        "v in [-2,2], 81 samples")]


@_verifies("orbit-identification", ("h",),
           lambda job: job.info.orbit_of is not None and job.cfg.a is not None,
           identification=1e-10)
def _identification(job):
    res = catalog.lightlike_identification_check(
        job.cfg.a, np.linspace(-2.0, 2.0, 21), np.linspace(-1.0, 1.0, 21))
    return [CheckResult("orbit-identification", res,
                        job.cfg.tolerances["identification"])]


@_verifies("bjorling-recovery", (),
           _has_data("no Björling data (see oracle note)"),
           recovery_position=1e-8, recovery_normal=1e-6)
def _recovery(job):
    tols = job.cfg.tolerances
    ug = np.linspace(job.grid.u_min, job.grid.u_max, 21)
    pos, normal, note = verify.bjorling_recovery(job.patch, job.data, ug)
    where = f"u in [{ug[0]:g},{ug[-1]:g}], {ug.size} samples"
    return [CheckResult("core-curve", pos, tols["recovery_position"], where),
            CheckResult("normal-field", normal, tols["recovery_normal"],
                        where, note=note)]


@_verifies("equivariance", ("equivariance",),
           lambda job: job.info.group is not None
           or f"{job.surface.family} is not invariant under a motion group "
              "acting by parameter shift", equivariance=1e-9, isometry=1e-12)
def _equivariance(job):
    tols, thetas = job.cfg.tolerances, job.cfg.thetas
    group = job.info.group(job.surface)
    note = f"thetas {list(thetas)}"
    residual = verify.equivariance(job.patch, group, thetas, job.grid)
    defect = float(np.max([verify.isometry_defect(group, t) for t in thetas]))
    return [CheckResult("equivariance", residual, tols["equivariance"],
                        job.grid.describe(), note=note),
            CheckResult(f"isometry:{group.tag}", defect, tols["isometry"],
                        note=note)]


@_verifies("forms", (), lambda job: job.info.forms is not None,
           null_condition=1e-10, forms_data=1e-12, reconstruction=1e-8)
def _forms(job):
    from . import weierstrass
    tols = job.cfg.tolerances
    triple = weierstrass.forms_for(job.surface)
    zs, center = weierstrass.probe_ring(100), weierstrass._PROBE_CENTER
    ring = f"ring |z-{center.imag:g}i|={weierstrass._PROBE_RADIUS:g}"
    values = triple(zs)
    direct = job.data.alpha.d(zs) + 1j * job.data.integrand(zs)
    rec = weierstrass.reconstruct_forms(weierstrass.weierstrass_pair(triple))
    return [CheckResult(name, float(np.max(res)), tols[key], ring)
            for name, key, res in (
                ("null-condition", "null_condition", triple.null_residual(zs)),
                ("forms-match-data", "forms_data", np.abs(values - direct)),
                ("pair-reconstruction", "reconstruction",
                 np.abs(rec(zs) - values)))]


def _periods_rule(job):
    if job.info.punctured is None:
        return f"{job.surface.family} has no punctured chart"
    n = catalog.integer_rate(job.surface.a)
    if n is None:
        return "forms are meromorphic only for integer twist rate"
    return n >= 1 or "periods are checked at twist rates >= 1"


@_verifies("periods", ("periods",), _periods_rule, period=1e-6)
def _periods(job):
    from . import weierstrass
    s = job.surface
    tol = job.cfg.tolerances["period"]
    triple = weierstrass.forms_for(s, weierstrass.PUNCTURED_CHART)
    loop = weierstrass.Loop(0j, 1.0)
    second = job.info.unit_period(s) if catalog.integer_rate(s.a) == 1 else 0.0
    checks = []
    values = weierstrass.period(triple, (1, 2, 3), loop)
    for k, expected, value in zip((1, 2, 3), (0.0, second, 0.0), values):
        if isinstance(value, QuadratureError):
            checks.append(CheckResult(f"period-phi{k}", float("inf"), tol,
                                      "unit loop", note=str(value)))
            continue
        note = f"value {value.real:.12g}{value.imag:+.12g}i, " \
               f"expected real part {expected:.12g}"
        checks.append(CheckResult(f"period-phi{k}",
                                  float(abs(value.real - expected)), tol,
                                  "unit loop", note=note))
    return checks


@_verifies("total-curvature", ("curvature",),
           lambda job: job.info.curvature(job.surface) is not None
           or f"no closed-form total curvature target for "
              f"{job.surface.family} here", total_curvature_rel=0.05)
def _total_curvature(job):
    from . import weierstrass
    cfg = job.cfg
    tol = cfg.tolerances["total_curvature_rel"]
    chart, target = job.info.curvature(job.surface)
    triple = weierstrass.forms_for(job.surface, chart)
    w = weierstrass.weierstrass_pair(weierstrass.dualize(triple))
    try:
        value = weierstrass.total_curvature(w, cfg.annulus)
    except QuadratureError as exc:
        return [CheckResult("total-curvature", float("inf"), tol,
                            note=str(exc))]
    return [CheckResult("total-curvature", abs(value - target) / abs(target),
                        tol, f"annulus {cfg.annulus}, "
                        f"grid {weierstrass._CURVATURE_GRID}",
                        note=f"value {value:.9g}, target {target:.9g}")]


def _verify_checks(cfg: JobConfig, surface, patch, grid):
    """Run the requested suites; returns (checks, skipped notes)."""
    with np.errstate(all="ignore"):
        values = _grid_values(patch, grid)
    info = catalog.FAMILY_INFO[surface.family]
    job = _Job(cfg, surface, patch, grid, info, values,
               catalog.bjorling_data_for(surface) if info.curve else None)
    checks = []
    skipped = []
    # Non-finite values end as FAIL residuals, not as warnings.
    with np.errstate(all="ignore"):
        for name, suites, rule, run in _CHECKS:
            verdict = cfg.suite in suites and rule(job)
            if isinstance(verdict, str):
                skipped.append({"name": name, "reason": verdict})
            elif verdict:
                checks.extend(run(job))
    return checks, skipped


def cmd_verify(cfg: JobConfig) -> int:
    surface = surface_from_config(cfg)
    grid = _default_grid(cfg, surface.family, for_sample=False)
    patch = _patch_for(surface, cfg)
    checks, skipped = _verify_checks(cfg, surface, patch, grid)
    passed = all(c.passed for c in checks)
    parameters = {_key(p.name): getattr(surface, p.name)
                  for p in catalog.FAMILY_INFO[surface.family].params}
    report = {
        "schema": SCHEMA,
        "surface": {"family": surface.family, "parameters": parameters},
        "suite": cfg.suite,
        "grid": grid.describe(),
        "fd_step": cfg.fd_step,
        "quadrature": {"rule": "gauss-legendre", "nodes": NODES},
        "checks": [c.to_dict() for c in checks],
        "skipped": skipped,
        "passed": passed,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.report:
        with _rewrite(cfg.report) as fh:
            fh.write(text.encode())
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
        parts = [f"{p.name}: {p.text}" for p in info.params]
        lines.append(f"{fam:<{width}}  {'; '.join(parts)}")
    lines.append("")
    for fam, info in catalog.FAMILY_INFO.items():
        if info.orbit_of is not None:
            names = " and ".join(p.name for p in info.params)
            lines.append(f"{fam} also accepts {info.orbit_of.text}, from "
                         f"which {names} are derived")
    return lines


@functools.cache
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
            raw[_key(key)] = value
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
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
