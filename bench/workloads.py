"""Seeded operations of the three workloads, how to run them, how to check them.

Every workload is a closed loop: one client runs an op, checks its output,
then runs the next.  The seed draws the family order, the op order and the
parameters; the program only ever sees the generated argument lists and
arrays.  Draws are balanced so that two seeds give the same mix: each
block of ops holds every family in a fixed proportion of op kinds, and
within each (family, kind) stream the twist rate alternates between an
integer from {1, 2, 3} and a uniform draw from [0.3, 2.5]; lambda is
uniform on the family's range.  Every CYCLE draws of a stream hold each
integer once, one uniform `a` from each third of its interval and one
lambda from each sixth of its range.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import maxsurf
from maxsurf import catalog, cli, frames

VERIFY = "verify-catalog"
SAMPLE = "sample-mesh"
BJORLING = "bjorling-solve"
WORKLOADS = (VERIFY, SAMPLE, BJORLING)

FAMILIES = tuple(catalog.FAMILY_INFO)
BJORLING_FAMILIES = (
    catalog.BENDING_TIMELIKE, catalog.BENDING_SPACELIKE,
    catalog.LIGHTLIKE_ROTATIONAL, catalog.HELICOIDAL_TIMELIKE,
    catalog.HELICOIDAL_SPACELIKE_I, catalog.HELICOIDAL_SPACELIKE_II)

# Open intervals for lambda.  The two unbounded ranges are cut to a width
# of 2 above their lower end, which holds the CLI defaults (2.0 and 1.0).
LAMBDA_RANGES = {
    catalog.HELICOIDAL_TIMELIKE: (0.0, 1.0),
    catalog.HELICOIDAL_TIMELIKE_CONSTANT: (0.0, 1.0),
    catalog.HELICOIDAL_SPACELIKE_I: (1.0, 3.0),
    catalog.HELICOIDAL_SPACELIKE_II: (0.0, 2.0),
}

# Ops per block, by kind.
BLOCKS = {
    VERIFY: (FAMILIES, {"all": 1}),
    SAMPLE: (FAMILIES, {"default": 4, "large": 1}),
    BJORLING: (BJORLING_FAMILIES, {"near": 4, "far": 1}),
}
# Draws per stream in which the stratified parameters repeat their mix.
CYCLE = 6
# Blocks per round; a timed run is whole rounds.  On verify-catalog and
# bjorling-solve a round completes the cycle of every stream, so that the
# slow ops (total curvature; the far-field quadrature, whose cost varies
# several-fold with a and lambda) come in the same mix on every seed.  A
# full cycle of sample-mesh's 160x160 stream would take 300 ops; its slow
# ops cost about the same whatever the parameters, so its round is one
# block.
ROUND_BLOCKS = {VERIFY: CYCLE, SAMPLE: 1, BJORLING: CYCLE}

LARGE_GRID = 160
NEAR_GRID = (np.linspace(-1.0, 1.0, 32), np.linspace(-1.0, 1.0, 32))
FAR_GRID = (np.linspace(-1.0, 1.0, 2), np.linspace(-3.0, 3.0, 4))

SAMPLE_RTOL = 1e-12
BJORLING_RTOL = 1e-8

# Failures the seed commit is known to produce on verify-catalog, measured
# by seeded runs (48000 ops) and a sweep of every family over a and lambda
# (bench/README.md).  A (check, family) is listed where some residual came
# within a factor 2 of its tolerance.  A failed check is known when it is
# listed and
#     residual / tolerance <= floor + k_a / |a - 1| + k_lam / |lambda - 1|.
# The k_a term is the removable singularity of the spacelike-axis families
# at a = 1; a = 1 itself takes no k_a term, since the catalog evaluates
# the exact limit there.  The k_lam term is the end lambda = 1 of the
# helicoids' ranges.  Each constant is twice the worst value measured.
# Any other failure makes the run incorrect.
ROUNDOFF = ("finite-difference check amplifies roundoff of an "
            "ill-conditioned closed form")
ROUNDOFF_BOUNDS = {
    # (check, family): (floor, k_a, k_lam)
    ("mean-curvature", catalog.BENDING_TIMELIKE): (1.6, 0.0, 0.0),
    ("mean-curvature", catalog.BENDING_SPACELIKE): (3.3, 0.08, 0.0),
    ("mean-curvature", catalog.HELICOIDAL_TIMELIKE): (3.6, 0.0, 0.0),
    ("mean-curvature", catalog.HELICOIDAL_SPACELIKE_I): (60.0, 0.18, 0.0),
    ("mean-curvature", catalog.HELICOIDAL_SPACELIKE_II): (42.0, 0.25, 0.0),
    ("mean-curvature", catalog.HELICOIDAL_TIMELIKE_CONSTANT): (5.0, 0.0, 0.0),
    ("mean-curvature", catalog.ENNEPER_SECOND_KIND): (1.25, 0.0, 0.0),
    ("conformality", catalog.BENDING_SPACELIKE): (0.0, 4e-6, 0.0),
    ("conformality", catalog.HELICOIDAL_SPACELIKE_I): (0.0, 3.2e-5, 0.0),
    ("conformality", catalog.HELICOIDAL_SPACELIKE_II): (0.0, 1.4e-5, 0.0),
    ("normal-field", catalog.HELICOIDAL_SPACELIKE_I): (0.0, 0.0, 0.075),
    ("normal-field", catalog.HELICOIDAL_TIMELIKE): (0.0, 0.0, 0.05),
    ("normal-field", catalog.HELICOIDAL_TIMELIKE_CONSTANT): (0.0, 0.0, 0.065),
}
# The check raises, and reports an infinite residual, for
# lightlike-rotational at a = 3 only.
TOTAL_CURVATURE = ("total curvature does not settle for "
                   "lightlike-rotational at a = 3")


@dataclass(frozen=True)
class Op:
    """One op of a workload.  `perturb` > 0 passes the CLI's fault
    injection field; only the benchmark's own tests set it."""

    index: int
    workload: str
    family: str
    kind: str
    a: float
    lam: float | None
    perturb: float = 0.0


@dataclass
class Outcome:
    """What the client learned from one op; `failures` empty means passed."""

    failures: list
    digest: bytes = b""
    bytes_written: int = 0
    checks: list = dataclasses.field(default_factory=list)
    rel_err: float = 0.0
    vertices: int = 0


class _Draws:
    """Balanced per-(family, kind) parameter streams from one generator.

    Each stratified draw takes the next of `strata` equal parts of its
    interval in a seeded order, a fresh order every `strata` draws.
    """

    def __init__(self, rng):
        self.rng = rng
        self.streams = {}

    def _pick(self, st, key, values):
        if not st[key]:
            st[key] = [values[int(k)] for k in self.rng.permutation(len(values))]
        return st[key].pop()

    def _uniform(self, st, key, lo, hi, strata):
        k = self._pick(st, key, range(strata))
        width = (hi - lo) / strata
        x = lo
        while not lo < x < hi:
            x = float(self.rng.uniform(lo + k * width, lo + (k + 1) * width))
        return x

    def params(self, family, kind):
        st = self.streams.setdefault((family, kind), {
            "j": 0, "phase": int(self.rng.integers(2)), "ints": [],
            "a": [], "lam": []})
        if (st["j"] + st["phase"]) % 2 == 0:
            a = self._pick(st, "ints", (1.0, 2.0, 3.0))
        else:
            a = self._uniform(st, "a", 0.3, 2.5, CYCLE // 2)
        st["j"] += 1
        lam = None
        if family in LAMBDA_RANGES:
            lam = self._uniform(st, "lam", *LAMBDA_RANGES[family], CYCLE)
        return a, lam


def block_size(workload: str) -> int:
    families, kinds = BLOCKS[workload]
    return len(families) * sum(kinds.values())


def round_size(workload: str) -> int:
    return block_size(workload) * ROUND_BLOCKS[workload]


def generate(workload: str, seed: int, stream: int = 0):
    """Endless op sequence for a workload; the same seed gives the same ops.

    `stream` selects an independent sequence for the same seed (the warm-up
    uses stream 1, the measured ops stream 0).
    """
    rng = np.random.default_rng(
        [seed % 2**64, WORKLOADS.index(workload), stream])
    draws = _Draws(rng)
    families, kinds = BLOCKS[workload]
    slots = [(f, k) for f in families for k, n in kinds.items()
             for _ in range(n)]
    index = 0
    while True:
        for i in rng.permutation(len(slots)):
            family, kind = slots[i]
            a, lam = draws.params(family, kind)
            yield Op(index, workload, family, kind, a, lam)
            index += 1


def surface_of(op: Op):
    """The catalog entry an op stands for, built the way the CLI builds it."""
    if op.family == catalog.ENNEPER_SECOND_KIND:
        curve = catalog.generating_curve_for(op.a)
        return catalog.enneper_second_kind(curve.cubic, curve.offset)
    return catalog.CatalogSurface(op.family, a=op.a,
                                  lam=0.0 if op.lam is None else op.lam)


def grid_of(op: Op):
    """(us, vs) axes the op evaluates on."""
    if op.kind == "near":
        return NEAR_GRID
    if op.kind == "far":
        return FAR_GRID
    u0, u1, v0, v1 = catalog.DEFAULT_DOMAINS[op.family]
    if op.kind == "large":
        return (np.linspace(u0, u1, LARGE_GRID), np.linspace(v0, v1, LARGE_GRID))
    return np.linspace(u0, u1, 64), np.linspace(v0, v1, 16)


def cli_args(op: Op, workdir: str):
    """Argument list handed to `maxsurf.cli.main` for a verify or sample op."""
    args = ["--family", op.family, "--a", repr(op.a)]
    if op.lam is not None:
        args += ["--lambda", repr(op.lam)]
    if op.perturb:
        args += ["--set", f"perturb={op.perturb!r}"]
    if op.workload == VERIFY:
        return ["verify", *args, "--suite", "all",
                "--report", os.path.join(workdir, "report.json")]
    args += ["--set", 'formats=["obj","csv"]',
             "--out", os.path.join(workdir, "mesh")]
    if op.kind == "large":
        u0, u1, v0, v1 = catalog.DEFAULT_DOMAINS[op.family]
        grid = {"u_min": u0, "u_max": u1, "v_min": v0, "v_max": v1,
                "nu": LARGE_GRID, "nv": LARGE_GRID}
        args += ["--set", "grid=" + json.dumps(grid)]
    return ["sample", *args]


class Runner:
    """Runs ops of one workload; `run` is the timed part, `check` is not."""

    def __init__(self, workdir: str, tracer=None):
        self.workdir = workdir
        self.tracer = tracer

    def run(self, op: Op):
        if op.workload == BJORLING:
            return self._solve(op)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(cli_args(op, self.workdir))

    def _solve(self, op: Op):
        us, vs = grid_of(op)
        U, V = np.meshgrid(us, vs, indexing="ij")
        data = maxsurf.bjorling_data_for(surface_of(op))
        if self.tracer is not None:
            data = self._counting(data, op.kind)
        try:
            return maxsurf.solve_bjorling(data)(U, V)
        except maxsurf.QuadratureError as exc:
            return exc

    def _counting(self, data, kind):
        """Same Björling data, with a normal field that counts its points."""
        field, tracer = data.normal_field, self.tracer

        def func(z):
            tracer.count(f"normal_field_points.{kind}", np.size(z))
            return field(z)

        return dataclasses.replace(
            data, normal_field=frames.AnalyticMap(func, field.deriv))

    def check(self, op: Op, result) -> Outcome:
        if op.workload == VERIFY:
            return self._check_verify(op, result)
        if op.workload == SAMPLE:
            return self._check_sample(op, result)
        return self._check_solve(op, result)

    def _read(self, name):
        with open(os.path.join(self.workdir, name), "rb") as fh:
            return fh.read()

    def _check_verify(self, op, code) -> Outcome:
        try:
            raw = self._read("report.json")
            report = json.loads(raw)
            checks = report["checks"]
            passed = report["passed"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Outcome([{"check": "report", "detail": repr(exc)}])
        failures = [{"check": c["name"], "residual": c["residual"],
                     "tolerance": c["tolerance"]}
                    for c in checks if not c["passed"]]
        if passed is not True and not failures:
            failures.append({"check": "report", "detail": "passed is false"})
        if code != (0 if passed is True else 1):
            failures.append({"check": "exit-code", "detail": code})
        # Only a traced run reads the checks (for its margins); a timed run
        # drops them so that its memory does not grow with the op count.
        return Outcome(failures, hashlib.sha256(raw).digest(), len(raw),
                       checks if self.tracer is not None else [])

    def _check_sample(self, op, code) -> Outcome:
        if code != 0:
            return Outcome([{"check": "exit-code", "detail": code}])
        try:
            obj, csv = self._read("mesh.obj"), self._read("mesh.csv")
        except OSError as exc:
            return Outcome([{"check": "files", "detail": repr(exc)}])
        us, vs = grid_of(op)
        nu, nv = us.size, vs.size
        U, V = np.meshgrid(us, vs, indexing="ij")
        exact = maxsurf.patch(surface_of(op))(U, V).reshape(-1, 3)
        failures = []

        def compare(what, got, want):
            if got.shape != want.shape:
                failures.append({"check": what, "detail":
                                 f"shape {got.shape} != {want.shape}"})
                return
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            if not np.all(err <= SAMPLE_RTOL):
                failures.append({"check": what, "detail":
                                 f"max rel err {float(np.max(err)):.3e}"})

        lines = obj.decode().splitlines()
        verts = [ln[2:] for ln in lines if ln.startswith("v ")]
        faces = sum(1 for ln in lines if ln.startswith("f "))
        hidden = sum(1 for ln in lines if ln.startswith("# nonspacelike "))
        if len(verts) != nu * nv or faces != (nu - 1) * (nv - 1):
            failures.append({"check": "obj-counts", "detail":
                             f"{len(verts)} vertices, {faces} faces"})
        compare("obj-coordinates",
                np.array(" ".join(verts).split(), dtype=float).reshape(-1, 3),
                exact)
        rows = csv.decode().splitlines()
        table = np.array(",".join(rows[1:]).split(","), dtype=float)
        table = (table.reshape(-1, 6) if table.size % 6 == 0
                 else np.empty((0, 6)))
        if rows[0] != "u,v,x,y,z,spacelike" or len(rows) - 1 != nu * nv:
            failures.append({"check": "csv-counts",
                             "detail": f"{len(rows) - 1} rows"})
        compare("csv-coordinates", table[:, :5],
                np.column_stack([U.reshape(-1), V.reshape(-1), exact]))
        if int(np.sum(table[:, 5] == 0.0)) != hidden:
            failures.append({"check": "spacelike-mask",
                             "detail": "obj and csv disagree"})
        return Outcome(failures, hashlib.sha256(obj + csv).digest(),
                       len(obj) + len(csv), vertices=nu * nv)

    def _check_solve(self, op, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome([{"check": "quadrature", "detail": str(result)}])
        us, vs = grid_of(op)
        U, V = np.meshgrid(us, vs, indexing="ij")
        exact = maxsurf.patch(surface_of(op))(U, V)
        err = float(np.max(np.abs(result - exact) / (1.0 + np.abs(exact))))
        failures = []
        if not err <= BJORLING_RTOL:
            failures.append({"check": "closed-form", "detail":
                             f"max rel err {err:.3e}"})
        return Outcome(failures, hashlib.sha256(result.tobytes()).digest(),
                       rel_err=err)


def known_cause(op: Op, failure: dict):
    """The recorded seed defect a failed check matches, or None."""
    if op.workload != VERIFY:
        return None
    check = failure["check"]
    if check == "total-curvature":
        raised = failure["residual"] == float("inf")
        return (TOTAL_CURVATURE if op.family == catalog.LIGHTLIKE_ROTATIONAL
                and op.a == 3.0 and raised else None)
    bound = ROUNDOFF_BOUNDS.get((check, op.family))
    if bound is None:
        return None
    floor, k_a, k_lam = bound
    limit = floor
    if k_a and op.a != 1.0:
        limit += k_a / abs(op.a - 1.0)
    if k_lam:
        limit += k_lam / abs(op.lam - 1.0)
    if failure["residual"] <= limit * failure["tolerance"]:
        return ROUNDOFF
    return None
