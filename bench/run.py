"""Benchmark of maxsurf: three closed-loop workloads, checked op by op.

    python3 bench/run.py --workload verify-catalog --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the last stdout line is one JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
a traced replay.  Metric names and units come from BENCHMARK.json.  The
run record (machine, op mix, failures, output digest) and, for traced
runs, the spans go to `.bench_out/`.  bench/README.md defines each metric.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
# The machine alternates between speed states for seconds to minutes; the
# same op runs up to 1.4x slower in the slow state.  Every op time is
# therefore rescaled by CALIBRATION_REF_S / (time of a fixed calibration
# measured next to it): a pure-Python loop for interpreter-bound work and
# a numpy kernel on complex arrays for array-bound work.  Ops of the kinds
# in POOL_KINDS (sample ops on the default 64x16 grid) cost mostly thread
# hand-offs of the sampling pool, whose speed follows the host's scheduler
# rather than the clock rate; their calibration also maps 64 small numpy
# tasks over a pool of as many threads as the sampling pool.
# CALIBRATION_REF_S is the time of the loop and kernel on the reference
# machine (2-vCPU Xeon) in its fast state, POOL_REF_S that of the pool
# part.  Raw wall times go to the run record.
CALIBRATION_ITERS = 30000
CALIBRATION_REF_S = 5.3e-3
POOL_REF_S = 2.6e-3
POOL_KINDS = ("default",)
# Set-up is mostly interpreter start and imports, which the pure-Python
# loop tracks poorly, so each set-up probe is rescaled by a reference of
# its own kind: a fresh interpreter that imports numpy only, run before
# and after the probe.  SETUP_REF_S is that reference's time on the
# reference machine in its fast state.
SETUP_REF_S = 0.135
# A timed run has at least this many ops; a traced run replays exactly
# this many; the output digest covers this many.
FIRST_OPS = 100
# Ops a timed run does per second of `--seconds`: about the rate of the
# loop (op, calibration and check) on the reference machine when its host
# is not loaded.  A timed run does a fixed number of whole rounds
# (workloads.ROUND_BLOCKS), so that a seed always gives the same ops however
# fast the machine runs; under load the run takes longer.
LOOP_OPS_PER_S = {"verify-catalog": 18.5, "sample-mesh": 7.5,
                  "bjorling-solve": 7.5}


def import_maxsurf():
    """Import the package from this checkout's `src/`, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import maxsurf
    except ImportError as exc:
        sys.exit(f"bench: cannot import maxsurf from {src}: {exc}")
    if not Path(maxsurf.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: imported maxsurf from {maxsurf.__file__}, "
                 f"not from {src}")
    elapsed = time.perf_counter() - t0
    sys.path.insert(0, str(BENCH))
    return elapsed


@functools.cache
def calibration_arrays():
    import numpy as np
    z = (np.linspace(-1.0, 1.0, 16384) + 0.5j).reshape(256, 64)
    return z, np.linspace(0.0, 1.0, 64)


def calibration_s(threads: int = 0):
    """Wall times of a fixed pure-Python loop and numpy kernel, and (0 if
    `threads` is 0) of small numpy tasks mapped over a pool of `threads`
    threads: the machine's current speed."""
    import numpy as np
    z, weights = calibration_arrays()
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x += i * i
    values = np.stack([np.sin(z), np.cosh(z), np.exp(z)], axis=-1)
    np.einsum("k,...kj->...j", weights, values)
    t1 = time.perf_counter()
    if threads:
        row = weights[:16]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda i: np.sin(row + i) * np.cosh(row),
                          range(64)))
    return t1 - t0, time.perf_counter() - t1


def op_count(workload: str, seconds: float) -> int:
    """Ops of a timed run: whole rounds, about `seconds` of loop time on the
    reference machine, and at least FIRST_OPS."""
    import workloads
    size = workloads.round_size(workload)
    rounds = max(math.ceil(FIRST_OPS / size),
                 round(seconds * LOOP_OPS_PER_S[workload] / size))
    return rounds * size


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-catalog", "sample-mesh", "bjorling-solve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and generate the first block, then exit "
                        "(used to time set-up in a fresh interpreter)")
    return p.parse_args(argv)


def declared_units(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def setup_probe(args, import_s):
    """Build the first block of inputs, then report the import time."""
    import workloads
    ops = workloads.generate(args.workload, args.seed)
    for _ in range(workloads.block_size(args.workload)):
        next(ops)
    print(json.dumps({"import_s": import_s}))


def wall_s(cmd):
    """Wall time and stdout of a fresh interpreter running `cmd`."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"bench: set-up probe failed: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def measure_setup(args):
    """Median calibrated and raw wall time of fresh set-up interpreters, the
    median reference time and the median import time."""
    scaled, walls, refs, imports = [], [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    reference = [sys.executable, "-c", "import numpy"]
    before, _ = wall_s(reference)
    for _ in range(SETUP_PROBES):
        wall, out = wall_s(cmd)
        after, _ = wall_s(reference)
        walls.append(wall)
        refs.append(after)
        scaled.append(wall * 2 * SETUP_REF_S / (before + after))
        before = after
        imports.append(json.loads(out.splitlines()[-1])["import_s"])
    return (statistics.median(scaled), statistics.median(walls),
            statistics.median(refs), statistics.median(imports))


def machine_info():
    import numpy
    from maxsurf import cli
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "sampling_threads": cli._thread_count()}


class Loop:
    """Closed loop: time each op, then check its output untimed.

    `latencies` are raw wall times; `scaled` are the same times rescaled
    by the calibration run just before and just after the op;
    `calibrations` holds the mean of those two, per part.
    """

    def __init__(self, runner, tracer=None, threads=0):
        self.runner = runner
        self.tracer = tracer
        self.calibrate = functools.partial(calibration_s, threads)
        self.last = None
        self.latencies = []
        self.scaled = []
        self.calibrations = []
        self.outcomes = []
        self.ops = []

    def step(self, op):
        tracer = self.tracer
        before = self.last or self.calibrate()
        if tracer is not None:
            tracer.op_id = op.index
            tracer.active = True
        t0 = time.perf_counter()
        result = self.runner.run(op)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        after = self.last = self.calibrate()
        kernel, pool = ((b + a) / 2 for b, a in zip(before, after))
        cal, ref = kernel, CALIBRATION_REF_S
        if pool and op.kind in POOL_KINDS:
            cal, ref = kernel + pool, ref + POOL_REF_S
        self.calibrations.append((kernel, pool))
        self.latencies.append(dt)
        self.scaled.append(dt * ref / cal)
        self.outcomes.append(self.runner.check(op, result))
        self.ops.append(op)


def warm_up(runner, workload, seed):
    """One untimed op of each kind, from a stream the run never measures."""
    import workloads
    kinds = set(workloads.BLOCKS[workload][1])
    for op in workloads.generate(workload, seed, stream=1):
        if op.kind in kinds:
            kinds.discard(op.kind)
            runner.check(op, runner.run(op))
        if not kinds:
            return


def summarize(loop):
    """Failures, op mix and output digest of a finished loop."""
    import numpy as np
    import workloads
    failures, unknown, failed = [], 0, 0
    digest = hashlib.sha256()
    mix = {"ops": len(loop.ops), "kinds": {}, "near_points": 0,
           "far_points": 0, "vertices": 0, "bytes_written": 0}
    for op, out in zip(loop.ops, loop.outcomes):
        if op.index < FIRST_OPS:
            digest.update(out.digest)
        mix["kinds"][op.kind] = mix["kinds"].get(op.kind, 0) + 1
        mix["vertices"] += out.vertices
        mix["bytes_written"] += out.bytes_written
        if op.workload == workloads.BJORLING:
            us, vs = workloads.grid_of(op)
            far = int(np.count_nonzero(np.abs(vs) > 2.0)) * us.size
            mix["far_points"] += far
            mix["near_points"] += us.size * vs.size - far
        causes = [workloads.known_cause(op, f) for f in out.failures]
        failed += None in causes
        unknown += causes.count(None)
        for f, cause in zip(out.failures, causes):
            failures.append({"op": op.index, "family": op.family,
                             "a": op.a, "lambda": op.lam, **f,
                             "known_cause": cause})
    return {
        # Ops with a failure that is not a recorded seed defect.
        "failed": failed,
        # Ops that failed some check, recorded seed defects included.
        "failed_any_check": sum(1 for out in loop.outcomes if out.failures),
        "unknown_failures": unknown,
        "failures": failures,
        "op_mix": mix,
        f"outputs_sha256_first_{FIRST_OPS}_ops": digest.hexdigest(),
        "ops": {"columns": ["index", "family", "kind", "a", "lambda", "ms",
                            "scaled_ms", "calibration_ms",
                            "pool_calibration_ms"],
                "rows": [[op.index, op.family, op.kind, op.a, op.lam,
                          dt * 1e3, sc * 1e3, cal[0] * 1e3, cal[1] * 1e3]
                         for op, dt, sc, cal in zip(loop.ops, loop.latencies,
                                                    loop.scaled,
                                                    loop.calibrations)]},
    }


def timings(latencies, setup_s):
    import numpy as np
    lat = np.array(latencies)
    p50, p90 = np.percentile(lat, [50, 90]) * 1e3
    return {"setup_s": setup_s, "ops_per_s": lat.size / lat.sum(),
            "op_p50_ms": float(p50), "op_p90_ms": float(p90)}


def end_to_end(loop, setup_s):
    return {**timings(loop.scaled, setup_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def margins(loop):
    """Worst finite residual / tolerance per check kind, and worst solve error."""
    keys = {"mean-curvature": "verify.mean_curvature_margin",
            "conformality": "verify.conformality_margin",
            "total-curvature": "weierstrass.total_curvature_margin"}
    worst = dict.fromkeys(list(keys.values()) + ["weierstrass.period_margin"],
                          0.0)
    for out in loop.outcomes:
        for c in out.checks:
            key = ("weierstrass.period_margin"
                   if c["name"].startswith("period-") else keys.get(c["name"]))
            ratio = c["residual"] / c["tolerance"]
            if key and ratio < float("inf"):
                worst[key] = max(worst[key], ratio)
    worst["bjorling.max_rel_err"] = max(o.rel_err for o in loop.outcomes)
    return worst


def calibration_threads(workload: str) -> int:
    """Pool size of the calibration: the sampling pool's on sample-mesh."""
    import workloads
    from maxsurf import cli
    return cli._thread_count() if workload == workloads.SAMPLE else 0


def traced_replay(plain, workdir, threads):
    """Replay the ops of `plain` with the wrappers installed."""
    import spans
    import workloads
    tracer = spans.Tracer()
    loop = Loop(workloads.Runner(workdir, tracer), tracer, threads)
    with tracer.installed():
        for op in plain.ops:
            loop.step(op)
    rows = tracer.export()
    layer = spans.layer_metrics(rows, tracer.counts, loop.ops)
    layer.update(margins(loop))
    layer["cli.bytes_written"] = sum(o.bytes_written for o in loop.outcomes)
    layer["trace.overhead_ratio"] = sum(plain.scaled) / sum(loop.scaled)
    return loop, layer, rows


def main(argv=None):
    args = parse_args(argv)
    import_s = import_maxsurf()
    if args.setup_probe:
        return setup_probe(args, import_s)
    import workloads

    units = declared_units(args.trace)
    setup_s, raw_setup_s, setup_ref_s, probe_import_s = measure_setup(args)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runner = workloads.Runner(workdir)
        warm_up(runner, args.workload, args.seed)
        threads = calibration_threads(args.workload)
        plain = Loop(runner, threads=threads)
        ops = workloads.generate(args.workload, args.seed)
        count = (FIRST_OPS if args.trace
                 else op_count(args.workload, args.seconds))
        start = time.perf_counter()
        for _ in range(count):
            plain.step(next(ops))
        loop_s = time.perf_counter() - start
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine_info(),
                  "loop_s": loop_s,
                  "calibration_ms": {
                      "threads": threads,
                      "reference": CALIBRATION_REF_S * 1e3,
                      "median": statistics.median(
                          k for k, _ in plain.calibrations) * 1e3,
                      "pool_reference": POOL_REF_S * 1e3 if threads else 0.0,
                      "pool_median": statistics.median(
                          p for _, p in plain.calibrations) * 1e3,
                      "setup_reference": SETUP_REF_S * 1e3,
                      "setup_median": setup_ref_s * 1e3},
                  "raw_wall": timings(plain.latencies, raw_setup_s),
                  **summarize(plain)}
        unknown = record["unknown_failures"]
        if args.trace:
            loop, metrics, rows = traced_replay(plain, workdir, threads)
            record["traced"] = summarize(loop)
            unknown += record["traced"]["unknown_failures"]
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                      "w") as fh:
                json.dump({"columns": ["name", "start", "end", "parent",
                                       "op", "thread", "counts"],
                           "spans": rows}, fh)
        else:
            loop = plain
            metrics = end_to_end(plain, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = record["traced"] if args.trace else record
    failed, failed_any = summary["failed"], summary["failed_any_check"]
    attempted = len(loop.ops)
    record["error_rate"] = failed_any / attempted
    record["latency_samples"] = attempted
    if args.trace:
        metrics["setup.import_ms"] = probe_import_s * 1e3
        metrics["error_rate"] = record["error_rate"]
    if set(metrics) != set(units):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} "
                 "are not both measured and declared in BENCHMARK.json")
    record["metrics"] = {k: {"value": metrics[k], "unit": u}
                         for k, u in units.items()}
    with open(OUT / f"record-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for k, m in record["metrics"].items():
        print(f"{args.workload} {k} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate {record['error_rate']:.6g} "
          f"({failed_any} of {attempted} ops failed a check: "
          f"{failed_any - failed} only on recorded seed defects, {failed} "
          f"otherwise; {attempted} latency samples)")
    print(json.dumps({"correct": unknown == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
