"""The benchmark's own checks: fault detection, self time, wrapper lifetime.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import dataclasses
import itertools

import numpy as np
import pytest

import maxsurf
import spans
import workloads
from maxsurf import bjorling, catalog, cli, motions


def first_op(workload, kind, family):
    for op in itertools.islice(workloads.generate(workload, 7), 200):
        if op.kind == kind and op.family == family:
            return op
    raise AssertionError("no such op in the first 200")


@pytest.mark.parametrize("workload,kind", [
    (workloads.VERIFY, "all"), (workloads.SAMPLE, "default")])
def test_perturbed_op_counts_as_failed(tmp_path, workload, kind):
    runner = workloads.Runner(str(tmp_path))
    op = first_op(workload, kind, catalog.ELLIPTIC_CATENOID)
    clean = runner.check(op, runner.run(op))
    assert clean.failures == []
    bad = dataclasses.replace(op, perturb=1e-3)
    out = runner.check(bad, runner.run(bad))
    assert out.failures
    assert all(workloads.known_cause(bad, f) is None for f in out.failures)


def test_known_causes_cover_only_measured_regions():
    op = workloads.Op(0, workloads.VERIFY, catalog.HELICOIDAL_SPACELIKE_I,
                      "all", 3.0, 2.5)

    def failure(check, ratio):
        return {"check": check, "residual": ratio * 1e-5, "tolerance": 1e-5}

    near_one = dataclasses.replace(op, a=1.0 + 1e-5)
    assert workloads.known_cause(op, failure("mean-curvature", 20.0))
    assert workloads.known_cause(op, failure("mean-curvature", 200.0)) is None
    assert workloads.known_cause(near_one, failure("mean-curvature", 5000.0))
    # a = 1 itself is the catalog's exact limit: no singular allowance.
    at_one = dataclasses.replace(op, a=1.0)
    assert workloads.known_cause(at_one,
                                 failure("mean-curvature", 100.0)) is None
    assert workloads.known_cause(near_one, failure("conformality", 2.0))
    assert workloads.known_cause(op, failure("conformality", 2.0)) is None
    assert workloads.known_cause(op, failure("oracle-agreement", 2.0)) is None
    edge = dataclasses.replace(op, lam=1.001)
    assert workloads.known_cause(edge, failure("normal-field", 50.0))
    assert workloads.known_cause(op, failure("normal-field", 2.0)) is None
    other = dataclasses.replace(op, family=catalog.ELLIPTIC_CATENOID, lam=None)
    assert workloads.known_cause(other, failure("mean-curvature", 2.0)) is None
    lightlike = dataclasses.replace(op, family=catalog.LIGHTLIKE_ROTATIONAL,
                                    lam=None)
    raised = {"check": "total-curvature", "residual": float("inf"),
              "tolerance": 1e-6}
    assert workloads.known_cause(lightlike, raised)
    assert workloads.known_cause(
        dataclasses.replace(lightlike, a=2.0), raised) is None
    assert workloads.known_cause(lightlike, failure("total-curvature",
                                                    2.0)) is None


def test_wrong_solution_counts_as_failed(tmp_path):
    runner = workloads.Runner(str(tmp_path))
    op = first_op(workloads.BJORLING, "far", catalog.BENDING_TIMELIKE)
    result = runner.run(op)
    assert runner.check(op, result).failures == []
    assert runner.check(op, result * (1.0 + 1e-6)).failures
    assert runner.check(op, bjorling.QuadratureError("x")).failures


def test_same_seed_same_ops_and_balanced_mix():
    take = workloads.block_size(workloads.BJORLING)
    one = list(itertools.islice(workloads.generate(workloads.BJORLING, 3), take))
    two = list(itertools.islice(workloads.generate(workloads.BJORLING, 3), take))
    assert one == two
    assert sum(op.kind == "far" for op in one) == take // 5
    assert {op.family for op in one if op.kind == "far"} == set(
        workloads.BJORLING_FAMILIES)


def row(name, start, end, parent=None, thread=1):
    return [name, start, end, parent, 0, thread, None]


def test_self_time_subtracts_union_of_overlapping_children():
    rows = [
        row("cli.main", 0.0, 10.0),
        row("catalog.eval_surface", 1.0, 5.0, parent=0, thread=2),
        row("catalog.eval_surface", 3.0, 7.0, parent=0, thread=3),
        row("verify.spacelike_region", 8.0, 9.5, parent=0),
        row("verify.fundamental_forms", 8.5, 9.0, parent=3),
    ]
    own = spans.self_times(rows)
    # Children of cli.main cover [1, 7] and [8, 9.5]: 7.5 of its 10.
    assert own == pytest.approx([2.5, 4.0, 4.0, 1.0, 0.5])
    assert spans.anchors(rows) == [0, 1, 2, 3, 3]
    assert spans.union_length([(2, 4), (1, 3), (9, 12)], 0.0, 10.0) == 4.0


def test_wrappers_record_spans_and_are_removed(tmp_path):
    originals = (cli.solve_bjorling, maxsurf.eval_surface,
                 catalog.eval_surface, motions.MotionGroup.apply)
    tracer = spans.Tracer()
    runner = workloads.Runner(str(tmp_path), tracer)
    op = first_op(workloads.SAMPLE, "default", catalog.BENDING_TIMELIKE)
    with tracer.installed():
        assert cli.solve_bjorling is not originals[0]
        tracer.active = True
        runner.run(op)
        tracer.active = False
    assert (cli.solve_bjorling, maxsurf.eval_surface, catalog.eval_surface,
            motions.MotionGroup.apply) == originals
    rows = tracer.export()
    names = [r[spans.NAME] for r in rows]
    assert names[0] == "cli.main"
    evals = [r for r in rows if r[spans.NAME] == "catalog.eval_surface"]
    # 64 rows of the mesh, each a child of the blocked client-thread span.
    assert sum(r[spans.COUNTS]["points"] for r in evals) >= 64 * 16
    assert all(r[spans.PARENT] is not None for r in rows[1:])
    metrics = spans.layer_metrics(rows, tracer.counts, [op])
    assert metrics["verify.evals_per_node"] == 8.0
    assert np.isfinite(metrics["cli.self_ms_per_op"])


def test_timed_run_length_is_whole_rounds_fixed_by_seconds():
    import run
    for workload in workloads.WORKLOADS:
        size = workloads.round_size(workload)
        for seconds in (1, 30):
            count = run.op_count(workload, seconds)
            assert count % size == 0 and count >= run.FIRST_OPS
    assert run.op_count(workloads.VERIFY, 20) == 360
    assert run.op_count(workloads.BJORLING, 20) == 180


def test_a_round_holds_the_same_parameter_mix_on_every_seed():
    size = workloads.round_size(workloads.BJORLING)
    for seed in (1, 2):
        ops = list(itertools.islice(
            workloads.generate(workloads.BJORLING, seed), size))
        for family in workloads.BJORLING_FAMILIES:
            far = [op for op in ops if op.family == family and op.kind == "far"]
            assert len(far) == workloads.CYCLE
            ints = sorted(op.a for op in far if op.a in (1.0, 2.0, 3.0))
            assert ints == [1.0, 2.0, 3.0]
            thirds = sorted(int((op.a - 0.3) / (2.2 / 3)) for op in far
                            if op.a not in (1.0, 2.0, 3.0))
            assert thirds == [0, 1, 2]
            if family in workloads.LAMBDA_RANGES:
                lo, hi = workloads.LAMBDA_RANGES[family]
                assert sorted(int((op.lam - lo) / ((hi - lo) / 6))
                              for op in far) == list(range(6))
