"""Tests of the benchmark's own machinery (run: python3 -m pytest bench/tests)."""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_list_is_deterministic_per_seed(workload):
    a = workloads.operations(workload, 7, 20)
    assert a == workloads.operations(workload, 7, 20)
    assert a != workloads.operations(workload, 8, 20)
    assert all("--seed" in op for op in a)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_gets_the_same_composition(workload):
    def kinds(ops):
        return sorted(" ".join(op[:1] + op[op.index("--coeffs"):op.index("--coeffs") + 2]
                               if "--coeffs" in op else op[:1]) for op in ops)

    assert kinds(workloads.operations(workload, 1, 20)) == kinds(
        workloads.operations(workload, 2, 20))


def test_constants_H_values_are_distinct_and_in_range():
    ops = workloads.operations("constants", 3, 20)
    hs = [float(op[op.index("--H") + 1]) for op in ops if op[0] != "rho" or op[2] != "0.5"]
    assert all(workloads.H_LO <= h <= workloads.H_HI for h in hs)
    assert len(set(hs)) == len(hs)


def test_classifier_separates_exception_error_exit_and_verdict():
    assert checks.classify(None, RuntimeError("boom"), "") == checks.EXCEPTION
    assert checks.classify(2, None, "error: cannot reshape array\n") == checks.ERROR_EXIT
    assert checks.classify(2, None, "some warning\n") == checks.VERDICT
    assert checks.classify(1, None, "usage error: bad\n") == checks.USAGE
    assert checks.classify(0, None, "") == checks.OK
    assert checks.classify(3, None, "") == checks.BAD_EXIT
    assert [checks.is_failure(o) for o in (checks.OK, checks.VERDICT, checks.EXCEPTION,
                                           checks.ERROR_EXIT, checks.USAGE)] == [
        False, False, True, True, True]


def _span(i, name, start, end, parent=None):
    return tracing.Span(i, name, start, end, parent, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "harness.variance_scan", 1.0, 9.0, 0),
        _span(2, "fou.sample_fou_ensemble", 2.0, 5.0, 1),
        _span(3, "streams.stream", 2.0, 2.5, 2),
        _span(4, "harness.fit_loglog_slope", 6.0, 7.0, 1),
    ]
    st = tracing.self_times(spans)
    assert st == pytest.approx({0: 2.0, 1: 4.0, 2: 2.5, 3: 0.5, 4: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "harness.run_replicated", 0.0, 4.0),
             _span(1, "harness.functional_values", 1.0, 3.0, 0),
             _span(2, "harness.functional_values", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_counts_burn_in_under_fou_only():
    fgn = "fgn.sample_fgn_batch"
    spans = [_span(0, "fou.sample_fou_ensemble", 0.0, 2.0),
             _span(1, fgn, 0.5, 1.5, 0),
             _span(2, fgn, 3.0, 4.0)]
    spans[0].counts = {"delivered_steps": 300}
    spans[1].counts = {"increments": 400, "normals": 800, "fft_points": 800}
    spans[2].counts = {"increments": 1000, "normals": 2000, "fft_points": 2000}
    m = tracing.layer_metrics(spans)
    assert m["fou.useful_step_ratio"] == pytest.approx(0.75)
    assert m["fgn.normals_drawn"] == 2800
    assert m[f"{fgn}.calls"] == 2


def test_tracer_wraps_every_lookup_name_and_restores():
    from foulim import fou, harness, streams

    original = streams.stream
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.stream is streams.stream is fou.stream
        assert streams.stream is not original
        harness.stream(1, "x", 0)
    finally:
        tracer.restore()
    assert streams.stream is original and harness.stream is original
    assert [s.name for s in tracer.spans] == ["streams.stream"]


def test_rho_reference_identities():
    assert checks.rho_reference(0.0, 0.3) == 1.0
    for s in (0.05, 1.0, 7.0):
        # H = 1/2 through the general closed form, not the shortcut
        assert checks.rho_reference(s, 0.5 + 1e-12) == pytest.approx(math.exp(-s), rel=1e-9)


def test_op_tail_needs_ten_operations_beyond():
    assert run.op_tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
    assert run.op_tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_rescale_divides_by_the_mean_kernel_time_around():
    n = speed.NOMINAL_S
    assert speed.rescale(3.0, n, n) == pytest.approx(3.0)
    # the machine ran at half speed: half the raw seconds are its fault
    assert speed.rescale(3.0, 2 * n, 2 * n) == pytest.approx(1.5)
    assert speed.rescale(3.0, n, 3 * n) == pytest.approx(1.5)
