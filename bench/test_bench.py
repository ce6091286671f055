"""Tests of the benchmark itself: its oracle, generators, cap, tracing and output."""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import bench_harness
import bench_oracle as oracle
import bench_workloads as wl
from bench_trace import SPANS, Tracer, _resolve

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

FIB = wl.Operand((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1), Fraction(-1)), "fib")
PELL = wl.Operand((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-2), Fraction(-1)), "pell")
# what `binprod bprod fib pell` prints
FIB_PELL = "(2*x^2 - 3*x^3) / (1 - 6*x + 7*x^2 + 6*x^3 - 9*x^4)"


@pytest.fixture
def fresh_binprod():
    """A private import of binprod; the test run's own modules are put back after."""
    saved = bench_harness.loaded_binprod()
    path = list(sys.path)
    yield bench_harness.import_binprod(bench_harness.source_dir())
    for name in bench_harness.loaded_binprod():
        del sys.modules[name]
    sys.modules.update(saved)
    sys.path[:] = path


def _fib_pell_reference(num, den):
    order = oracle.terms_needed(oracle.binomial_bound(FIB.degrees, PELL.degrees), oracle.degree(num), oracle.degree(den))
    return wl.expr_series(("obprod", FIB, PELL), order)


def test_oracle_accepts_the_exact_product():
    num, den = oracle.parse_ratfun(FIB_PELL)
    assert oracle.check_ratfun(num, den, _fib_pell_reference(num, den)) is None


@pytest.mark.parametrize("delta", [1, -1])
def test_oracle_rejects_any_coefficient_off_by_one(delta):
    num, den = oracle.parse_ratfun(FIB_PELL)
    for part in (0, 1):
        for i in range(len((num, den)[part])):
            changed = [list(num), list(den)]
            changed[part][i] += delta
            assert oracle.check_ratfun(*changed, _fib_pell_reference(*changed)) is not None


def test_a_perturbed_result_counts_as_failed(fresh_binprod):
    bp = fresh_binprod
    spec = wl.ProductSpec("binomial", "symfun", 0, FIB, PELL, "fib obprod pell")
    op = wl.build_ops(bp, [spec], 0)[0]
    exact = op.call()
    assert str(exact) == FIB_PELL
    off = bp.ratfun.RatFun(exact.num + bp.polycore.Poly.monomial(3), exact.den)
    good, bad = bench_harness.Record(op, 0.1, result=exact), bench_harness.Record(op, 0.1, result=off)
    checks = bench_harness.Checks()
    checks.check_pass([good, bad])
    assert list(checks.failures) == [id(bad)] and checks.attempted == 2


def test_a_cli_output_off_by_one_counts_as_failed(fresh_binprod):
    spec = wl.CliSpec(("bprod", "fib", "pell"), "ratfun", ("obprod", FIB, PELL), "bprod")
    op = wl.build_ops(fresh_binprod, [spec], 0)[0]
    code, out, err = op.call()
    assert op.check((code, out, err)).error is None
    assert op.check((code, out.replace("7*x^2", "8*x^2"), err)).error is not None


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generators_are_deterministic_and_seeded(workload):
    first = wl.generate(workload, 7, 0)
    assert first == wl.generate(workload, 7, 0)
    assert first != wl.generate(workload, 8, 0)
    assert first != wl.generate(workload, 7, 1)
    assert len(first) == len(wl.generate(workload, 8, 3))


def test_recurrence_output_reads_back_as_its_series():
    text = "order: 4\nc(n) = 6*c(n-1) - 7*c(n-2) - 6*c(n-3) + 9*c(n-4) for n >= 4\ninitial: 0, 0, 2, 9\n"
    num, den = oracle.parse_recurrence(text)
    assert (num, den) == oracle.parse_ratfun(FIB_PELL)


def test_an_operation_over_its_cap_fails():
    op = wl.Op("sleeper", lambda: time.sleep(5), lambda result: wl.Outcome(None, ""))
    record = bench_harness.run_capped(op, 0.05)
    assert record.timed_out and record.error is not None and record.wall_s < 2


def test_tracing_restores_every_binding(fresh_binprod):
    bp = fresh_binprod
    bindings = [(where, attr) for spans in SPANS.values() for where, attr in spans]
    before = {b: vars(_resolve(bp, b[0]))[b[1]] for b in bindings}
    fib, pell = bp.seqlib.named_gf("fib").gf, bp.seqlib.named_gf("pell").gf
    with Tracer(bp) as tracer:
        assert all(vars(_resolve(bp, w))[a] is not before[w, a] for w, a in bindings)
        tracer.on = True
        bp.convolve.binomial_product(fib, pell, method="resultant")
        tracer.on = False
    assert tracer.unrestored() == []
    assert all(vars(_resolve(bp, w))[a] is before[w, a] for w, a in bindings)
    assert tracer.calls["convolve.product"] == 1 and tracer.calls["polycore.det"] == 1


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_are_the_declared_ones(fresh_binprod, trace, section):
    run = bench_harness.run_workload("cli-small", 1, 0.1, trace)
    result = run["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
