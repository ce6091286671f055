"""Running a workload: set-up, the timed closed loop, checks and metrics.

One process, one thread, one client: each operation starts when the
previous one has finished.  The loop runs whole passes (see
bench_workloads), so every run measures the same composition of work.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import os
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import bench_workloads as wl
from bench_trace import Tracer

# set-ups timed per run: a few before the timed loop and the rest spread
# over it, so that a few fast seconds of the machine do not decide setup_s
SETUP_BEFORE = 3
SETUP_DURING = 6
# the timing metrics come from the slowest passes holding at least this
# many operations (see end_to_end)
FLOOR_MIN_SAMPLES = 40
# Per-operation time cap: several times the slowest operation of any
# workload when the benchmark was written (about 1.3 s).
OP_CAP_S = 10.0
MODULES = ("polycore", "ratfun", "symfun", "convolve", "pfrac", "seqlib", "cli")


class SourceMissing(Exception):
    """The checkout has no binprod sources to benchmark."""


def source_dir() -> Path:
    """The checkout's src/ directory, which must hold the binprod package."""
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "binprod" / "__init__.py").is_file():
        raise SourceMissing(f"no binprod package under {src}")
    return src


def loaded_binprod() -> Dict[str, object]:
    """The binprod package and submodules currently in sys.modules."""
    return {k: v for k, v in sys.modules.items() if k == "binprod" or k.startswith("binprod.")}


def import_binprod(src: Path) -> SimpleNamespace:
    """A fresh import of binprod from ``src``, as a namespace of its modules."""
    for name in loaded_binprod():
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    package = importlib.import_module("binprod")
    if Path(package.__file__).resolve().parent != src / "binprod":
        raise SourceMissing(f"binprod was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(
        binprod=package, **{m: importlib.import_module(f"binprod.{m}") for m in MODULES}
    )


# ---------------------------------------------------------------------------
# one capped operation


class OpTimeout(BaseException):
    """Raised inside an operation that ran past its cap.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


@dataclass
class Record:
    """One timed operation.

    ``cpu_s`` is the thread's CPU time, which every metric uses: the
    program is single-threaded and does no I/O, so on an unshared machine it
    equals the wall time, and it leaves out time the hypervisor gives to
    other machines (up to half the wall time on the virtual machine the
    benchmark was written on).
    """

    op: wl.Op
    cpu_s: float
    wall_s: float = 0.0
    result: object = None
    error: Optional[str] = None
    timed_out: bool = False


def run_capped(op: wl.Op, cap: float, tracer: Optional[Tracer] = None) -> Record:
    """Time one operation, interrupting it with SIGALRM after ``cap`` seconds."""
    armed = True

    def on_alarm(signum, frame):
        if armed:
            raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    if tracer is not None:
        tracer.on = True
    start, cpu_start = perf_counter(), thread_time()
    record = Record(op, 0.0)
    try:
        record.result = op.call()
    except OpTimeout:
        record.error, record.timed_out = f"over the {cap:g} s cap", True
    except Exception as exc:  # a failed operation is counted, never fatal
        record.error = f"{type(exc).__name__}: {exc}"
    finally:
        armed = False
    record.cpu_s = thread_time() - cpu_start
    record.wall_s = perf_counter() - start
    if tracer is not None:
        tracer.on = False
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
    return record


def run_passes(
    workload: str,
    seed: int,
    bp,
    first: List[wl.Op],
    budget: float,
    tracer: Optional[Tracer] = None,
    between_ops: Optional[Callable[[float], None]] = None,
    after_pass: Optional[Callable[[List[Record]], None]] = None,
) -> List[List[Record]]:
    """Whole passes, closed loop, for about ``budget`` seconds of operation CPU time.

    At least one pass starts, and a new pass starts only if the last one,
    repeated, would end within the budget; pacing by CPU time keeps the
    number of passes, and so the sample count, the same when the host takes
    time away.  At three times the budget of wall time no further operation
    starts, so a badly slow program or host still ends the run.
    ``between_ops`` gets the wall time so far after each operation, and
    ``after_pass`` each finished pass; both run outside the operations'
    timing.
    """
    passes: List[List[Record]] = []
    start = perf_counter()
    busy = 0.0
    while True:
        ops = first if not passes else wl.build_ops(bp, wl.generate(workload, seed, len(passes)), len(passes))
        records = []
        for op in ops:
            if perf_counter() - start > 3 * budget:
                break
            records.append(run_capped(op, OP_CAP_S, tracer))
            if between_ops is not None:
                between_ops(perf_counter() - start)
        passes.append(records)
        if after_pass is not None:
            after_pass(records)
        pass_busy = sum(r.cpu_s for r in records)
        busy += pass_busy
        if len(records) < len(ops) or busy + pass_busy > budget:
            return passes


def replay(passes: List[List[Record]]) -> List[List[Record]]:
    return [[run_capped(r.op, OP_CAP_S) for r in records] for records in passes]


# ---------------------------------------------------------------------------
# checks


class Checks:
    """What the checks found so far, kept small so memory does not grow with passes.

    ``failures`` maps the id of each failed Record to the reason.  The digest
    is the SHA-256 of the canonical outputs of the first pass checked, in
    operation order.
    """

    def __init__(self):
        self.failures: Dict[int, str] = {}
        self.attempted = 0
        self.bits = 0
        self.bound_degrees = 0
        self.reduced_degrees = 0
        self.digest: Optional[str] = None

    def fail(self, record: Record, why: str) -> None:
        self.failures.setdefault(id(record), f"{record.op.label}: {why}")

    def check_pass(self, records: List[Record]) -> None:
        """Check every result against the reference; group members must agree."""
        groups: Dict[tuple, set] = {}
        canonical = []
        for record in records:
            outcome = None
            if record.error is None:
                try:
                    outcome = record.op.check(record.result)
                except Exception as exc:  # an unreadable output is a wrong output
                    outcome = wl.Outcome(f"check raised {type(exc).__name__}: {exc}", "")
            error = record.error if outcome is None else outcome.error
            if error is not None:
                self.fail(record, error)
            elif record.op.group is not None:
                groups.setdefault(record.op.group, set()).add(outcome.canonical)
            if outcome is not None:
                self.bits = max(self.bits, outcome.bits)
                if outcome.cancel is not None:
                    self.bound_degrees += outcome.cancel[0]
                    self.reduced_degrees += outcome.cancel[1]
            canonical.append("<failed>" if outcome is None else outcome.canonical)
        for record in records:
            if len(groups.get(record.op.group, ())) > 1:
                self.fail(record, "methods print different results")
        self.attempted += len(records)
        if self.digest is None:
            self.digest = hashlib.sha256("\0".join(canonical).encode()).hexdigest()

    def output_metrics(self) -> Dict[str, float]:
        """Degree cancellation and coefficient size of the checked outputs."""
        bound = self.bound_degrees
        return {
            "ratfun.cancelled_deg_ratio": (bound - self.reduced_degrees) / bound if bound else 0.0,
            "ratfun.coeff_bits_max": float(self.bits),
        }


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(passes, checks: Checks, setup_s: float, rss_mb: float):
    """The end-to-end metrics and the notes printed beside them.

    The machine this was written on runs at a steady floor speed with
    spells of 5 to 20 s that are up to half again as fast, and how much of a
    run such spells cover varies from run to run.  Every whole pass is the
    same mix of work, so the timing metrics are taken over the slowest
    quarter of the whole passes, but at least FLOOR_MIN_SAMPLES operations:
    the program at the floor speed, which repeats from run to run.  A failed
    operation counts as completing no work and, in the latency figures, as
    taking the whole cap.
    """
    failed = checks.failures

    def latency(r: Record) -> float:
        return max(r.cpu_s, OP_CAP_S) if id(r) in failed else r.cpu_s

    def rate(rs: List[Record]) -> float:
        return sum(id(r) not in failed for r in rs) / sum(r.cpu_s for r in rs)

    whole = sorted((rs for rs in passes if len(rs) == len(passes[0])), key=rate)
    floor = whole[: max(-(-len(whole) // 4), -(-FLOOR_MIN_SAMPLES // len(whole[0])))]
    floor_ops = [r for rs in floor for r in rs]
    records = [r for rs in passes for r in rs]
    pct, tail_s = tail([latency(r) for r in floor_ops])
    metrics = {
        "ops_per_s": rate(floor_ops),
        "latency_p50_ms": statistics.median(latency(r) for r in floor_ops) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    notes = [
        f"timings are over the slowest {len(floor)} of {len(whole)} whole passes ({len(floor_ops)} samples; "
        f"latency_tail_ms is their p{pct:.1f}); over all passes ops_per_s is {rate(records):.6g} 1/s "
        f"and latency_p50_ms {statistics.median(latency(r) for r in records) * 1000:.6g} ms",
        f"failed_ratio {len(failed) / len(records):.4f} ({len(failed)} of {len(records)})",
    ]
    return metrics, notes


UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_calls", "_terms")):
        return "count"
    if name.endswith("_bits_max"):
        return "bits"
    return "ratio"


# ---------------------------------------------------------------------------
# a whole run


def setup(workload: str, seed: int, src: Path):
    """Import binprod, build the first pass and warm up, in seconds of CPU time."""
    start = thread_time()
    bp = import_binprod(src)
    ops = wl.build_ops(bp, wl.generate(workload, seed, 0), 0)
    wl.warm_up(bp, workload)
    return thread_time() - start, bp, ops


class SetupSampler:
    """Repeats the set-up to time it, leaving the run's own import in place."""

    def __init__(self, workload: str, seed: int, src: Path, budget: float):
        self.args = (workload, seed, src)
        self.samples: List[float] = []
        self.step = budget / (SETUP_DURING + 1)
        self.next_at = self.step

    def sample(self) -> None:
        saved = loaded_binprod()
        gc.collect()
        try:
            self.samples.append(setup(*self.args)[0])
        finally:
            for name in loaded_binprod():
                del sys.modules[name]
            sys.modules.update(saved)

    def between_ops(self, elapsed: float) -> None:
        if elapsed >= self.next_at and len(self.samples) < SETUP_BEFORE + SETUP_DURING:
            self.sample()
            self.next_at += self.step

    def setup_s(self) -> float:
        """The upper quartile of the samples: set-up at the machine's floor speed."""
        return sorted(self.samples)[len(self.samples) * 3 // 4]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object plus report lines."""
    src = source_dir()
    first_setup_s, bp, first = setup(workload, seed, src)
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    checks = Checks()
    leaks: List[str] = []
    if not trace:
        sampler = SetupSampler(workload, seed, src, seconds)
        sampler.samples.append(first_setup_s)
        while len(sampler.samples) < SETUP_BEFORE:
            sampler.sample()

        def check_and_release(records: List[Record]) -> None:
            # results are dropped once checked, so memory stays flat however
            # many passes run
            checks.check_pass(records)
            for record in records:
                record.result = None

        passes = run_passes(
            workload, seed, bp, first, seconds, between_ops=sampler.between_ops, after_pass=check_and_release
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, notes = end_to_end(passes, checks, sampler.setup_s(), rss_mb)
        lines += notes + [f"setup_s is the upper quartile of {len(sampler.samples)} set-ups"]
        units = UNITS
    else:
        # the same operations run traced, then untraced: the ratio of their
        # busy times is the tracing overhead
        with Tracer(bp) as tracer:
            passes = run_passes(workload, seed, bp, first, seconds / 2, tracer)
        leaks = tracer.unrestored()
        again = replay(passes)
        for records in passes:
            checks.check_pass(records)
        for before, after in zip((r for rs in passes for r in rs), (r for rs in again for r in rs)):
            if after.error is not None or after.result != before.result:
                checks.fail(before, "the untraced replay gave another result")
        traced_s = sum(r.cpu_s for rs in passes for r in rs)
        untraced_s = sum(r.cpu_s for rs in again for r in rs)
        metrics = tracer.metrics(len(passes), traced_s, untraced_s)
        metrics.update(checks.output_metrics())
        lines.append(f"per-layer values are totals over one pass of {len(passes[0])} operations")
        units = {name: layer_unit(name) for name in metrics}

    lines.append(f"passes {len(passes)}  operations {checks.attempted}")
    lines.append(f"digest {checks.digest} (canonical outputs of pass 0)")
    lines += [f"FAILED {why}" for why in list(checks.failures.values())[:20]]
    lines += [f"FAILED tracing left {name} wrapped" for name in leaks]
    for name, value in metrics.items():
        lines.append(f"{name:40s} {value:.6g} {units[name]}")
    result = {
        "correct": not checks.failures and not leaks,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return {"lines": lines, "result": result}


# ---------------------------------------------------------------------------
# the baseline grid


GRID_DEGREES = (2, 3, 4, 5, 6, 8)
GRID_METHODS = ("resultant", "symfun", "pfrac", "reconstruct")


def grid() -> dict:
    """bprod and hprod x 4 methods x d, one product per cell, capped like any operation.

    Operands are two random proper functions with denominators of degree d
    and integer coefficients in [-5, 5], drawn from random.Random(d).
    """
    bp = import_binprod(source_dir())
    cells = []
    for product, kind in (("bprod", "binomial"), ("hprod", "hadamard")):
        for method in GRID_METHODS:
            for d in GRID_DEGREES:
                rng = random.Random(d)
                a, b = wl.random_operand(rng, d - 1, d), wl.random_operand(rng, d - 1, d)
                spec = wl.ProductSpec(kind, method, 0, a, b, f"{product} {method} d={d}")
                op = wl.build_ops(bp, [spec], 0)[0]
                record = run_capped(op, OP_CAP_S)
                cell = {"product": product, "method": method, "d": d}
                if record.error is None:
                    cell["seconds"] = record.cpu_s
                    cell["correct"] = op.check(record.result).error is None
                elif record.timed_out:
                    cell["skipped"] = f">{OP_CAP_S:g}s"
                else:
                    cell["error"] = record.error
                cells.append(cell)
                print(_grid_line(cell), flush=True)
    return {"python": sys.version.split()[0], "cpus": os.cpu_count(), "cap_s": OP_CAP_S, "cells": cells}


def _grid_line(cell: dict) -> str:
    value = cell.get("skipped") or cell.get("error") or f"{cell['seconds']:.3f} s"
    flag = "" if cell.get("correct", True) else "  WRONG"
    return f"{cell['product']} {cell['method']:12s} d={cell['d']}  {value}{flag}"
