"""Per-layer tracing from outside the program.

The traced run replaces module-level names of binprod with timing wrappers
for the length of the run and puts the originals back afterwards; nothing
under src/ records anything.  Each wrapper is patched where the name is
looked up: `resultant` finds `det_fraction_free` in polycore's namespace,
`RatFun.__init__` finds `poly_gcd` in ratfun's, and so on.

Spans nest and are timed in thread CPU time, like the operations.  A
span's self time is its duration minus the durations of the spans opened
directly inside it, so self times over all spans add up to the time spent
inside the outermost ones.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import thread_time
from typing import Dict, List, Tuple

# span name -> the (module, attribute) bindings it wraps.  "ratfun.RatFun"
# names the class, so the binding is a method.
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "polycore.det": (("polycore", "det_fraction_free"),),
    "polycore.row_reduce": (("polycore", "_row_reduce"),),
    "ratfun.reconstruct": (("ratfun", "reconstruct_rational"), ("cli", "reconstruct_rational")),
    "ratfun.gcd": (("ratfun", "poly_gcd"),),
    "ratfun.expand": (("ratfun.RatFun", "expand"),),
    "symfun.newton": (("symfun", "denominator_via_symfun"),),
    "convolve.denominator": (("convolve", "binomial_denominator"), ("convolve", "hadamard_denominator")),
    "convolve.combine": (("convolve", "series_binomial"), ("convolve", "series_hadamard")),
    "convolve.product": (
        ("convolve", "binomial_product"),
        ("convolve", "hadamard_product"),
        ("cli", "binomial_product"),
        ("cli", "hadamard_product"),
        ("seqlib", "binomial_product"),
        ("seqlib", "hadamard_product"),
    ),
    "pfrac.xgcd": (("pfrac", "tpoly_xgcd"),),
    "pfrac.split": (("pfrac", "constant_term_split"),),
    "pfrac.core": (("pfrac", "binomial_via_constant_term"), ("pfrac", "hadamard_proper_core")),
    "cli.main": (("cli", "main"),),
    "cli.parse": (("cli", "parse_expression"),),
    "cli.evaluate": (("cli", "evaluate_text"),),
    "cli.format": (("cli", "format_ratfun"), ("ratfun", "format_ratfun")),
    "seqlib.identity": (("cli", "run_identity_suite"),),
}


def _resolve(bp, where: str):
    module, _, cls = where.partition(".")
    target = getattr(bp, module)
    return getattr(target, cls) if cls else target


class Tracer:
    """Timing wrappers around the bindings in SPANS, with aggregate spans.

    Spans are recorded only while ``on`` is true, so inputs built between
    operations are not counted.  Use as a context manager: entering installs
    the wrappers, leaving restores every original binding.
    """

    def __init__(self, bp):
        self.bp = bp
        self.on = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.child_calls: Counter = Counter()  # (parent span, child span) -> calls
        self.expand_terms = 0
        self._stack: List[list] = []  # open spans: [name, time in child spans]
        self._originals: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if name == "ratfun.expand":
                self.expand_terms += args[1] if len(args) > 1 else kwargs["order"]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append([name, 0.0])
            start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                _, child = self._stack.pop()
                self.self_s[name] += elapsed - child
                self.total_s[name] += elapsed
                self.calls[name] += 1
                if parent is not None:
                    self._stack[-1][1] += elapsed
                    self.child_calls[parent, name] += 1

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, bindings in SPANS.items():
            for where, attr in bindings:
                target = _resolve(self.bp, where)
                original = vars(target)[attr]
                self._originals.append((target, attr, original))
                setattr(target, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._originals):
            setattr(target, attr, original)
        self.on = False

    def unrestored(self) -> List[str]:
        """Bindings that are not their original object; empty after exit."""
        return [
            f"{getattr(target, '__name__', target)}.{attr}"
            for target, attr, original in self._originals
            if vars(target)[attr] is not original
        ]

    def metrics(self, passes: int, traced_s: float, untraced_s: float) -> Dict[str, float]:
        """Per-layer metrics, as totals over one pass of the workload.

        ``traced_s`` and ``untraced_s`` are the busy times of the same
        operations with and without the wrappers.
        """
        s, calls = self.self_s, self.calls

        def per_pass(value) -> float:
            return value / passes

        fits = calls["ratfun.reconstruct"]
        candidates = self.child_calls["ratfun.reconstruct", "polycore.row_reduce"]
        return {
            "polycore.det_s": per_pass(s["polycore.det"]),
            "polycore.det_calls": per_pass(calls["polycore.det"]),
            "polycore.row_reduce_s": per_pass(s["polycore.row_reduce"]),
            "polycore.row_reduce_calls": per_pass(calls["polycore.row_reduce"]),
            "ratfun.reconstruct_s": per_pass(s["ratfun.reconstruct"]),
            "ratfun.reconstruct_candidates_per_fit": candidates / fits if fits else 0.0,
            "ratfun.gcd_s": per_pass(s["ratfun.gcd"]),
            "ratfun.gcd_calls": per_pass(calls["ratfun.gcd"]),
            "ratfun.expand_s": per_pass(s["ratfun.expand"]),
            "ratfun.expand_terms": per_pass(self.expand_terms),
            "symfun.newton_s": per_pass(s["symfun.newton"]),
            "convolve.denominator_s": per_pass(self.total_s["convolve.denominator"]),
            "convolve.combine_s": per_pass(s["convolve.combine"]),
            "convolve.product_self_s": per_pass(s["convolve.product"]),
            "pfrac.xgcd_s": per_pass(s["pfrac.xgcd"]),
            "pfrac.split_self_s": per_pass(s["pfrac.split"]),
            "pfrac.core_self_s": per_pass(s["pfrac.core"]),
            "cli.main_self_s": per_pass(s["cli.main"]),
            "cli.parse_s": per_pass(s["cli.parse"]),
            "cli.evaluate_self_s": per_pass(s["cli.evaluate"]),
            "cli.format_s": per_pass(s["cli.format"]),
            "seqlib.identity_s": per_pass(s["seqlib.identity"]),
            "trace.overhead_ratio": untraced_s / traced_s,
            "trace.self_coverage_ratio": sum(s.values()) / traced_s,
        }
