"""The benchmark's workloads: seeded inputs, the operations on them, and checks.

A workload runs in passes.  Every pass has the same fixed composition of
operation shapes (product, method, operand degrees, input class); only the
random coefficients change from pass to pass and from seed to seed, so a run
made of whole passes measures the same mix whatever the seed.

`generate(workload, seed, pass_index)` returns plain data and never touches
binprod, so it can be tested on its own.  `build_ops` binds that data to the
binprod modules of one import; each operation looks its entry point up on
the module at call time, so wrappers installed by the traced run see it.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

import bench_oracle as oracle

METHODS_DIRECT = ("resultant", "symfun")

# dense-den: (input class, operand denominator degrees, product).  Every
# operand has a denominator of degree 5 to 8 and each pair sums to 13, so
# every pair builds a 13 x 13 Sylvester matrix and the per-op times cluster
# instead of spanning two orders of magnitude.  One pair per input class in
# each pass: plain integers, non-integer rationals, a shared factor
# (1-x)(1-2x) that makes the product cancel below its degree bound, and
# improper operands; each pair runs one product by both methods, which keeps
# a pass short enough for several to fit in a run.
DENSE_PAIRS = (
    ("plain", 5, 8, "binomial"),
    ("rational", 6, 7, "hadamard"),
    ("cancel", 7, 6, "binomial"),
    ("improper", 8, 5, "hadamard"),
)

# solver-routes: (method, operand degrees).  The reconstruct pairs all fit a
# denominator of degree 15 or 16, and the pfrac pairs at degrees 2 and 3 take
# about as long, so the median operation falls inside one cluster of times;
# the pfrac pair at degrees 3 and 3 takes about three times as long and makes
# the tail.  The pfrac pairs take a little over half of a pass.
SOLVER_PAIRS = (
    ("reconstruct", 3, 5),
    ("reconstruct", 5, 3),
    ("reconstruct", 4, 4),
    ("pfrac", 2, 3),
    ("pfrac", 3, 2),
    ("pfrac", 3, 3),
)

IDENTITY_IDS = tuple("abcdefghijkl")

WORKLOADS = ("dense-den", "solver-routes", "cli-small")

# ---------------------------------------------------------------------------
# plain-data inputs


@dataclass(frozen=True)
class Operand:
    num: oracle.Coeffs
    den: oracle.Coeffs
    text: str

    @property
    def degrees(self) -> Tuple[int, int]:
        return oracle.degree(self.num), oracle.degree(self.den)


# An expression is an Operand or a tuple (op, left, right) with op one of
# "+", "obprod", "hprod", or ("^", base, exponent).
Expr = Union[Operand, tuple]


@dataclass(frozen=True)
class ProductSpec:
    """One call of binomial_product or hadamard_product."""

    kind: str
    method: str
    pair: int
    a: Operand
    b: Operand
    label: str


@dataclass(frozen=True)
class CliSpec:
    """One in-process ``binprod`` command.

    ``expr`` is the expression whose value the output must equal; ``shape``
    says how to read the output: "ratfun", "crosscheck", "coeffs",
    "recurrence" or "verify".
    """

    argv: Tuple[str, ...]
    shape: str
    expr: Optional[Expr]
    label: str


Spec = Union[ProductSpec, CliSpec]


def poly_text(coeffs) -> str:
    """A polynomial in the expression language, e.g. ``1 - 2*x + 1/2*x^3``."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) or "0"


def _coefficient(rng: random.Random, rational: bool, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 4) if rational else 1)
        if value or not nonzero:
            return value


def random_poly(rng: random.Random, deg: int, rational: bool = False, constant_one: bool = False) -> List[Fraction]:
    """Coefficients in [-5, 5] (over 1..4 when rational) with a nonzero top one."""
    coeffs = [_coefficient(rng, rational) for _ in range(deg)] + [_coefficient(rng, rational, nonzero=True)]
    if constant_one:
        coeffs[0] = Fraction(1)
    return coeffs


def make_operand(num, den) -> Operand:
    num, den = oracle.trim(num), oracle.trim(den)
    return Operand(num, den, f"({poly_text(num)})/({poly_text(den)})")


def _coprime_operand(rng: random.Random, num_deg: int, make_den, rational: bool = False) -> Operand:
    """Draws until numerator and denominator share no factor.

    A shared factor would cancel in the operand itself and shrink the
    product's degrees, making that operation several times cheaper.
    """
    while True:
        den = make_den()
        num = random_poly(rng, num_deg, rational)
        if oracle.gcd_degree(num, den) == 0:
            return make_operand(num, den)


def random_operand(rng: random.Random, num_deg: int, den_deg: int, rational: bool = False) -> Operand:
    return _coprime_operand(rng, num_deg, lambda: random_poly(rng, den_deg, rational, constant_one=True), rational)


def _shared_factor_operand(rng: random.Random, den_deg: int) -> Operand:
    """A proper operand whose denominator contains (1 - x)(1 - 2x)."""

    def den():
        rest = random_poly(rng, den_deg - 2, constant_one=True)
        return oracle.product_series([1, -3, 2] + [0] * den_deg, rest + [0] * 2)

    return _coprime_operand(rng, den_deg - 1, den)


def _named(name: str, num, den) -> Operand:
    return Operand(oracle.trim(num), oracle.trim(den), name)


def _named_degree2(rng: random.Random) -> Operand:
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    return rng.choice(
        (
            _named("fib", [0, 1], [1, -1, -1]),
            _named("lucas", [2, -1], [1, -1, -1]),
            _named("pell", [0, 1], [1, -2, -1]),
            _named("jacobsthal", [0, 1], [1, -1, -2]),
            _named(f"g({a}, {b})", [2, -a], [1, -a, -b]),
        )
    )


def _named_degree3(rng: random.Random) -> Operand:
    a = rng.randint(1, 3)
    return rng.choice(
        (
            _named("trib", [0, 1], [1, -1, -1, -1]),
            _named("perrin", [3, 0, -1], [1, 0, -1, -1]),
            _named(f"q({a})", [3, 0, -1], [1, 0, -1, -a]),
        )
    )


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"binprod-bench:{workload}:{seed}:{pass_index}")


def _dense_den(rng: random.Random) -> List[Spec]:
    specs: List[Spec] = []
    for pair, (variant, d1, d2, kind) in enumerate(DENSE_PAIRS):
        if variant == "cancel":
            a, b = _shared_factor_operand(rng, d1), _shared_factor_operand(rng, d2)
        else:
            extra = 1 if variant == "improper" else 0
            rational = variant == "rational"
            a = random_operand(rng, d1 - 1 + extra, d1, rational)
            b = random_operand(rng, d2 - 1 + extra, d2, rational)
        for method in METHODS_DIRECT:
            specs.append(ProductSpec(kind, method, pair, a, b, f"{kind}/{method} {variant} d={d1},{d2}"))
    return specs


def _solver_routes(rng: random.Random) -> List[Spec]:
    specs: List[Spec] = []
    for pair, (method, d1, d2) in enumerate(SOLVER_PAIRS):
        a, b = random_operand(rng, d1 - 1, d1), random_operand(rng, d2 - 1, d2)
        for kind in ("binomial", "hadamard"):
            specs.append(ProductSpec(kind, method, pair, a, b, f"{kind}/{method} d={d1},{d2}"))
    return specs


def expr_text(e: Expr) -> str:
    if isinstance(e, Operand):
        return e.text
    if e[0] == "^":
        return f"({expr_text(e[1])})^{e[2]}"
    return f"({expr_text(e[1])}) {e[0]} ({expr_text(e[2])})"


def _cli_small(rng: random.Random) -> List[Spec]:
    def rand(d: int) -> Operand:
        return random_operand(rng, d - 1, d)

    def product(cmd: str, a: Operand, b: Operand, *flags: str) -> CliSpec:
        op = "obprod" if cmd == "bprod" else "hprod"
        shape = "crosscheck" if flags else "ratfun"
        return CliSpec((cmd, a.text, b.text) + flags, shape, (op, a, b), f"{cmd} {' '.join(flags)}".strip())

    n2, n3 = _named_degree2(rng), _named_degree3(rng)
    r3a, r3b, r2a, r2b = rand(3), rand(3), rand(2), rand(2)
    specs: List[Spec] = [
        product("bprod", n2, n3),
        product("hprod", n2, n3),
        product("bprod", r3a, r3b),
        product("hprod", r3a, r3b),
        product("bprod", r2a, r2b, "--cross-check"),
        product("hprod", r2a, r2b, "--cross-check"),
    ]
    nested = ("+", ("hprod", ("obprod", rand(2), rand(2)), rand(2)), ("^", rand(2), 2))
    specs.append(CliSpec(("eval", expr_text(nested)), "ratfun", nested, "eval nested"))
    nested = ("obprod", ("+", rand(1), _named_degree2(rng)), ("^", rand(2), 2))
    specs.append(CliSpec(("eval", expr_text(nested)), "ratfun", nested, "eval nested"))
    series_expr = ("obprod", rand(2), _named_degree2(rng))
    specs.append(CliSpec(("coeffs", expr_text(series_expr), "-n", "300"), "coeffs", series_expr, "coeffs -n 300"))
    rec_expr = ("hprod", rand(2), rand(3))
    specs.append(CliSpec(("recurrence", expr_text(rec_expr)), "recurrence", rec_expr, "recurrence"))
    for ident in IDENTITY_IDS:
        specs.append(CliSpec(("verify", "--only", ident), "verify", None, f"verify --only {ident}"))
    return specs


_GENERATORS: Dict[str, Callable[[random.Random], List[Spec]]] = {
    "dense-den": _dense_den,
    "solver-routes": _solver_routes,
    "cli-small": _cli_small,
}


def generate(workload: str, seed: int, pass_index: int) -> List[Spec]:
    """The inputs of one pass; the same arguments always give the same inputs."""
    return _GENERATORS[workload](_rng(workload, seed, pass_index))


# ---------------------------------------------------------------------------
# reference values for expressions


def expr_series(e: Expr, order: int) -> list:
    if isinstance(e, Operand):
        return oracle.series(e.num, e.den, order)
    if e[0] == "^":
        base = expr_series(e[1], order)
        out = base
        for _ in range(e[2] - 1):
            out = oracle.product_series(out, base)
        return out
    left, right = expr_series(e[1], order), expr_series(e[2], order)
    if e[0] == "+":
        return [x + y for x, y in zip(left, right)]
    if e[0] == "obprod":
        return oracle.binomial_series(left, right)
    return oracle.hadamard_series(left, right)


def expr_bound(e: Expr) -> Tuple[int, int]:
    if isinstance(e, Operand):
        return e.degrees
    if e[0] == "^":
        return oracle.power_bound(expr_bound(e[1]), e[2])
    left, right = expr_bound(e[1]), expr_bound(e[2])
    combine = {"+": oracle.sum_bound, "obprod": oracle.binomial_bound, "hprod": oracle.hadamard_bound}[e[0]]
    return combine(left, right)


# ---------------------------------------------------------------------------
# operations bound to one import of binprod


@dataclass(frozen=True)
class Outcome:
    """What the check of one operation found.

    ``cancel`` is (degree bound of the denominator, reduced degree) for a
    product whose plan the check could ask for.
    """

    error: Optional[str]
    canonical: str
    bits: int = 0
    cancel: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class Op:
    """A timed call and the check of its result.

    Operations with the same ``group`` must print identical canonical text.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    group: Optional[tuple] = None


class _References:
    """Reference series and plan degrees of one pass, shared by its operations."""

    def __init__(self):
        self._series: Dict[object, list] = {}
        self._plans: Dict[object, int] = {}

    def series(self, key, expr: Expr, order: int) -> list:
        have = self._series.get(key)
        if have is None or len(have) < order:
            have = expr_series(expr, order)
            self._series[key] = have
        return have[:order]

    def plan_degree(self, key, bp, kind: str, a, b) -> int:
        """Degree of the denominator bound from the public plan functions."""
        if key not in self._plans:
            if kind == "binomial":
                plan = bp.convolve.plan_binomial(a, b, "symfun")
            else:
                plan = bp.convolve.plan_hadamard(a.proper_split()[1], b.proper_split()[1], "symfun")
            self._plans[key] = plan.den_bound.degree
        return self._plans[key]


def _check_ratfun(refs: _References, key, expr: Expr, num, den) -> Optional[str]:
    order = oracle.terms_needed(expr_bound(expr), oracle.degree(num), oracle.degree(den))
    return oracle.check_ratfun(num, den, refs.series(key, expr, order))


def _ratfun_of(bp, operand: Operand):
    return bp.ratfun.RatFun(bp.polycore.Poly(operand.num), bp.polycore.Poly(operand.den))


def _product_op(bp, spec: ProductSpec, refs: _References, pass_index: int) -> Op:
    a, b = _ratfun_of(bp, spec.a), _ratfun_of(bp, spec.b)
    entry = "binomial_product" if spec.kind == "binomial" else "hadamard_product"
    expr = ("obprod" if spec.kind == "binomial" else "hprod", spec.a, spec.b)

    def call():
        return getattr(bp.convolve, entry)(a, b, method=spec.method)

    def check(result) -> Outcome:
        num, den = result.num.coeffs, result.den.coeffs
        return Outcome(
            _check_ratfun(refs, (spec.pair, spec.kind), expr, num, den),
            str(result),
            oracle.coeff_bits(num, den),
            (refs.plan_degree((spec.pair, spec.kind), bp, spec.kind, a, b), result.den.degree),
        )

    return Op(spec.label, call, check, group=(pass_index, spec.pair, spec.kind))


_AGREE = "methods agree: resultant, symfun, pfrac, reconstruct"


def _cli_op(bp, spec: CliSpec, refs: _References, index: int) -> Op:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = bp.cli.main(list(spec.argv))
        return code, out.getvalue(), err.getvalue()

    def check(result) -> Outcome:
        code, out, err = result
        if code != 0:
            return Outcome(f"exit code {code}: {err.strip()}", out)
        lines = out.splitlines()
        if spec.shape == "verify":
            ident = spec.argv[-1]
            ok = bool(lines) and lines[0].startswith(f"[PASS] ({ident})") and lines[-1].startswith("1/1 ")
            return Outcome(None if ok else f"identity {ident} not verified", out)
        if spec.shape == "coeffs":
            got = [Fraction(line) for line in lines]
            error = None if got == expr_series(spec.expr, int(spec.argv[-1])) else "coefficients differ from the reference"
            return Outcome(error, out, oracle.coeff_bits(got))
        if spec.shape == "recurrence":
            num, den = oracle.parse_recurrence(out)
        else:
            if spec.shape == "crosscheck" and lines[1:] != [_AGREE]:
                return Outcome(f"cross-check reported {lines[1:]!r}", out)
            num, den = oracle.parse_ratfun(lines[0])
        cancel = None
        if spec.expr[0] in ("obprod", "hprod") and all(isinstance(x, Operand) for x in spec.expr[1:]):
            kind = "binomial" if spec.expr[0] == "obprod" else "hadamard"
            a, b = _ratfun_of(bp, spec.expr[1]), _ratfun_of(bp, spec.expr[2])
            cancel = (refs.plan_degree(index, bp, kind, a, b), oracle.degree(den))
        error = _check_ratfun(refs, index, spec.expr, num, den)
        return Outcome(error, out, oracle.coeff_bits(num, den), cancel)

    return Op(spec.label, call, check)


def build_ops(bp, specs: List[Spec], pass_index: int) -> List[Op]:
    """Bind one pass's inputs to the binprod modules in ``bp``."""
    refs = _References()
    ops = []
    for index, spec in enumerate(specs):
        if isinstance(spec, ProductSpec):
            ops.append(_product_op(bp, spec, refs, pass_index))
        else:
            ops.append(_cli_op(bp, spec, refs, index))
    return ops


def warm_up(bp, workload: str) -> None:
    """Run each entry point of the workload once on small inputs."""
    fib = bp.seqlib.named_gf("fib").gf
    pell = bp.seqlib.named_gf("pell").gf
    if workload == "cli-small":
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            bp.cli.main(["bprod", "fib", "pell"])
            bp.cli.main(["verify", "--only", "k"])
        return
    methods = METHODS_DIRECT if workload == "dense-den" else ("pfrac", "reconstruct")
    for method in methods:
        bp.convolve.binomial_product(fib, pell, method=method)
        bp.convolve.hadamard_product(fib, pell, method=method)
