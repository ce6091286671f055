"""Named sequence generating functions and an identity verification suite.

The registry holds the classical rational generating functions (Fibonacci,
Lucas, Pell, tribonacci, Perrin, Jacobsthal, and a few parametric families)
used by the command line and by `run_identity_suite`, which verifies a
catalog of binomial-convolution and Hadamard-product identities exactly,
as equalities of reduced rational functions.

Failures are reported as data rather than raised, so the suite can serve as
a regression harness: a deliberately wrong generating function passed via
``overrides`` flips the affected checks to "fail" without raising.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction

from .convolve import binomial_product, hadamard_product, komatsu_decompose
from .errors import InvalidInput
from .polycore import (
    Poly,
    det_fraction_free,
    sub_one_minus_y,
    sub_x_over_y,
    sylvester,
    _check_type,
    _fr,
    _iter,
)
from .ratfun import RatFun


# ---------------------------------------------------------------------------
# named generating functions


class NamedGF(namedtuple("NamedGF", "name params gf")):
    """A registry entry: a sequence name, its parameters, and its series."""

    __slots__ = ()


def _fib_gf() -> RatFun:
    return RatFun(Poly.x(), Poly([1, -1, -1]))


def _lucas_gf() -> RatFun:
    return RatFun(Poly([2, -1]), Poly([1, -1, -1]))


def _pell_gf() -> RatFun:
    return RatFun(Poly.x(), Poly([1, -2, -1]))


def _trib_gf(*params: Fraction) -> RatFun:
    if not params:
        return RatFun(Poly.x(), Poly([1, -1, -1, -1]))
    s0, s1, s2 = params
    return RatFun(Poly([s0, s1 - s0, s2 - s1 - s0]), Poly([1, -1, -1, -1]))


def _perrin_gf() -> RatFun:
    return RatFun(Poly([3, 0, -1]), Poly([1, 0, -1, -1]))


def _jacobsthal_gf() -> RatFun:
    return RatFun(Poly.x(), Poly([1, -1, -2]))


def _q_gf(a: Fraction) -> RatFun:
    return RatFun(Poly([3, 0, -1]), Poly([1, 0, -1, -a]))


def _r_gf() -> RatFun:
    return RatFun(Poly([1, 0, 0, -2]), Poly([1, 0, 0, -8, 4]))


def _g_gf(a: Fraction, b: Fraction) -> RatFun:
    return RatFun(Poly([2, -a]), Poly([1, -a, -b]))


# name -> (allowed parameter counts, builder, description)
_REGISTRY: dict[str, tuple[tuple[int, ...], Callable[..., RatFun], str]] = {
    "fib": ((0,), _fib_gf, "Fibonacci numbers, x/(1-x-x^2)"),
    "lucas": ((0,), _lucas_gf, "Lucas numbers, (2-x)/(1-x-x^2)"),
    "pell": ((0,), _pell_gf, "Pell numbers, x/(1-2x-x^2)"),
    "trib": (
        (0, 3),
        _trib_gf,
        "tribonacci numbers; trib(s0,s1,s2) sets the initial values",
    ),
    "perrin": ((0,), _perrin_gf, "Perrin numbers, (3-x^2)/(1-x^2-x^3)"),
    "jacobsthal": ((0,), _jacobsthal_gf, "Jacobsthal numbers, x/(1-x-2x^2)"),
    "q": ((1,), _q_gf, "Perrin-like family q(a), (3-x^2)/(1-x^2-ax^3)"),
    "r": ((0,), _r_gf, "quartic sequence, (1-2x^3)/(1-8x^3+4x^4)"),
    "g": ((2,), _g_gf, "second-order family g(a,b), (2-ax)/(1-ax-bx^2)"),
}


def sequence_names() -> list[str]:
    """Registered sequence names, sorted."""
    return sorted(_REGISTRY)


def sequence_descriptions() -> dict[str, str]:
    return {name: entry[2] for name, entry in _REGISTRY.items()}


def named_gf(name: str, params: Iterable = ()) -> NamedGF:
    """Look up a named generating function, checking the parameter count."""
    if _check_type(name, str, "a sequence name") not in _REGISTRY:
        raise InvalidInput(f"unknown sequence {name!r}; known: {', '.join(sequence_names())}")
    arities, builder, _ = _REGISTRY[name]
    values = tuple(_fr(p) for p in _iter(params, "parameters"))
    if len(values) not in arities:
        counts = " or ".join(str(a) for a in arities)
        raise InvalidInput(f"{name} takes {counts} parameters, got {len(values)}")
    return NamedGF(name, values, builder(*values))


# ---------------------------------------------------------------------------
# Fibonacci and Lucas numbers at arbitrary integer index, and multisections


def fib_number(n: int) -> int:
    """F_n for any integer n, with F_{-n} = (-1)^(n-1) F_n."""
    if n < 0:
        return fib_number(-n) * (1 if (-n) % 2 else -1)
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas_number(n: int) -> int:
    """L_n for any integer n, with L_{-n} = (-1)^n L_n."""
    if n < 0:
        return lucas_number(-n) * (-1 if (-n) % 2 else 1)
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci_multisection(p: int, q: int) -> RatFun:
    """The generating function of n -> F_{pn+q}.

    Equals (F_q + (-1)^q F_{p-q} x) / (1 - L_p x + (-1)^p x^2) for all
    integers p and q, using the signed extension to negative indices.
    """
    num = Poly([fib_number(q), _parity(q) * fib_number(p - q)])
    den = Poly([1, -lucas_number(p), _parity(p)])
    return RatFun(num, den)


def lucas_multisection(p: int, q: int) -> RatFun:
    """The generating function of n -> L_{pn+q}.

    Equals (L_q - (-1)^q L_{p-q} x) / (1 - L_p x + (-1)^p x^2).
    """
    num = Poly([lucas_number(q), -_parity(q) * lucas_number(p - q)])
    den = Poly([1, -lucas_number(p), _parity(p)])
    return RatFun(num, den)


def _parity(n: int) -> int:
    return -1 if n % 2 else 1


# ---------------------------------------------------------------------------
# identity suite


class IdentityCheck(namedtuple("IdentityCheck", "id slug description params status witness", defaults=("",))):
    """Outcome of one identity: exact pass/fail plus a failure witness."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class IdentityReport(namedtuple("IdentityReport", "checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] ({c.id}) {c.slug} [{c.params}]")
            lines.append(f"       {c.description}")
            if c.witness:
                lines.append(f"       witness: {c.witness}")
        done = sum(1 for c in self.checks if c.passed)
        lines.append(f"{done}/{len(self.checks)} identity groups verified exactly")
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        return [c._asdict() for c in self.checks]


DEFAULT_SEED = "binprod-identity-suite"


def _expect(failures: list[str], label: str, lhs: RatFun, rhs: RatFun) -> None:
    """Append a witness for label to failures unless lhs equals rhs.

    Equal means equal as reduced rational functions: `RatFun` equality
    compares canonical (num, den) pairs, so every coefficient agrees too.
    """
    if lhs != rhs:
        failures.append(f"{label}: {lhs} != {rhs}")


def _geometric_block(c) -> RatFun:
    """c/(1-x) as a RatFun."""
    return RatFun(Poly([c]), Poly([1, -1]))


def _check_church_bicknell(gfs, rng) -> tuple[str, list[str]]:
    f, lucas = gfs["fib"], gfs["lucas"]
    prod = binomial_product(f, f)
    display = RatFun(Poly([0, 0, 2]), Poly([1, -3, -2, 4]))
    rhs = (lucas.compose_scale(2) - _geometric_block(2)) / 5
    failures = []
    _expect(failures, "fib (.) fib vs display", prod, display)
    _expect(failures, "fib (.) fib vs (L(2x) - 2/(1-x))/5", prod, rhs)
    return "no parameters", failures


def _check_generalized_cb(gfs, rng) -> tuple[str, list[str]]:
    f, lucas = gfs["fib"], gfs["lucas"]
    failures = []
    for p in range(-3, 6):
        lhs = 5 * binomial_product(
            f.compose_scale(fib_number(p - 1)), f.compose_scale(fib_number(p + 1))
        )
        rhs = lucas.compose_scale(lucas_number(p)) - lucas_multisection(p, 0)
        _expect(failures, f"p={p}", lhs, rhs)
    return "p in {-3..5}", failures


def _check_even_binomial(gfs, rng) -> tuple[str, list[str]]:
    f = gfs["fib"]
    lhs = binomial_product(f, RatFun(Poly.one(), Poly([1, 0, -1])))
    display = RatFun(Poly([0, 1, -1]), Poly([1, -2, -3, 4, -1]))
    rhs = (fibonacci_multisection(2, 0) - f.compose_scale(-1)) / 2
    failures = []
    _expect(failures, "fib (.) 1/(1-x^2) vs display", lhs, display)
    _expect(failures, "vs (F(2n) - F(-x))/2 form", lhs, rhs)
    return "no parameters", failures


def _check_fib_squares_conv(gfs, rng) -> tuple[str, list[str]]:
    f, lucas = gfs["fib"], gfs["lucas"]
    squares = hadamard_product(f, f)
    lhs = binomial_product(squares, RatFun(Poly([10]), Poly([1, 0, -5])))
    display = RatFun(
        Poly([0, 10, -30, 0, -20, -60]), Poly([1, -4, -15, 50, 35, -114, 36])
    )
    rhs = lucas_multisection(2, 0) - 2 * lucas.compose_scale(-2) + lucas.compose_scale(3)
    failures = []
    _expect(failures, "(F^2) (.) 10/(1-5x^2) vs display", lhs, display)
    _expect(failures, "vs L(2n) + (3^n + (-2)^(n+1)) L_n form", lhs, rhs)
    return "no parameters", failures


def _check_second_order_self(gfs, rng) -> tuple[str, list[str]]:
    pairs = [(1, 1), (1, 2), (2, 1)]
    pairs += [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
    failures = []
    for a, b in pairs:
        g = _g_gf(_fr(a), _fr(b))
        lhs = binomial_product(g, g)
        rhs = RatFun(Poly([2]), Poly([1, -a])) + g.compose_scale(2)
        _expect(failures, f"(a,b)=({a},{b})", lhs, rhs)
    return "(a,b) in {(1,1),(1,2),(2,1)} plus 5 seeded draws from [-4,4]^2", failures


def _check_komatsu(gfs, rng) -> tuple[str, list[str]]:
    t = gfs["trib"]
    failures = []
    tt = binomial_product(t, t)
    d1 = Poly([1, -2, -4, -8])  # D(2x) for D = 1-x-x^2-x^3
    d2 = Poly([1, -2, 0, 2])
    dneg = Poly([1, 1, -1, 1])  # D(-x)
    display = RatFun(Poly([0, 0, 2, -2, -2, -4]), Poly([1, -4, 0, 2, 12, -8, -16]))
    _expect(failures, "t (.) t vs sextic display", tt, display)
    split = RatFun(Poly([1, 1, 10]), 11 * d1) - RatFun(Poly([1, 1, -8]), 11 * d2)
    _expect(failures, "t (.) t vs two-term split", tt, split)
    geom = RatFun.geometric(1)
    aux_lhs = RatFun(Poly([1, 1, -8]), d2)
    aux_rhs = binomial_product(geom, RatFun(Poly([1, 3, -6]), dneg))
    _expect(failures, "auxiliary product", aux_lhs, aux_rhs)
    shifted = named_gf("trib", (1, -2, -7)).gf.compose_scale(-1)
    _expect(failures, "signed shifted tribonacci", RatFun(Poly([1, 3, -6]), dneg), shifted)
    negated = -(named_gf("trib", (-1, 2, 7)).gf.compose_scale(-1))
    _expect(failures, "negated shifted tribonacci", RatFun(Poly([1, 3, -6]), dneg), negated)
    full = (
        named_gf("trib", (2, 3, 10)).gf.compose_scale(2)
        + 2 * binomial_product(named_gf("trib", (-1, 2, 7)).gf.compose_scale(-1), geom)
    ) / 22
    _expect(failures, "full closed form", tt, full)
    u, v = komatsu_decompose(t, t)
    want_u = Poly([Fraction(1, 11), Fraction(1, 11), Fraction(10, 11)])
    want_v = Poly([Fraction(-1, 11), Fraction(-3, 11), Fraction(6, 11)])
    if u != want_u or v != want_v:
        failures.append(f"decomposition: got u={u}, v={v}")
    return "no parameters", failures


def _check_perrin_family(gfs, rng) -> tuple[str, list[str]]:
    perrin = gfs["perrin"]
    failures = []
    prod = binomial_product(perrin, perrin)
    display = 3 * RatFun(
        Poly([3, 0, -11, -15, 4, 4]), Poly([1, 0, -5, -7, 4, 4, -8])
    )
    rhs = perrin.compose_scale(2) + 2 * perrin.compose_scale(-1)
    _expect(failures, "P (.) P vs display", prod, display)
    _expect(failures, "P (.) P vs P(2x) + 2P(-x)", prod, rhs)
    u, v = komatsu_decompose(perrin, perrin)
    if u != Poly([3, 0, -4]) or v != Poly([6, 0, -2]):
        failures.append(f"decomposition: got u={u}, v={v}")
    for a in (-2, -1, 1, 2, 3):
        q = _q_gf(_fr(a))
        lhs = binomial_product(q, q)
        rhs = q.compose_scale(2) + 2 * q.compose_scale(-1)
        _expect(failures, f"a={a}", lhs, rhs)
    return "a in {-2..3} minus 0", failures


def _check_jacobsthal(gfs, rng) -> tuple[str, list[str]]:
    j = gfs["jacobsthal"]
    lhs = 3 * binomial_product(j, j)
    rhs = j.compose_scale(2) + 2 * j.compose_scale(-1)
    failures = []
    _expect(failures, "3 J (.) J vs J(2x) + 2J(-x)", lhs, rhs)
    return "no parameters", failures


def _check_quartic(gfs, rng) -> tuple[str, list[str]]:
    r, perrin = gfs["r"], gfs["perrin"]
    lhs = binomial_product(r, r)
    rhs = (r.compose_scale(2) + perrin.compose_poly(Poly([0, 0, 4]))) / 4
    failures = []
    _expect(failures, "R (.) R vs (R(2x) + P(4x^2))/4", lhs, rhs)
    return "no parameters", failures


def _check_hadamard_second_order(gfs, rng) -> tuple[str, list[str]]:
    failures = []
    tuples = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(10)]
    for a, b, c, d in tuples:
        lhs = hadamard_product(
            RatFun(Poly.x(), Poly([1, -a, -b])), RatFun(Poly.x(), Poly([1, -c, -d]))
        )
        rhs = RatFun(
            Poly([0, 1, 0, -b * d]),
            Poly([1, -a * c, -(a * a * d + b * c * c + 2 * b * d), -a * b * c * d, b * b * d * d]),
        )
        _expect(failures, f"(a,b,c,d)=({a},{b},{c},{d})", lhs, rhs)
    return "10 seeded integer tuples from [-3,3]^4", failures


def _check_fib_squares_hadamard(gfs, rng) -> tuple[str, list[str]]:
    f = gfs["fib"]
    prod = hadamard_product(f, f)
    # the quartic form reduces to the cubic one; both displays must agree
    quartic = RatFun(Poly([0, 1, 0, -1]), Poly([1, -1, -4, -1, 1]))
    cubic = RatFun(Poly([0, 1, -1]), Poly([1, -2, -2, 1]))
    failures = []
    _expect(failures, "F * F vs reduced display", prod, cubic)
    _expect(failures, "F * F vs unreduced display", prod, quartic)
    if prod.num != cubic.num or prod.den != cubic.den:
        failures.append(f"not in lowest terms: {prod}")
    return "no parameters", failures


def _check_worked_examples(gfs, rng) -> tuple[str, list[str]]:
    failures = []
    one = binomial_product(
        RatFun(Poly.x(), Poly([1, -1]) * Poly([1, -2])),
        RatFun(Poly.x(), Poly([1, -3]) * Poly([1, -5])),
    )
    want = RatFun(
        Poly([2, -11]).shift(2),
        Poly([1, -4]) * Poly([1, -5]) * Poly([1, -6]) * Poly([1, -7]),
    )
    _expect(failures, "distinct-factor example", one, want)

    two = binomial_product(RatFun(Poly.monomial(3), Poly([1, -1])), RatFun(Poly.one(), Poly([1, -2])))
    want = RatFun(Poly.monomial(3), Poly([1, -2]) ** 3 * Poly([1, -3]))
    _expect(failures, "improper operand example", two, want)

    three = binomial_product(
        RatFun(Poly.monomial(2), Poly([1, -1]) ** 2),
        RatFun(Poly.monomial(2), Poly([1, -2]) ** 2),
    )
    want = RatFun(
        Poly([6, -30, 49, -27]).shift(4),
        Poly([1, -1]) ** 2 * Poly([1, -2]) ** 2 * Poly([1, -3]) ** 3,
    )
    _expect(failures, "repeated-factor example", three, want)

    u, v = Poly([1, -1, -1]), Poly([1, -2, -1])
    det = det_fraction_free(sylvester(sub_one_minus_y(u), sub_x_over_y(v)))
    if det != Poly([1, -6, 7, 6, -9]):
        failures.append(f"Sylvester determinant: got {det}")

    prod = binomial_product(gfs["fib"], gfs["pell"])
    want = RatFun(Poly([0, 0, 2, -3]), Poly([1, -6, 7, 6, -9]))
    _expect(failures, "Fibonacci-Pell product", prod, want)
    return "no parameters", failures


_SUITE = (
    ("a", "church-bicknell", "binomial self-convolution of Fibonacci equals (2^n L_n - 2)/5", _check_church_bicknell),
    ("b", "generalized-church-bicknell", "weighted Fibonacci convolution equals (L_p^n L_n - L_pn)/5", _check_generalized_cb),
    ("c", "even-binomial-fibonacci", "even-index binomial sums of Fibonacci equal ((-1)^(n-1) F_n + F_2n)/2", _check_even_binomial),
    ("d", "fibonacci-squares-convolution", "10 sum C(n,2k) 5^k F^2 equals L_2n + (3^n + (-2)^(n+1)) L_n", _check_fib_squares_conv),
    ("e", "second-order-self-product", "g (.) g = 2/(1-ax) + g(2x) for g = (2-ax)/(1-ax-bx^2)", _check_second_order_self),
    ("f", "komatsu-tribonacci", "tribonacci self-convolution: closed form, two-term split, and decomposition", _check_komatsu),
    ("g", "perrin-family", "P (.) P = P(2x) + 2P(-x), and likewise for q(a)", _check_perrin_family),
    ("h", "jacobsthal", "3 J (.) J = J(2x) + 2J(-x)", _check_jacobsthal),
    ("i", "quartic-curiosity", "R (.) R = (R(2x) + P(4x^2))/4", _check_quartic),
    ("j", "hadamard-second-order", "x/(1-ax-bx^2) * x/(1-cx-dx^2) in closed form", _check_hadamard_second_order),
    ("k", "fibonacci-squares-hadamard", "F * F = (x-x^2)/(1-2x-2x^2+x^3)", _check_fib_squares_hadamard),
    ("l", "worked-examples", "assorted worked products and the 4x4 Sylvester determinant", _check_worked_examples),
)


def identity_ids() -> list[str]:
    return [ident for ident, _, _, _ in _SUITE]


def run_identity_suite(
    only: Iterable[str] | None = None,
    seed: str = DEFAULT_SEED,
    overrides: dict[str, RatFun] | None = None,
) -> IdentityReport:
    """Run the identity catalog and report pass/fail per identity.

    ``only`` filters by identity letter or slug.  ``overrides`` replaces
    registry generating functions by name (a test hook: a perturbed "lucas"
    must make the checks that rely on it fail).  Random parameter draws are
    seeded per identity, so a filtered run sees the same draws as a full
    run.
    """
    selected = None
    if only is not None:
        if isinstance(only, str):
            only = only.split(",")
        tokens = _iter(only, "the identity filter")
        selected = {_check_type(token, str, "an identity id").strip() for token in tokens} - {""}
        if not selected:
            raise InvalidInput("the identity filter selects no identity")
        known = {ident for ident, _, _, _ in _SUITE} | {slug for _, slug, _, _ in _SUITE}
        bad = selected - known
        if bad:
            raise InvalidInput(f"unknown identity ids: {', '.join(sorted(bad))}")
    gfs = {name: named_gf(name).gf for name in ("fib", "lucas", "pell", "trib", "perrin", "jacobsthal", "r")}
    if overrides is not None:
        gfs.update(_check_type(overrides, dict, "overrides"))
    checks = []
    for ident, slug, description, fn in _SUITE:
        if selected is not None and ident not in selected and slug not in selected:
            continue
        rng = random.Random(f"{seed}:{ident}")
        params, failures = fn(gfs, rng)
        checks.append(
            IdentityCheck(
                id=ident,
                slug=slug,
                description=description,
                params=params,
                status="pass" if not failures else "fail",
                witness="; ".join(failures),
            )
        )
    return IdentityReport(tuple(checks))
