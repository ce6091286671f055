"""Generated inputs: the four methods against each other and a brute-force series.

Operands have denominator degree 0-3 and cover improper numerators, pure
polynomials, repeated roots and non-integer rational coefficients; pairs
with colliding root products or sums and constant operands are checked
too.  The symfun denominators are also checked against the resultant ones
on their own, including pairs whose root sums cancel, and symfun's
symmetric square against the full resultant.  The gcd of polynomials with
a planted common factor and coefficients up to 2^200 matches Euclid's.  The
shared-cubic split exists exactly when a sympy resultant says it should, and
then sums back to the symfun product.  Printed functions read back through the
expression language.  The command line is fed generated expressions and
raw junk, and must end every call in a documented exit code.  The draws
are derandomized, so every run checks the same examples.
"""

import contextlib
import io
import math
import signal
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from binprod import (  # noqa: E402
    METHODS,
    DecompositionUnavailable,
    Poly,
    RatFun,
    binomial_product,
    hadamard_product,
)
from binprod.cli import evaluate_text, main  # noqa: E402
from binprod.convolve import binomial_denominator, hadamard_denominator, komatsu_decompose  # noqa: E402
from binprod.polycore import poly_gcd  # noqa: E402
from binprod.symfun import denominator_via_symfun, symmetric_square_via_symfun  # noqa: E402
from test_polycore import euclid_gcd  # noqa: E402

scalars = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero = scalars.filter(bool)
# drawn with replacement, so a product of these factors has repeated roots
roots = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def operands(draw):
    deg = draw(st.integers(0, 3))
    if draw(st.booleans()):
        factors = [Poly([1, -r]) for r in draw(st.lists(roots, min_size=deg, max_size=deg))]
    else:
        factors = [Poly([1, *draw(st.lists(scalars, min_size=deg, max_size=deg))])]
    den = math.prod(factors, start=Poly.one())
    # up to one degree past the denominator, or a cubic when den = 1
    top = draw(st.integers(0, max(den.degree + 1, 3 * (den.degree == 0))))
    num = Poly([*draw(st.lists(scalars, min_size=top, max_size=top)), draw(nonzero)])
    return RatFun(num, den)


def brute(kind, a, b, order):
    fs, gs = a.expand(order).coeffs, b.expand(order).coeffs
    if kind == "hadamard":
        return tuple(f * g for f, g in zip(fs, gs))
    return tuple(sum(math.comb(n, k) * fs[k] * gs[n - k] for k in range(n + 1)) for n in range(order))


def assert_four_methods_agree_with_brute_force(a, b):
    for kind, product in (("binomial", binomial_product), ("hadamard", hadamard_product)):
        got = product(a, b, method=METHODS[0])
        for method in METHODS[1:]:
            assert product(a, b, method=method) == got
        # and, independently of every route, the brute-force series of the
        # operands, to twice the size of the answer
        order = 2 * (got.num.degree + got.den.degree) + 4
        assert got.expand(order).coeffs == brute(kind, a, b, order)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(operands(), operands())
def test_four_methods_agree_with_brute_force(a, b):
    assert_four_methods_agree_with_brute_force(a, b)


def geometric_mix(roots, num):
    """num over prod(1 - r x) for the reciprocal roots r."""
    return RatFun(Poly(num), math.prod((Poly([1, -r]) for r in roots), start=Poly.one()))


# reciprocal roots (1, 2) against (2, 1) collide in both products, since
# 1*2 = 2*1 and 1 + 2 = 2 + 1; so do (1, 3) against (3, 1), and (1, 2, 3)
# against (3, 2, 1).  (1/2, 2) against (4, 1) collides in the Hadamard
# product only.  The last three pairs have constant operands.
COLLIDING_AND_CONSTANT_PAIRS = [
    (geometric_mix([1, 2], [1]), geometric_mix([2, 1], [0, 1])),
    (geometric_mix([1, 3], [2, -1]), geometric_mix([3, 1], [1, 1])),
    (geometric_mix([1, 2, 3], [1, 0, 1]), geometric_mix([3, 2, 1], [0, 0, 1])),
    (geometric_mix([Fraction(1, 2), 2], [1]), geometric_mix([4, 1], [1, 2, 3])),
    (RatFun(3), geometric_mix([1, 1], [0, 1])),
    (geometric_mix([2, Fraction(-1, 3)], [1, 2, 0, 1]), RatFun(Fraction(-1, 2))),
    (RatFun(2), RatFun(Fraction(5, 3))),
]


@pytest.mark.parametrize("pair", COLLIDING_AND_CONSTANT_PAIRS)
def test_four_methods_agree_on_colliding_roots_and_constants(pair):
    assert_four_methods_agree_with_brute_force(*pair)


@st.composite
def colliding_pairs(draw):
    """(a, b) where b's reciprocal roots are c times a's, or a's plus c.

    Then alpha_i beta_j = alpha_j beta_i, or alpha_i + beta_j = alpha_j + beta_i,
    for every i != j.
    """
    u_roots = draw(st.lists(roots, min_size=2, max_size=3, unique=True))
    c = draw(nonzero)
    if draw(st.booleans()):
        v_roots = [c * r for r in u_roots]
    else:
        v_roots = [c + r for r in u_roots]
    nums = [draw(st.lists(scalars, min_size=1, max_size=3).filter(any)) for _ in range(2)]
    return geometric_mix(u_roots, nums[0]), geometric_mix(v_roots, nums[1])


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(colliding_pairs())
def test_four_methods_agree_on_generated_root_collisions(pair):
    assert_four_methods_agree_with_brute_force(*pair)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.lists(rationals, max_size=5), rationals.filter(bool), st.lists(rationals, max_size=4))
def test_printed_function_reads_back(num, den0, den_tail):
    f = RatFun(Poly(num), Poly([den0, *den_tail]))
    assert evaluate_text(str(f)) == f


@st.composite
def denominators(draw):
    """den(0) = 1 and degree 1-3, with rational roots or rational coefficients."""
    deg = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return math.prod((Poly([1, -r]) for r in draw(st.lists(roots, min_size=deg, max_size=deg))), start=Poly.one())
    return Poly([1, *draw(st.lists(scalars, min_size=deg - 1, max_size=deg - 1)), draw(nonzero)])


@st.composite
def cancelling_pairs(draw):
    """(u, v) where v has the negatives of some of u's roots, so some alpha_i + beta_j = 0."""
    u_roots = draw(st.lists(roots, min_size=1, max_size=3))
    shared = draw(st.lists(st.sampled_from(u_roots), min_size=1, max_size=2))
    extra = draw(st.lists(roots, max_size=1))
    u = math.prod((Poly([1, -r]) for r in u_roots), start=Poly.one())
    v = math.prod((Poly([1, r]) for r in shared), start=Poly([1, *(-r for r in extra)]))
    return u, v


def assert_symfun_matches_resultants(u, v):
    assert denominator_via_symfun(u, v, "binomial") == binomial_denominator(u, v)
    assert denominator_via_symfun(u, v, "hadamard") == hadamard_denominator(u, v)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(denominators(), denominators())
def test_symfun_denominators_match_resultants(u, v):
    assert_symfun_matches_resultants(u, v)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(cancelling_pairs())
def test_symfun_denominators_match_resultants_when_root_sums_cancel(pair):
    u, v = pair
    assert binomial_denominator(u, v).degree < u.degree * v.degree
    assert_symfun_matches_resultants(u, v)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(denominators())
def test_symmetric_square_squared_is_the_full_resultant_times_the_diagonal(den):
    # the ordered pairs hold each pair i < j twice and the diagonal once, so
    # S^2 = (full resultant) * (diagonal), with diagonal factors 1 - 2 alpha_i x
    # (D(2x)) for sums and 1 - alpha_i^2 x (G with G(x^2) = D(x) D(-x)) for products
    diagonal = Poly((den * den.scale_arg(-1)).coeffs[::2])
    assert symmetric_square_via_symfun(den, "binomial") ** 2 == binomial_denominator(den, den) * den.scale_arg(2)
    assert symmetric_square_via_symfun(den, "hadamard") ** 2 == hadamard_denominator(den, den) * diagonal


# numerators up to 2^200 over denominators up to 2^16, of either sign
huge = st.builds(Fraction, st.integers(-(1 << 200), 1 << 200), st.integers(1, 1 << 16))


@st.composite
def huge_polys(draw, max_deg):
    deg = draw(st.integers(0, max_deg))
    return Poly([*draw(st.lists(huge, min_size=deg, max_size=deg)), draw(huge.filter(bool))])


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(huge_polys(4), huge_polys(8), huge_polys(8))
def test_gcd_of_planted_factors_matches_euclid(g, u, v):
    a, b = g * u, g * v
    assert poly_gcd(a, b) == euclid_gcd(a, b)


@st.composite
def shared_cubics(draw):
    """(r, s), proper and nonzero over one D = 1 + A x + B x^2 + C x^3 with C != 0.

    Half the draws put D's reciprocal roots in an arithmetic progression
    a - d, a, a + d, so that 2 alpha_i = alpha_j + alpha_k (d = 0 gives a
    triple root); the others draw rational A, B and C.
    """
    if draw(st.booleans()):
        a, d = draw(nonzero), draw(scalars)
        assume(a - d and a + d)
        den = math.prod((Poly([1, -r]) for r in (a - d, a, a + d)), start=Poly.one())
    else:
        den = Poly([1, draw(scalars), draw(scalars), draw(nonzero)])
    r, s = (RatFun(Poly(draw(st.lists(scalars, min_size=1, max_size=3))), den) for _ in range(2))
    # a numerator sharing a factor with D would change the denominator
    assume(r and s and r.den == den and s.den == den)
    return r, s


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(shared_cubics())
def test_komatsu_decomposition_exists_exactly_when_the_resultant_is_nonzero(pair):
    sympy = pytest.importorskip("sympy")
    r, s = pair
    den = r.den
    x = sympy.symbols("x")
    big_d = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(den.coeffs))
    a = sympy.Rational(den[1].numerator, den[1].denominator)
    # D2 = (1+Ax)^3 D(-x/(1+Ax)), whose reciprocal roots are alpha_j + alpha_k
    d2 = sympy.cancel((1 + a * x) ** 3 * big_d.subs(x, -x / (1 + a * x)))
    if sympy.resultant(big_d.subs(x, 2 * x), d2, x) == 0:
        with pytest.raises(DecompositionUnavailable):
            komatsu_decompose(r, s)
        return
    u, v = komatsu_decompose(r, s)
    assert u.degree <= 2 and v.degree <= 2
    split = RatFun(u, den.scale_arg(2)) + binomial_product(
        RatFun.geometric(-den[1]), RatFun(v, den.scale_arg(-1)), method="symfun"
    )
    assert split == binomial_product(r, s, method="symfun")


# every sequence name and one unknown; arities are drawn independently, so
# both right and wrong parameter counts occur
SEQUENCE_NAMES = ["fib", "lucas", "pell", "trib", "perrin", "jacobsthal", "q", "r", "g", "zz"]
BINARY_OPS = ["+", "-", "*", "/", " obprod ", " hprod ", "⊙", "∗"]
atoms = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(["x", "1/2"]),
    st.builds(
        lambda name, args, call: f"{name}({', '.join(args)})" if args or call else name,
        st.sampled_from(SEQUENCE_NAMES),
        st.lists(st.sampled_from(["0", "1", "-2", "1/2", "x"]), max_size=3),
        st.booleans(),
    ),
)


def expressions(depth):
    """Texts of the expression language, nested at most depth levels."""
    if not depth:
        return atoms
    inner = expressions(depth - 1)
    return st.one_of(
        atoms,
        st.builds("{}{}{}".format, inner, st.sampled_from(BINARY_OPS), inner),
        inner.map("({})".format),
        inner.map("-{}".format),
        st.builds("({})^{}".format, inner, st.integers(-3, 3)),
    )


junk = st.one_of(st.text(max_size=12), st.text("0123456789x+-*/^(), ⊙∗fibqgr_", max_size=12))


class Hang(BaseException):
    """A command outlived its alarm; not an Exception, so `main` cannot catch it."""


def run_cli(argv, seconds=10):
    """(exit code, stderr) of `main(argv)`, which must return within seconds."""

    def hang(signum, frame):
        raise Hang(f"{argv!r} ran longer than {seconds} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(expressions(3), junk))
# superscript digits pass str.isdigit, but int() refuses them
@example("x^²")
@example("2²")
@example("fib^³")
@example("¹")
def test_every_cli_input_ends_in_a_documented_exit_code(text):
    for argv in (["eval", text], ["coeffs", text, "-n", "6"], ["bprod", "fib", text], ["hprod", "pell", text]):
        code, err = run_cli(argv)
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err, (argv, err)
