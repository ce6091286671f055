"""Product engines: four methods, closed forms, worked examples, laws."""

import math
import random
import sys
from fractions import Fraction

import pytest

from binprod import (
    DecompositionUnavailable,
    InternalInvariantViolation,
    InvalidInput,
    METHODS,
    Poly,
    RatFun,
    binomial_product,
    hadamard_product,
)
from binprod import convolve, pfrac, polycore, ratfun, symfun
from binprod.convolve import (
    binomial_denominator,
    hadamard_denominator,
    komatsu_decompose,
    plan_binomial,
    plan_hadamard,
    poly_bprod,
)
from binprod.ratfun import Series, series_binomial, series_hadamard
from oracles import closed_form_bprod, closed_form_hprod


def brute_binomial(a: RatFun, b: RatFun, order: int):
    fs = a.expand(order).coeffs
    gs = b.expand(order).coeffs
    return tuple(
        sum(math.comb(n, k) * fs[k] * gs[n - k] for k in range(n + 1))
        for n in range(order)
    )


def brute_hadamard(a: RatFun, b: RatFun, order: int):
    fs = a.expand(order).coeffs
    gs = b.expand(order).coeffs
    return tuple(f * g for f, g in zip(fs, gs))


def rand_proper(rng, max_den_deg=3):
    d = rng.randint(1, max_den_deg)
    den = Poly([1] + [rng.randint(-5, 5) for _ in range(d - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])])
    num = Poly([rng.randint(-5, 5) for _ in range(d)])
    return RatFun(num, den)


def rand_any(rng):
    num = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
    den = Poly([1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
    return RatFun(num, den)


class TestSeriesKernels:
    def test_series_binomial_small(self):
        a = Series([Fraction(1), Fraction(1), Fraction(1)])
        b = Series([Fraction(1), Fraction(2), Fraction(4)])
        got = series_binomial(a, b)
        # c_2 = C(2,0)*1*4 + C(2,1)*1*2 + C(2,2)*1*1
        assert got.coeffs == (Fraction(1), Fraction(3), Fraction(9))

    def test_series_hadamard_small(self):
        a = Series([Fraction(1), Fraction(2), Fraction(3)])
        b = Series([Fraction(5), Fraction(7), Fraction(11)])
        assert series_hadamard(a, b).coeffs == (Fraction(5), Fraction(14), Fraction(33))


def fraction_binomial(a: Series, b: Series):
    # the convolution run over Fraction: the reference for the integer
    # kernel in series_binomial
    order = min(a.order, b.order)
    return tuple(
        sum((math.comb(n, k) * a.coeffs[k] * b.coeffs[n - k] for k in range(n + 1)), Fraction(0))
        for n in range(order)
    )


def rand_series(rng, order, bits=5, zero_share=0.0):
    return Series(
        Fraction(0) if rng.random() < zero_share
        else Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
        for _ in range(order)
    )


class TestIntegerConvolution:
    """series_binomial on Z against the Fraction loop it replaced."""

    def check(self, a, b):
        got = series_binomial(a, b).coeffs
        assert got == fraction_binomial(a, b)
        assert all(type(c) is Fraction for c in got)

    def test_unequal_denominators(self):
        rng = random.Random(300)
        for _ in range(10):
            a, b = rand_series(rng, 20), rand_series(rng, 20)
            lcms = [math.lcm(*(c.denominator for c in s.coeffs)) for s in (a, b)]
            assert lcms[0] != lcms[1] and min(lcms) > 1
            self.check(a, b)

    def test_coefficients_over_2_to_the_200(self):
        rng = random.Random(301)
        for _ in range(5):
            a, b = rand_series(rng, 15, bits=210), rand_series(rng, 15, bits=210)
            assert max(abs(c.numerator) for c in a.coeffs + b.coeffs) > 2**200
            self.check(a, b)
        huge = Series([3**150 + k for k in range(12)])
        self.check(huge, rand_series(rng, 12))

    def test_zero_runs(self):
        rng = random.Random(302)
        for _ in range(10):
            self.check(rand_series(rng, 18, zero_share=0.6), rand_series(rng, 18, zero_share=0.6))
        zeros = Series([0] * 10)
        spike = Series([0] * 5 + [Fraction(7, 3)] + [0] * 4)
        self.check(zeros, rand_series(rng, 10))
        self.check(spike, spike)
        assert series_binomial(zeros, spike).coeffs == (0,) * 10

    def test_unequal_orders(self):
        rng = random.Random(303)
        for la, lb in ((3, 17), (17, 3), (1, 9), (12, 11)):
            a, b = rand_series(rng, la), rand_series(rng, lb)
            assert series_binomial(a, b).order == min(la, lb)
            self.check(a, b)
            self.check(b, a)

    @pytest.mark.parametrize("order", [0, 1])
    def test_orders_zero_and_one(self, order):
        rng = random.Random(304 + order)
        for _ in range(5):
            self.check(rand_series(rng, order), rand_series(rng, order + rng.randint(0, 3)))
        assert series_binomial(Series(), Series([1, 2])).coeffs == ()

    def test_expansions_of_rational_functions(self):
        rng = random.Random(306)
        for _ in range(10):
            a, b = rand_any(rng) / rng.randint(1, 9), rand_proper(rng) / rng.randint(1, 9)
            self.check(a.expand(25), b.expand(25))


class TestDenominators:
    def test_linear_times_linear(self):
        assert binomial_denominator(Poly([1, -2]), Poly([1, -3])) == Poly([1, -5])
        assert hadamard_denominator(Poly([1, -2]), Poly([1, -3])) == Poly([1, -6])

    def test_binomial_degree_can_drop(self):
        # reciprocal roots 1 and -1 sum to zero: the pair contributes factor 1
        assert binomial_denominator(Poly([1, -1]), Poly([1, 1])) == Poly.one()

    def test_hadamard_degree_is_exactly_mn(self):
        rng = random.Random(61)
        for _ in range(15):
            a = Poly([1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))] + [rng.choice([1, -1, 2])])
            b = Poly([1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))] + [rng.choice([1, -1, 2])])
            d = hadamard_denominator(a, b)
            assert d.degree == a.degree * b.degree
            assert d.constant_term == 1

    def test_multiplicative_over_factors(self):
        # splitting one operand into factors multiplies the cross denominators
        u1, u2, v = Poly([1, -1]), Poly([1, -4]), Poly([1, -2, -1])
        whole = binomial_denominator(u1 * u2, v)
        assert whole == binomial_denominator(u1, v) * binomial_denominator(u2, v)

    def test_polynomial_side_gives_one(self):
        assert binomial_denominator(Poly.one(), Poly([1, -1, -1])) == Poly.one()
        assert hadamard_denominator(Poly([1, -1, -1]), Poly.one()) == Poly.one()

    def test_fibonacci_pell_pair(self):
        fib_den, pell_den = Poly([1, -1, -1]), Poly([1, -2, -1])
        assert binomial_denominator(fib_den, pell_den) == Poly([1, -6, 7, 6, -9])
        assert hadamard_denominator(fib_den, pell_den) == Poly([1, -2, -7, -2, 1])

    def test_constant_term_must_be_one(self):
        with pytest.raises(InvalidInput):
            binomial_denominator(Poly([2, 1]), Poly([1, 1]))

    def test_match_sympy_resultants_on_rational_operands(self):
        # An oracle that shares no code with binprod: for U = prod(1 - alpha_i x)
        # the reversal t^m U(1/t) is prod(t - alpha_i), so sympy's resultants
        #   Res_y(rev U(y), rev V(x - y))   = prod(x - (alpha_i + beta_j))
        #   Res_y(rev U(y), y^n rev V(x/y)) = prod(x - alpha_i beta_j)
        # reverse back to the product denominators.
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        rng = random.Random(67)

        def rand_den():
            cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            cs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))
            return Poly([1] + cs)

        def rev(p, t):
            m = p.degree
            return sum(sympy.Rational(c.numerator, c.denominator) * t ** (m - i) for i, c in enumerate(p.coeffs))

        def unrev(w):
            coeffs = sympy.Poly(sympy.expand(w), x).all_coeffs()
            return Poly([Fraction(int(c.p), int(c.q)) for c in coeffs])

        for _ in range(6):
            u, v = rand_den(), rand_den()
            hom_v = sympy.expand(y ** v.degree * rev(v, x / y))
            assert binomial_denominator(u, v) == unrev(sympy.resultant(rev(u, y), rev(v, x - y), y))
            assert hadamard_denominator(u, v) == unrev(sympy.resultant(rev(u, y), hom_v, y))


class TestWorkedBinomialProducts:
    def test_distinct_linear_factors(self):
        a = RatFun(Poly.x(), Poly([1, -1]) * Poly([1, -2]))
        b = RatFun(Poly.x(), Poly([1, -3]) * Poly([1, -5]))
        want = RatFun(
            Poly([0, 0, 2, -11]),
            Poly([1, -4]) * Poly([1, -5]) * Poly([1, -6]) * Poly([1, -7]),
        )
        for method in METHODS:
            assert binomial_product(a, b, method=method) == want

    def test_improper_operand(self):
        a = RatFun(Poly.monomial(3), Poly([1, -1]))
        b = RatFun(Poly.one(), Poly([1, -2]))
        want = RatFun(Poly.monomial(3), Poly([1, -2]) ** 3 * Poly([1, -3]))
        for method in METHODS:
            assert binomial_product(a, b, method=method) == want

    def test_repeated_factors_with_cancellation(self):
        a = RatFun(Poly.monomial(2), Poly([1, -1]) ** 2)
        b = RatFun(Poly.monomial(2), Poly([1, -2]) ** 2)
        want = RatFun(
            Poly([6, -30, 49, -27]).shift(4),
            Poly([1, -1]) ** 2 * Poly([1, -2]) ** 2 * Poly([1, -3]) ** 3,
        )
        for method in METHODS:
            assert binomial_product(a, b, method=method) == want

    def test_denominator_bound_contains_result(self):
        # the plan bound has (1-3x)^4 but the reduced result only (1-3x)^3
        a = RatFun(Poly.monomial(2), Poly([1, -1]) ** 2)
        b = RatFun(Poly.monomial(2), Poly([1, -2]) ** 2)
        plan = plan_binomial(a, b)
        result = binomial_product(a, b)
        quotient, remainder = divmod(plan.den_bound, result.den)
        assert remainder == Poly()
        assert quotient == Poly([1, -3])

    @pytest.mark.parametrize("method", ["resultant", "symfun"])
    def test_hadamard_plan_takes_improper_operands(self, method):
        # P is the largest polynomial-part degree; the bound is max(P + mn, mn - 1)
        b = RatFun(Poly([1, 2]), Poly([1, -1, -1]))  # proper, n = 2
        cases = [
            # improper: degree 4 over degree 1, so P = 3
            (RatFun(Poly([1, 0, 0, 2, 1]), Poly([1, -2])), 1, 3),
            # a polynomial of degree 3: m = 0 and P = 3
            (RatFun(Poly([1, -1, 0, 5])), 0, 3),
        ]
        for a, m, p in cases:
            plan = plan_hadamard(a, b, method)
            assert plan.den_bound.degree == m * 2
            assert plan.num_deg_bound == max(p + m * 2, m * 2 - 1)
            # and the product is T / den_bound with deg T within the bound
            result = hadamard_product(a, b, method=method)
            quotient, remainder = divmod(plan.den_bound, result.den)
            assert remainder == Poly()
            assert (result.num * quotient).degree <= plan.num_deg_bound
            assert result.expand(30).coeffs == brute_hadamard(a, b, 30)

    def test_fibonacci_pell(self):
        a = RatFun(Poly.x(), Poly([1, -1, -1]))
        b = RatFun(Poly.x(), Poly([1, -2, -1]))
        want = RatFun(Poly([0, 0, 2, -3]), Poly([1, -6, 7, 6, -9]))
        for method in METHODS:
            assert binomial_product(a, b, method=method) == want

    def test_zero_operand(self):
        f = RatFun(Poly.x(), Poly([1, -1, -1]))
        for method in METHODS:
            assert binomial_product(RatFun.zero(), f, method=method) == RatFun.zero()
            assert hadamard_product(f, RatFun.zero(), method=method) == RatFun.zero()

    def test_unknown_method_rejected(self):
        f = RatFun.geometric(1)
        with pytest.raises(InvalidInput):
            binomial_product(f, f, method="telepathy")

    @pytest.mark.parametrize(
        "operand", [Poly.x(), 2, Fraction(1, 2), None, "fib", [1, 1, 2, 3, 5, 8, 13]], ids=repr
    )
    def test_operands_lift_like_ratfun_arithmetic(self, operand):
        """Poly, int and Fraction lift as in RatFun arithmetic; anything else is InvalidInput."""
        fib = RatFun(Poly.x(), Poly([1, -1, -1]))
        for product in (binomial_product, hadamard_product):
            if isinstance(operand, (Poly, int, Fraction)):
                lifted = RatFun(operand)
                for method in METHODS:
                    assert product(operand, fib, method=method) == product(lifted, fib, method=method)
                    assert product(fib, operand, method=method) == product(fib, lifted, method=method)
            else:
                for pair in ((operand, fib), (fib, operand)):
                    with pytest.raises(InvalidInput, match="operands must be"):
                        product(*pair)
        # reconstruction takes a Series and nothing else
        with pytest.raises(InvalidInput, match="needs a Series"):
            ratfun.reconstruct_rational(operand, 2, 1)


class TestAlgebraicLaws:
    def test_binomial_identity_element(self):
        rng = random.Random(67)
        one = RatFun(1)
        for _ in range(10):
            f = rand_any(rng)
            assert binomial_product(f, one) == f
            assert binomial_product(one, f) == f

    def test_geometric_inverses(self):
        for alpha in (1, -2, Fraction(3, 2), Fraction(-1, 3)):
            g = RatFun.geometric(alpha)
            ginv = RatFun.geometric(-alpha)
            assert binomial_product(g, ginv) == RatFun(1)

    def test_binomial_commutative_associative(self):
        rng = random.Random(71)
        for _ in range(8):
            f, g, h = rand_any(rng), rand_any(rng), rand_any(rng)
            assert binomial_product(f, g) == binomial_product(g, f)
            left = binomial_product(binomial_product(f, g), h)
            right = binomial_product(f, binomial_product(g, h))
            assert left == right

    def test_binomial_distributes_over_addition(self):
        rng = random.Random(73)
        for _ in range(8):
            f, g, h = rand_any(rng), rand_any(rng), rand_any(rng)
            assert binomial_product(f, g + h) == binomial_product(f, g) + binomial_product(f, h)

    def test_hadamard_identity_element(self):
        rng = random.Random(79)
        unit = RatFun.geometric(1)
        for _ in range(10):
            f = rand_any(rng)
            assert hadamard_product(f, unit) == f
            assert hadamard_product(unit, f) == f

    def test_hadamard_commutative_associative(self):
        rng = random.Random(83)
        for _ in range(8):
            f, g, h = rand_any(rng), rand_any(rng), rand_any(rng)
            assert hadamard_product(f, g) == hadamard_product(g, f)
            left = hadamard_product(hadamard_product(f, g), h)
            right = hadamard_product(f, hadamard_product(g, h))
            assert left == right


class TestMethodAgreementAndOracle:
    def test_four_methods_match_brute_force(self):
        rng = random.Random(89)
        order = 18
        for _ in range(12):
            a = rand_proper(rng)
            b = rand_proper(rng)
            b_want = brute_binomial(a, b, order)
            h_want = brute_hadamard(a, b, order)
            for method in METHODS:
                bp = binomial_product(a, b, method=method)
                hp = hadamard_product(a, b, method=method)
                assert bp.expand(order).coeffs == b_want
                assert hp.expand(order).coeffs == h_want

    FIXED_IMPROPER = [
        # polynomial x polynomial
        (RatFun(Poly([1, 2, 0, 3])), RatFun(Poly([2, -1, 5]))),
        # polynomial x improper
        (RatFun(Poly([1, -1, 0, 2])), RatFun(Poly([Fraction(1, 2), 0, 0, 1]), Poly([1, -1, -1]))),
        # improper x improper
        (RatFun(Poly([1, 0, 0, 2]), Poly([1, -1])), RatFun(Poly([2, -1, 3, 0, 1]), Poly([1, -1, -1]))),
    ]

    def test_improper_inputs_all_methods(self):
        rng = random.Random(97)
        # numerator plus denominator degree bounds reach 30 on these pairs, so
        # agreement on 40 coefficients proves each product equal
        order = 40
        pairs = [(rand_any(rng), rand_any(rng)) for _ in range(6)] + self.FIXED_IMPROPER
        for a, b in pairs:
            b_ref = binomial_product(a, b)
            h_ref = hadamard_product(a, b)
            assert b_ref.expand(order).coeffs == brute_binomial(a, b, order)
            assert h_ref.expand(order).coeffs == brute_hadamard(a, b, order)
            for method in METHODS[1:]:
                assert binomial_product(a, b, method=method) == b_ref
                assert hadamard_product(a, b, method=method) == h_ref


def shared_pair(seed: int, m: int) -> tuple[RatFun, RatFun]:
    """Two proper operands over one square-free denominator of degree m.

    The seed's bits pick non-integer rational coefficients (1), a = b (2)
    and, for m >= 2, a denominator E(x^2) or E(x^2)(1 + c x), whose
    reciprocal roots come in pairs +-beta with cancelling sums (4).
    """
    rng = random.Random(1000 * m + seed)
    rational, same, cancelling = seed & 1, seed & 2, seed & 4 and m >= 2

    def coeff():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4) if rational else 1)

    def nonzero():
        return coeff() or Fraction(rng.choice([-3, -1, 2]))

    while True:
        if cancelling:
            even = [coeff() if k % 2 == 0 else 0 for k in range(1, 2 * (m // 2))] + [nonzero()]
            den = Poly([1, *even]) * (Poly([1, nonzero()]) if m % 2 else 1)
        else:
            den = Poly([1, *(coeff() for _ in range(m - 1)), nonzero()])
        if polycore.poly_gcd(den, den.derivative()).degree:
            continue
        a, b = (RatFun(Poly([coeff() for _ in range(m - 1)] + [nonzero()]), den) for _ in range(2))
        if a.den == b.den == den:
            return a, (a if same else b)


def assert_all_methods_match_brute_force(a: RatFun, b: RatFun) -> None:
    for product, brute in ((binomial_product, brute_binomial), (hadamard_product, brute_hadamard)):
        got = product(a, b, method=METHODS[0])
        for method in METHODS[1:]:
            assert product(a, b, method=method) == got, method
        order = 2 * (got.num.degree + got.den.degree) + 4
        assert got.expand(order).coeffs == brute(a, b, order)


SHARED_CASES = [(seed, m) for m in range(1, 5) for seed in range(8)]
SHARED_CASES += [(2, 5), (5, 5), (4, 6), (3, 6)]


class TestSharedDenominators:
    """Proper operands over one square-free denominator of degree m >= 2.

    Their products have every pole at a sum or product over an unordered
    pair of reciprocal roots, so symfun and reconstruct use the symmetric
    square, of degree N = m(m+1)/2, where other pairs need m^2.  Resultant
    keeps its full m^2-degree resultant.
    """

    @pytest.mark.parametrize("seed, m", SHARED_CASES, ids=[f"m={m}-seed={s}" for s, m in SHARED_CASES])
    def test_four_methods_agree_under_the_symmetric_square_bound(self, seed, m):
        a, b = shared_pair(seed, m)
        n = m * (m + 1) // 2
        for plan, full in ((plan_binomial, binomial_denominator), (plan_hadamard, hadamard_denominator)):
            square = plan(a, b, "symfun")
            assert square.den_bound.degree <= n
            assert square.num_deg_bound == n - 1
            # resultant plans against its full m^2-degree resultant
            assert plan(a, b, "resultant") == convolve.ProductPlan(full(a.den, a.den), m * m - 1)
        assert_all_methods_match_brute_force(a, b)

    def test_cancelling_sums_lower_the_binomial_plan(self):
        # D = 1 + 4x^2 has reciprocal roots +-2i, which sum to 0
        den = Poly([1, 0, 4])
        a, b = RatFun(Poly([1, 3]), den), RatFun(Poly([2, -1]), den)
        assert plan_binomial(a, b) == convolve.ProductPlan(Poly([1, 0, 16]), 2)
        # alpha^2 = -4 twice and alpha_1 alpha_2 = 4
        assert plan_hadamard(a, b).den_bound == Poly([1, 4]) ** 2 * Poly([1, -4])
        assert_all_methods_match_brute_force(a, b)

    FULL_BOUND = {
        # (1 - x)^2 (1 - 2x) has a repeated root
        "repeated root": (Poly([1, -1]) ** 2 * Poly([1, -2]), 0),
        # an improper operand over a square-free denominator
        "improper": (Poly([1, -1, -1]), 2),
        "m = 1": (Poly([1, -3]), 0),
    }

    @pytest.mark.parametrize("den, extra", FULL_BOUND.values(), ids=FULL_BOUND)
    def test_other_shared_pairs_keep_the_full_bound(self, den, extra):
        m = den.degree
        a = RatFun(Poly([1] * (m + extra)), den)
        b = RatFun(Poly([2, -1][:m]), den)
        assert a.den == b.den == den and a.num.degree == m + extra - 1
        # u = deg(a.num) + 1 - m = extra, the improper part's exponent
        assert plan_binomial(a, b).den_bound == den**extra * binomial_denominator(den, den)
        assert plan_binomial(a, b, "symfun").den_bound == plan_binomial(a, b).den_bound
        assert plan_hadamard(a, b).den_bound == hadamard_denominator(den, den)
        assert_all_methods_match_brute_force(a, b)


class TestExpansions:
    """A self-product expands its operand once; symfun's denominators expand nothing."""

    TRIB = RatFun(Poly.x(), Poly([1, -1, -1, -1]))

    @pytest.fixture
    def expanded(self, monkeypatch):
        calls = []
        expand = RatFun.expand

        def spy(self, order):
            calls.append(self)
            return expand(self, order)

        monkeypatch.setattr(RatFun, "expand", spy)
        return calls

    @pytest.mark.parametrize("method", ["symfun", "resultant", "reconstruct"])
    @pytest.mark.parametrize("product", [binomial_product, hadamard_product])
    def test_self_product_expands_once(self, expanded, product, method):
        t = self.TRIB
        want = product(t, t, method="pfrac")
        expanded.clear()
        # an equal operand built separately is a self-product too
        assert product(t, RatFun(Poly.x(), Poly([1, -1, -1, -1])), method=method) == want
        assert expanded == [t]

    @pytest.mark.parametrize("method", ["symfun", "resultant", "reconstruct"])
    @pytest.mark.parametrize("product", [binomial_product, hadamard_product])
    def test_distinct_operands_expand_twice(self, expanded, product, method):
        t, u = self.TRIB, RatFun(Poly([1, 3, -6]), Poly([1, -1, -1, -1]))
        product(t, u, method=method)
        assert expanded == [t, u]


class TestClosedForms:
    def test_binomial_closed_form_matches_engine(self):
        alpha, beta = Fraction(2, 3), Fraction(-3, 5)
        for j in range(4):
            for k in range(4):
                lhs = closed_form_bprod(j, alpha, k, beta)
                a = RatFun(Poly.monomial(j), Poly([1, -alpha]) ** (j + 1))
                b = RatFun(Poly.monomial(k), Poly([1, -beta]) ** (k + 1))
                assert lhs == binomial_product(a, b)

    def test_opposite_ratios_collapse_to_monomial(self):
        # alpha + beta = 0 leaves C(j+k,j) x^(j+k) with trivial denominator
        got = closed_form_bprod(2, 1, 3, -1)
        assert got == RatFun(Poly.monomial(5, 10))

    def test_monomial_products(self):
        # x^2 (binomial) x^3 = C(5,2) x^5
        a = RatFun(Poly.monomial(2))
        b = RatFun(Poly.monomial(3))
        want = RatFun(Poly.monomial(5, 10))
        for method in METHODS:
            assert binomial_product(a, b, method=method) == want

    def test_poly_bprod_matches_brute_force(self):
        rng = random.Random(101)
        order = 14
        for m in range(4):
            f = rand_proper(rng)
            xm = RatFun(Poly.monomial(m))
            got = poly_bprod(m, f)
            assert got.expand(order).coeffs == brute_binomial(xm, f, order)

    def test_euler_closed_form_matches_engine(self):
        rng = random.Random(103)
        done = 0
        while done < 10:
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            if i > m + j or j > n + i:
                continue
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            lhs = closed_form_hprod(i, a, m, j, b, n)
            fa = RatFun(Poly.monomial(i), Poly([1, -a]) ** (m + 1))
            fb = RatFun(Poly.monomial(j), Poly([1, -b]) ** (n + 1))
            assert lhs == hadamard_product(fa, fb)
            done += 1

    def test_euler_numerator_is_termwise_product_of_binomial_expansions(self):
        i, m, j, n = 1, 2, 0, 3
        a, b = Fraction(2), Fraction(-3)
        lhs = closed_form_hprod(i, a, m, j, b, n)
        pa = Poly([1, a]) ** (m + j - i)
        pb = Poly([1, b]) ** (n + i - j)
        num = Poly(
            [
                pa[k - i] * pb[k - j] if k >= max(i, j) else 0
                for k in range(min(m + j, n + i) + 1)
            ]
        )
        assert lhs == RatFun(num, Poly([1, -a * b]) ** (m + n + 1))

    def test_euler_admissibility_enforced(self):
        with pytest.raises(InvalidInput):
            closed_form_hprod(3, 1, 1, 0, 1, 1)  # i > m + j
        with pytest.raises(InvalidInput):
            closed_form_hprod(0, 1, 1, 4, 1, 2)  # j > n + i


class TestSharedCubicDecomposition:
    def test_tribonacci(self):
        t = RatFun(Poly.x(), Poly([1, -1, -1, -1]))
        u, v = komatsu_decompose(t, t)
        assert u == Poly([Fraction(1, 11), Fraction(1, 11), Fraction(10, 11)])
        assert v == Poly([Fraction(-1, 11), Fraction(-3, 11), Fraction(6, 11)])

    def test_perrin(self):
        p = RatFun(Poly([3, 0, -1]), Poly([1, 0, -1, -1]))
        u, v = komatsu_decompose(p, p)
        assert u == Poly([3, 0, -4])
        assert v == Poly([6, 0, -2])

    def test_decomposition_reassembles(self):
        rng = random.Random(107)
        den = Poly([1, -1, -1, -1])
        for _ in range(5):
            r = RatFun(Poly([rng.randint(-3, 3) for _ in range(3)]), den)
            s = RatFun(Poly([rng.randint(-3, 3) for _ in range(3)]), den)
            if r.is_zero() or s.is_zero() or r.den != den or s.den != den:
                continue
            u, v = komatsu_decompose(r, s)
            d1 = den.scale_arg(2)
            rebuilt = RatFun(u, d1) + RatFun(v, den.scale_arg(-1)).compose_mobius(-den[1])
            assert rebuilt == binomial_product(r, s)

    def test_repeated_root_blocked(self):
        den = Poly([1, -1]) ** 3
        f = RatFun(Poly.x(), den)
        with pytest.raises(DecompositionUnavailable):
            komatsu_decompose(f, f)

    def test_requires_shared_cubic_proper(self):
        cubic = RatFun(Poly.x(), Poly([1, -1, -1, -1]))
        with pytest.raises(InvalidInput):
            komatsu_decompose(cubic, RatFun(Poly.x(), Poly([1, 0, -1, -1])))
        with pytest.raises(InvalidInput):
            quad = RatFun(Poly.x(), Poly([1, -1, -1]))
            komatsu_decompose(quad, quad)
        with pytest.raises(InvalidInput):
            improper = RatFun(Poly.monomial(3), Poly([1, -1, -1, -1]))
            komatsu_decompose(improper, improper)

    @pytest.mark.parametrize("index", range(6))
    def test_a_wrong_solution_fails_verification(self, monkeypatch, index):
        solve = convolve.solve_exact

        def perturbed(rows, rhs):
            sol = solve(rows, rhs)
            sol[index] += 1
            return sol

        monkeypatch.setattr(convolve, "solve_exact", perturbed)
        t = RatFun(Poly.x(), Poly([1, -1, -1, -1]))
        with pytest.raises(InternalInvariantViolation, match="decomposition failed exact verification"):
            komatsu_decompose(t, t)

    def test_a_product_outside_the_split_is_an_internal_error(self, monkeypatch):
        # 1 - 7x divides neither D(2x) nor D2, so the exact division fails;
        # that is binprod's fault, not a DivisibilityError about the input
        monkeypatch.setattr(convolve, "binomial_product", lambda r, s: RatFun.geometric(7))
        t = RatFun(Poly.x(), Poly([1, -1, -1, -1]))
        with pytest.raises(InternalInvariantViolation, match="does not divide"):
            komatsu_decompose(t, t)


class TestRouteIndependence:
    """With one route's denominator entry points broken, the others still work.

    This is what makes `--cross-check` a real check: no two routes share
    denominator code.
    """

    PAIRS = [
        # Fibonacci and Pell
        (RatFun(Poly.x(), Poly([1, -1, -1])), RatFun(Poly.x(), Poly([1, -2, -1]))),
        # improper operands on both sides
        (RatFun(Poly([1, 0, 0, 2]), Poly([1, -1])), RatFun(Poly([2, -1, 3]), Poly([1, -1, -1]))),
        # tribonacci and a shifted one over one denominator: the symmetric square
        (RatFun(Poly.x(), Poly([1, -1, -1, -1])), RatFun(Poly([1, 3, -6]), Poly([1, -1, -1, -1]))),
    ]

    @pytest.mark.parametrize(
        "blocked, entry_points, others",
        [
            (
                "resultant",
                [(polycore, "det_fraction_free"), (convolve, "resultant")],
                ("pfrac", "reconstruct", "symfun"),
            ),
            (
                "symfun",
                [(symfun, "denominator_via_symfun"), (symfun, "symmetric_square_via_symfun")],
                ("resultant", "pfrac", "reconstruct"),
            ),
            ("pfrac", [(pfrac, "tpoly_xgcd")], ("resultant", "symfun", "reconstruct")),
            ("reconstruct", [(ratfun, "reconstruct_rational")], ("resultant", "symfun", "pfrac")),
        ],
    )
    def test_other_routes_survive_a_broken_route(self, monkeypatch, blocked, entry_points, others):
        want = [
            (binomial_product(a, b, method=blocked), hadamard_product(a, b, method=blocked))
            for a, b in self.PAIRS
        ]

        def broken(*args, **kwargs):
            raise AssertionError(f"the {blocked} route's denominator code was called")

        for module, name in entry_points:
            monkeypatch.setattr(module, name, broken)
        for (a, b), (b_want, h_want) in zip(self.PAIRS, want):
            with pytest.raises(AssertionError):
                binomial_product(a, b, method=blocked)
            with pytest.raises(AssertionError):
                hadamard_product(a, b, method=blocked)
            for method in others:
                assert binomial_product(a, b, method=method) == b_want
                assert hadamard_product(a, b, method=method) == h_want

    @pytest.mark.parametrize(
        "blocked, module, name",
        [
            ("symfun", symfun, "symmetric_square_via_symfun"),
        ],
    )
    def test_other_routes_survive_a_broken_symmetric_square(self, monkeypatch, blocked, module, name):
        a, b = self.PAIRS[-1]
        want = binomial_product(a, b), hadamard_product(a, b)

        def broken(*args, **kwargs):
            raise AssertionError(f"the {blocked} route's symmetric square was called")

        monkeypatch.setattr(module, name, broken)
        for product, product_want in zip((binomial_product, hadamard_product), want):
            with pytest.raises(AssertionError):
                product(a, b, method=blocked)
            for method in METHODS:
                if method != blocked:
                    assert product(a, b, method=method) == product_want

    def test_pfrac_runs_on_its_own_sequence(self, monkeypatch):
        # the remainder sequence shares nothing with the Sylvester, Bareiss,
        # Newton or linear-algebra code of the other three routes
        want = [(binomial_product(a, b), hadamard_product(a, b)) for a, b in self.PAIRS]

        def broken(*args, **kwargs):
            raise AssertionError("pfrac called another route's code")

        pack = polycore._kronecker_pack

        def gcd_only(*args):
            # every route reduces its result by the one shared gcd
            if sys._getframe(1).f_code is not polycore.poly_gcd.__code__:
                raise AssertionError("pfrac packed integers outside poly_gcd")
            return pack(*args)

        monkeypatch.setattr(polycore, "_kronecker_pack", gcd_only)
        for module, name in [
            (polycore, "det_fraction_free"),
            (polycore, "resultant"),
            (polycore, "sylvester"),
            (convolve, "resultant"),
            (symfun, "denominator_via_symfun"),
            (symfun, "symmetric_square_via_symfun"),
            (ratfun, "reconstruct_rational"),
        ]:
            monkeypatch.setattr(module, name, broken)
        for (a, b), (b_want, h_want) in zip(self.PAIRS, want):
            assert binomial_product(a, b, method="pfrac") == b_want
            assert hadamard_product(a, b, method="pfrac") == h_want
