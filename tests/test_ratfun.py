"""Rational power series: canonical form, expansion, reconstruction."""

import math
import random
from fractions import Fraction

import pytest

import binprod.ratfun as ratfun
from binprod import (
    DivisionByZero,
    InvalidInput,
    NotAPowerSeries,
    Poly,
    RatFun,
    ReconstructionFailed,
    Series,
    reconstruct_rational,
)
from binprod.polycore import BiPoly
from binprod.ratfun import format_ratfun


def rand_ratfun(rng, num_deg, den_deg):
    num = Poly([rng.randint(-5, 5) for _ in range(num_deg + 1)])
    den = Poly([1] + [rng.randint(-5, 5) for _ in range(den_deg)])
    return RatFun(num, den)


class TestCanonicalForm:
    def test_denominator_normalized_to_unit_constant(self):
        f = RatFun(Poly([0, 1]), Poly([2, -2]))
        assert f.den == Poly([1, -1])
        assert f.num == Poly([0, Fraction(1, 2)])

    def test_common_factor_cancelled(self):
        # (x - x^3)/(1 - x - 4x^2 - x^3 + x^4) in lowest terms
        f = RatFun(Poly([0, 1, 0, -1]), Poly([1, -1, -4, -1, 1]))
        assert f.num == Poly([0, 1, -1])
        assert f.den == Poly([1, -2, -2, 1])

    def test_vanishing_denominator_rejected(self):
        with pytest.raises(NotAPowerSeries):
            RatFun(Poly.one(), Poly([0, 1]))

    def test_vanishing_denominator_rejected_before_reduction(self):
        # x/x would reduce to 1, but x is not invertible as a power series
        with pytest.raises(NotAPowerSeries):
            RatFun(Poly([0, 1]), Poly([0, 1]))

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            RatFun(Poly.one(), Poly())

    def test_zero_is_canonical(self):
        f = RatFun(Poly(), Poly([1, 7, -3]))
        assert f.is_zero()
        assert f.den == Poly.one()
        assert f == RatFun.zero()

    def test_constant_denominator_divides_through(self):
        f = RatFun(Poly([1, 2]), Poly([2]))
        assert f.den == Poly.one()
        assert f.num == Poly([Fraction(1, 2), 1])

    def test_equality_and_hash(self):
        a = RatFun(Poly([0, 2]), Poly([2, -2]))
        b = RatFun(Poly([0, 1]), Poly([1, -1]))
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize(
        "value, equal",
        [
            (Poly([3]), 3),
            (Poly([Fraction(1, 2)]), Fraction(1, 2)),
            (Poly(), 0),
            (RatFun(3), 3),
            (RatFun(Fraction(-2, 3)), Fraction(-2, 3)),
            (RatFun(Poly()), 0),
            (BiPoly([Poly([2])]), Poly([2])),
            (BiPoly([Poly([0, 1])]), Poly([0, 1])),
            (BiPoly([Poly([2])]), 2),
            (BiPoly(), 0),
        ],
        ids=repr,
    )
    def test_equal_values_hash_equal(self, value, equal):
        assert value == equal
        assert hash(value) == hash(equal)
        assert len({value, equal}) == 1


class TestArithmetic:
    def test_field_operations_match_series(self):
        rng = random.Random(13)
        for _ in range(15):
            f = rand_ratfun(rng, rng.randint(0, 3), rng.randint(0, 3))
            g = rand_ratfun(rng, rng.randint(0, 3), rng.randint(0, 3))
            fs, gs = f.expand(12).coeffs, g.expand(12).coeffs
            assert (f + g).expand(12).coeffs == tuple(a + b for a, b in zip(fs, gs))
            assert (f - g).expand(12).coeffs == tuple(a - b for a, b in zip(fs, gs))
            prod = (f * g).expand(12).coeffs
            want = tuple(
                sum(fs[k] * gs[n - k] for k in range(n + 1)) for n in range(12)
            )
            assert prod == want

    def test_scalar_mixing(self):
        f = RatFun.geometric(2)
        assert 3 * f == f * 3 == f + 2 * f
        assert f / 2 == f * Fraction(1, 2)
        assert 1 - f == RatFun(1) - f

    def test_division_and_inverse(self):
        f = RatFun(Poly([1, 3]), Poly([1, -1, -1]))
        assert f / f == RatFun(1)
        with pytest.raises(DivisionByZero):
            f / RatFun.zero()

    def test_division_needing_series_invertibility(self):
        # 1/x is not a power series
        with pytest.raises(NotAPowerSeries):
            RatFun(1) / RatFun(Poly.x())

    def test_powers(self):
        g = RatFun(Poly([1, -1]))
        assert g**-1 == RatFun.geometric(1)
        assert g**0 == RatFun(1)
        assert g**3 == RatFun(Poly([1, -1]) ** 3)
        with pytest.raises(DivisionByZero):
            RatFun.zero() ** -1


class TestExpansion:
    def test_fibonacci_recurrence(self):
        f = RatFun(Poly.x(), Poly([1, -1, -1]))
        assert [int(c) for c in f.expand(10).coeffs] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_geometric_with_rational_ratio(self):
        alpha = Fraction(2, 3)
        f = RatFun.geometric(alpha)
        assert f.expand(7).coeffs == tuple(alpha**n for n in range(7))

    def test_order_zero(self):
        assert RatFun.geometric(1).expand(0).coeffs == ()

    def test_improper_expansion_includes_polynomial_part(self):
        f = RatFun(Poly([0, 0, 0, 1]), Poly([1, -1]))  # x^3/(1-x)
        assert [int(c) for c in f.expand(6).coeffs] == [0, 0, 0, 1, 1, 1]


def fraction_expand(f, order):
    # the recurrence c_n = num_n - sum_{j>=1} den_j c_{n-j} run over Fraction:
    # the reference for the integer kernel in RatFun.expand
    den = f.den.coeffs
    out = []
    for n in range(order):
        c = f.num[n]
        for j in range(1, min(n, f.den.degree) + 1):
            c -= den[j] * out[n - j]
        out.append(c)
    return tuple(out)


def rand_fraction(rng, bits=5):
    return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


def rand_rational_ratfun(rng, num_deg, den_deg, bits=5):
    num = Poly([rand_fraction(rng, bits) for _ in range(num_deg + 1)])
    den = Poly([1] + [rand_fraction(rng, bits) for _ in range(den_deg)])
    return RatFun(num, den)


class TestIntegerExpansion:
    @pytest.mark.parametrize("seed", range(5))
    def test_rational_coefficients(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(10):
            f = rand_rational_ratfun(rng, rng.randint(0, 3), rng.randint(1, 4))
            assert f.expand(25).coeffs == fraction_expand(f, 25)

    def test_improper_numerators(self):
        rng = random.Random(105)
        for _ in range(20):
            den_deg = rng.randint(1, 3)
            f = rand_rational_ratfun(rng, den_deg + rng.randint(0, 4), den_deg)
            assert f.expand(15).coeffs == fraction_expand(f, 15)

    def test_constant_denominator(self):
        rng = random.Random(106)
        f = RatFun(Poly([rand_fraction(rng) for _ in range(6)]), Poly([Fraction(-3, 7)]))
        assert f.den == Poly.one()
        assert f.expand(10).coeffs == fraction_expand(f, 10) == f.num.coeffs + (0,) * 4

    @pytest.mark.parametrize("order", [0, 1])
    def test_orders_zero_and_one(self, order):
        rng = random.Random(107)
        for _ in range(10):
            f = rand_rational_ratfun(rng, rng.randint(0, 3), rng.randint(0, 3))
            assert f.expand(order).coeffs == fraction_expand(f, order)
        assert RatFun.zero().expand(order).coeffs == (0,) * order

    def test_coefficients_over_2_to_the_200(self):
        rng = random.Random(108)
        for _ in range(5):
            f = rand_rational_ratfun(rng, rng.randint(0, 4), rng.randint(1, 4), bits=210)
            assert max(abs(c.numerator) for c in f.den.coeffs) > 2**200
            assert f.expand(12).coeffs == fraction_expand(f, 12)


class TestOneGcdPerFraction:
    @pytest.fixture
    def gcd_calls(self, monkeypatch):
        calls = []
        gcd = ratfun.poly_gcd

        def spy(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(ratfun, "poly_gcd", spy)
        return calls

    def test_product_takes_one_gcd(self, gcd_calls):
        rng = random.Random(109)
        f, g = rand_ratfun(rng, 2, 3), rand_ratfun(rng, 3, 2)
        gcd_calls.clear()
        got = f * g
        assert len(gcd_calls) == 1
        assert got == RatFun(f.num * g.num, f.den * g.den)

    def test_cancelled_quotient_is_canonical(self, gcd_calls):
        f = RatFun(Poly([1, 1]), Poly([1, -3]))
        g = RatFun(Poly([2, -6]), Poly([1, 0, -1]))  # (2 - 6x)/((1 - x)(1 + x))
        gcd_calls.clear()
        got = f * g
        assert len(gcd_calls) == 1
        assert (got.num, got.den) == (Poly([2]), Poly([1, -1]))

    def test_negation_and_powers_take_no_gcd(self, gcd_calls):
        f = RatFun(Poly([2, 3]), Poly([1, -1, -1]))
        gcd_calls.clear()
        neg, cube, one = -f, f**3, f**0
        assert gcd_calls == []
        assert (neg.num, neg.den) == (Poly([-2, -3]), f.den)
        assert cube == f * f * f and one == RatFun(1)


class TestProperSplit:
    def test_worked_split(self):
        f = RatFun(Poly([0, 0, 0, 1]), Poly([1, -1]))
        poly, frac = f.proper_split()
        assert poly == Poly([-1, -1, -1])
        assert frac == RatFun.geometric(1)

    def test_split_always_recombines(self):
        rng = random.Random(17)
        for _ in range(20):
            f = rand_ratfun(rng, rng.randint(0, 5), rng.randint(0, 3))
            poly, frac = f.proper_split()
            assert frac.is_proper() or frac.is_zero()
            assert RatFun(poly) + frac == f


class TestSubstitutions:
    def test_compose_scale_matches_series(self):
        rng = random.Random(19)
        for _ in range(10):
            f = rand_ratfun(rng, rng.randint(0, 3), rng.randint(1, 3))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            got = f.compose_scale(c).expand(10).coeffs
            base = f.expand(10).coeffs
            assert got == tuple(a * c**n for n, a in enumerate(base))

    def test_compose_mobius_is_binomial_with_geometric(self):
        rng = random.Random(19)
        order = 14
        for _ in range(10):
            f = rand_ratfun(rng, rng.randint(0, 3), rng.randint(1, 3))
            beta = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            got = f.compose_mobius(beta).expand(order).coeffs
            fs = f.expand(order).coeffs
            want = tuple(
                sum(math.comb(n, k) * fs[k] * beta ** (n - k) for k in range(n + 1))
                for n in range(order)
            )
            assert got == want

    def test_compose_poly_matches_truncated_substitution(self):
        rng = random.Random(43)
        order = 12
        for _ in range(8):
            f = rand_ratfun(rng, rng.randint(0, 2), rng.randint(1, 2))
            inner = Poly([0] + [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
            if inner.degree < 1:
                continue
            got = f.compose_poly(inner).expand(order).coeffs
            fs = f.expand(order).coeffs
            acc = Poly()
            p = Poly.one()
            for k in range(order):
                acc = acc + p * fs[k]
                p = Poly((p * inner).coeffs[:order])
            assert got == tuple(acc[n] for n in range(order))

    def test_compose_poly_requires_zero_constant_term(self):
        f = RatFun.geometric(1)
        with pytest.raises(InvalidInput):
            f.compose_poly(Poly([1, 1]))

    def test_compose_poly_on_perrin_style_square_substitution(self):
        f = RatFun(Poly([3, 0, -1]), Poly([1, 0, -1, -1]))
        g = f.compose_poly(Poly([0, 0, 4]))
        assert g == RatFun(Poly([3, 0, 0, 0, -16]), Poly([1, 0, 0, 0, -16, 0, -64]))


class TestFormatting:
    def test_proper_quotient(self):
        f = RatFun(Poly([0, 0, 2, -3]), Poly([1, -6, 7, 6, -9]))
        assert format_ratfun(f) == "(2*x^2 - 3*x^3) / (1 - 6*x + 7*x^2 + 6*x^3 - 9*x^4)"

    def test_polynomial_prints_bare(self):
        assert format_ratfun(RatFun(Poly([1, 0, 2]))) == "1 + 2*x^2"
        assert format_ratfun(RatFun.zero()) == "0"


class TestReconstruction:
    def test_recovers_quartic_from_twelve_coefficients(self):
        f = RatFun(Poly([0, 1, 0, -1]), Poly([1, -2, -7, -2, 1]))
        got = reconstruct_rational(f.expand(12), 4, 3)
        assert got == f
        assert got.num == f.num and got.den == f.den

    def test_round_trip_random(self):
        rng = random.Random(47)
        for _ in range(20):
            f = rand_ratfun(rng, rng.randint(0, 3), rng.randint(1, 4))
            nd, dd = max(f.num.degree, 0), f.den.degree
            got = reconstruct_rational(f.expand(nd + dd + 3), dd, nd)
            assert got == f

    def test_loose_bounds_still_give_lowest_terms(self):
        f = RatFun(Poly([0, 1]), Poly([1, -1, -1]))
        got = reconstruct_rational(f.expand(16), 5, 4)
        assert got.num == f.num and got.den == f.den

    def test_insufficient_coefficients_rejected(self):
        f = RatFun(Poly([0, 1]), Poly([1, -1, -1]))
        with pytest.raises(InvalidInput):
            reconstruct_rational(f.expand(5), 2, 1)

    def test_too_small_denominator_bound_fails(self):
        f = RatFun(Poly([0, 1]), Poly([1, -1, -1]))
        with pytest.raises(ReconstructionFailed):
            reconstruct_rational(f.expand(12), 1, 1)

    def test_too_small_numerator_bound_fails(self):
        f = RatFun(Poly([0, 0, 2]), Poly([1, -3, -2, 4]))
        with pytest.raises(ReconstructionFailed):
            reconstruct_rational(f.expand(12), 3, 1)

    def test_polynomial_series(self):
        f = RatFun(Poly([5, 0, 1]))
        got = reconstruct_rational(f.expand(9), 2, 3)
        assert got == f
        assert got.den == Poly.one()
