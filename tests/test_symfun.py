"""Newton's identities route: power sums of reciprocal roots."""

import math
import random
from fractions import Fraction

import pytest

from binprod import InvalidInput, Poly, RatFun
from binprod.convolve import binomial_denominator, hadamard_denominator
from binprod.polycore import poly_gcd
from binprod.ratfun import Series, series_binomial, series_hadamard
from binprod.symfun import (
    denominator_from_power_sums,
    denominator_via_symfun,
    power_sums,
    symmetric_square_via_symfun,
)


def rand_den(rng, deg):
    # constant term 1, exact degree deg
    coeffs = [1] + [rng.randint(-5, 5) for _ in range(deg - 1)]
    coeffs.append(rng.choice([c for c in range(-5, 6) if c]))
    return Poly(coeffs)


def elementary(den):
    """e_k = (-1)^k [x^k] den for den = prod(1 - alpha_i x)."""
    return [c if k % 2 == 0 else -c for k, c in enumerate(den.coeffs)]


class TestNewtonConversion:
    def test_triple_root_power_sums(self):
        # (1-x)^3 has reciprocal root 1 three times, so every p_k = 3
        p = power_sums(Poly([1, -1]) ** 3, 6)
        assert p.coeffs == tuple(Fraction(3) for _ in range(7))

    def test_two_distinct_roots(self):
        # (1-2x)(1-3x): p_k = 2^k + 3^k
        p = power_sums(Poly([1, -2]) * Poly([1, -3]), 5)
        assert p.coeffs == tuple(Fraction(2**k + 3**k) for k in range(6))
        assert p[0] == 2

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(25):
            den = rand_den(rng, rng.randint(1, 5))
            p = power_sums(den, den.degree)
            assert denominator_from_power_sums(p) == den

    def test_elementary_beyond_root_count_vanish(self):
        # Newton's identities on p_0..p_6 of two roots: d_3..d_6 are zero
        den = Poly([1, -1, -1])
        assert denominator_from_power_sums(power_sums(den, 6)) == den

    def test_requires_unit_e0(self):
        with pytest.raises(InvalidInput):
            power_sums(Poly([2, 1]), 3)

    def test_inexact_newton_step_raises(self):
        # the roots of 1 - x + x^2/2 are (1 +- i)/2, not algebraic integers:
        # their p = 2, 1, 0 gives 2 d_2 = 1
        den = Poly([1, -1, Fraction(1, 2)])
        assert power_sums(den, 2) == Series([2, 1, 0])
        with pytest.raises(InvalidInput, match="d_2"):
            denominator_from_power_sums(Series([2, 1, 0]))
        with pytest.raises(InvalidInput, match="integers"):
            denominator_from_power_sums(power_sums(den, 3))
        # at 2x they are 1 +- i, which are algebraic integers
        assert denominator_from_power_sums(power_sums(den.scale_arg(2), 3)) == Poly([1, -2, 2])


def power_sums_by_expansion(den, upto):
    """The reference definition: p_0 = deg den, then the series of -x den'/den."""
    tail = RatFun(-den.derivative().shift(1), den).expand(upto + 1).coeffs[1:]
    return Series((den.degree, *tail))


INTEGER_ROOTS = [1, -1, 2, -3]
RATIONAL_ROOTS = [*INTEGER_ROOTS, Fraction(1, 2), Fraction(-2, 3)]


def generated_cases(deg):
    """Twelve (den, upto) with den(0) = 1, exact degree deg and upto past 2*deg.

    A third of the dens have random rational coefficients.  The others are
    products of linear factors drawn with replacement, so roots repeat, over
    integer or rational roots.
    """
    rng = random.Random(100 + deg)
    cases = []
    for i in range(12):
        if i % 3 == 0:
            tail = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
            den = Poly([1, *tail[:-1], tail[-1] or Fraction(1, 3)])
        else:
            roots = INTEGER_ROOTS if i % 3 == 1 else RATIONAL_ROOTS
            den = math.prod((Poly([1, -rng.choice(roots)]) for _ in range(deg)), start=Poly.one())
        cases.append((den, 2 * deg + rng.randint(1, 6)))
    return cases


class TestIntegerPowerSums:
    """The forward Newton recurrence against the series of -x D'/D."""

    @pytest.mark.parametrize("deg", range(1, 9))
    def test_equal_the_series_of_the_log_derivative(self, deg):
        for den, upto in generated_cases(deg):
            assert den.degree == deg
            assert power_sums(den, upto) == power_sums_by_expansion(den, upto)

    def test_cases_cover_rational_coefficients_and_repeated_roots(self):
        dens = [den for deg in range(1, 9) for den, _ in generated_cases(deg)]
        assert sum(any(c.denominator > 1 for c in den.coeffs) for den in dens) >= 24
        assert sum(poly_gcd(den, den.derivative()).degree > 0 for den in dens) >= 24

    def test_short_and_empty_ranges(self):
        den = Poly([1, Fraction(-1, 2), Fraction(1, 3)])
        for upto in range(4):
            assert power_sums(den, upto) == power_sums_by_expansion(den, upto)

    def test_denominators_neither_expand_nor_rescale(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("symfun left the integers")

        monkeypatch.setattr(RatFun, "expand", broken)
        monkeypatch.setattr(Poly, "scale_arg", broken)
        u, v = Poly([1, Fraction(-1, 2), -1]), Poly([1, -2, Fraction(1, 3), 1])
        for kind in ("binomial", "hadamard"):
            assert denominator_via_symfun(u, v, kind).degree == 6
            assert symmetric_square_via_symfun(v, kind).degree == 6


class TestCombinedPowerSums:
    def test_hadamard_is_termwise(self):
        pa = Series([2, 1, 3, 4, 7])
        pb = Series([2, 2, 6, 14, 34])
        assert series_hadamard(pa, pb).coeffs == (4, 2, 18, 56, 238)

    def test_binomial_is_convolution(self):
        pa = Series([2, 1, 3, 4, 7])
        pb = Series([2, 2, 6, 14, 34])
        assert series_binomial(pa, pb).coeffs == (4, 6, 22, 72, 278)


class TestWorkedTable:
    """The full second-order example: alpha from 1-x-x^2, beta from 1-2x-x^2.

    The e_k rows of the table are (-1)^k times the denominator coefficients.
    """

    def test_all_eight_rows(self):
        ua, vb = Poly([1, -1, -1]), Poly([1, -2, -1])
        assert elementary(ua) == [1, 1, -1]
        assert elementary(vb) == [1, 2, -1]
        pa = power_sums(ua, 4)
        pb = power_sums(vb, 4)
        assert pa.coeffs == (2, 1, 3, 4, 7)
        assert pb.coeffs == (2, 2, 6, 14, 34)
        star = series_hadamard(pa, pb)
        circ = series_binomial(pa, pb)
        assert star.coeffs == (4, 2, 18, 56, 238)
        assert circ.coeffs == (4, 6, 22, 72, 278)
        assert elementary(denominator_from_power_sums(star)) == [1, 2, -7, 2, 1]
        assert elementary(denominator_from_power_sums(circ)) == [1, 6, 7, -6, -9]

    def test_denominators_assembled(self):
        ua, vb = Poly([1, -1, -1]), Poly([1, -2, -1])
        assert denominator_via_symfun(ua, vb, "hadamard") == Poly([1, -2, -7, -2, 1])
        assert denominator_via_symfun(ua, vb, "binomial") == Poly([1, -6, 7, 6, -9])


class TestAgainstResultantRoute:
    def test_quadratic_self_convolution(self):
        den = Poly([1, -1, -1])
        assert denominator_via_symfun(den, den, "binomial") == Poly([1, -4, 1, 6, -4])

    def test_matches_resultants_randomly(self):
        rng = random.Random(5)
        for _ in range(30):
            a = rand_den(rng, rng.randint(1, 3))
            b = rand_den(rng, rng.randint(1, 3))
            assert denominator_via_symfun(a, b, "binomial") == binomial_denominator(a, b)
            assert denominator_via_symfun(a, b, "hadamard") == hadamard_denominator(a, b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInput):
            denominator_via_symfun(Poly([1, -1]), Poly([1, -1]), "cauchy")
