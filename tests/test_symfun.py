"""Newton's identities route: power sums of reciprocal roots."""

import random
from fractions import Fraction

import pytest

from binprod import (
    InvalidInput,
    Poly,
    binomial_denominator,
    denominator_via_symfun,
    hadamard_denominator,
    series_binomial,
    series_hadamard,
)
from binprod.ratfun import Series
from binprod.symfun import denominator_from_power_sums, power_sums


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
