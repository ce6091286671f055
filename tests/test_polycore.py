"""Polynomial layer: arithmetic, determinants, resultants, substitutions."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import binprod.polycore as polycore
from binprod import DivisibilityError, InvalidInput, Poly, RatFun
from binprod.convolve import binomial_denominator, hadamard_denominator
from binprod.polycore import (
    BiPoly,
    det_fraction_free,
    format_poly,
    lift_to_y,
    poly_gcd,
    resultant,
    solve_exact,
    sub_one_minus_y,
    sub_x_over_y,
    sylvester,
)


def rand_poly(rng, deg, lo=-5, hi=5):
    # leading coefficient forced nonzero so the degree is exact
    coeffs = [rng.randint(lo, hi) for _ in range(deg)]
    coeffs.append(rng.choice([c for c in range(lo, hi + 1) if c]))
    return Poly(coeffs)


def rand_rational_poly(rng, deg, lo=-5, hi=5):
    # denominators 1-4, leading coefficient nonzero
    coeffs = [Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(deg)]
    lead = rng.choice([c for c in range(lo, hi + 1) if c])
    coeffs.append(Fraction(lead, rng.randint(1, 4)))
    return Poly(coeffs)


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    # Euclid over Q with monic remainders and no modular shortcut: the oracle
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()
    return a.monic()


def det_cofactor(m: list) -> Poly:
    # textbook expansion along the first row; the independent oracle
    n = len(m)
    if n == 0:
        return Poly.one()
    if n == 1:
        return m[0][0]
    total = Poly()
    for j in range(n):
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = m[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


class TestPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Poly([0, 0]).coeffs == ()

    def test_degree_sentinel(self):
        assert Poly().degree == -1
        assert Poly([0]).degree == -1
        assert Poly([5]).degree == 0
        assert Poly([0, 0, 3]).degree == 2

    def test_coefficients_beyond_degree_are_zero(self):
        p = Poly([1, 2])
        assert p[5] == 0
        assert p[0] == 1

    def test_square_of_binomial(self):
        assert Poly([1, 1]) ** 2 == Poly([1, 2, 1])

    def test_divmod_is_exact_division_with_remainder(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rand_poly(rng, rng.randint(0, 6))
            b = rand_poly(rng, rng.randint(0, 4))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_exact_div_rejects_nondivisor(self):
        with pytest.raises(DivisibilityError):
            Poly([1, 1]).exact_div(Poly([1, 2]))
        assert (Poly([1, 1]) * Poly([2, 3])).exact_div(Poly([1, 1])) == Poly([2, 3])

    def test_exact_div_matches_divmod_over_q(self):
        # Poly.exact_div divides in Z[x]; divmod over Fraction is the reference
        rng = random.Random(61)
        for _ in range(40):
            b = rand_rational_poly(rng, rng.randint(0, 3))
            if b.leading == 1:
                b = b * Fraction(-3, 2)
            q = rand_rational_poly(rng, rng.randint(0, 4))
            a = q * b
            assert a.exact_div(b) == divmod(a, b)[0] == q
            assert a.exact_div(b.leading) == divmod(a, b.leading)[0]
            assert Poly().exact_div(b) == Poly()

    def test_exact_div_by_scalars(self):
        a = Poly([Fraction(3, 4), -6, Fraction(9, 2)])
        for c in (3, Fraction(-3, 8), Poly([Fraction(5, 7)])):
            assert a.exact_div(c) == divmod(a, c)[0]
        with pytest.raises(ZeroDivisionError):
            a.exact_div(Poly())

    @pytest.mark.parametrize("divisor", ["x", 1.5, None, RatFun(Poly.x(), Poly([1, -1]))], ids=repr)
    def test_exact_div_rejects_other_types(self, divisor):
        with pytest.raises(TypeError):
            Poly([1, 2, 1]).exact_div(divisor)

    def test_exact_div_rejects_inexact_rational_pairs(self):
        rng = random.Random(67)
        for _ in range(20):
            b = rand_rational_poly(rng, rng.randint(1, 3))
            a = rand_rational_poly(rng, rng.randint(0, 5))
            if divmod(a, b)[1]:
                with pytest.raises(DivisibilityError) as exc:
                    a.exact_div(b)
                assert str(exc.value) == f"{a} is not divisible by {b}"

    def test_derivative(self):
        p = Poly([1, -6, 7, 6, -9])
        assert p.derivative() == Poly([-6, 14, 18, -36])

    def test_compose(self):
        p = Poly([1, 0, 1])  # 1 + x^2
        inner = Poly([0, 2, 1])
        assert p.compose(inner) == Poly.one() + inner * inner
        # a scalar is a constant inner polynomial
        assert p.compose(2) == p.compose(Poly([2])) == Poly([5])
        assert p.compose(Fraction(1, 2)) == Poly([Fraction(5, 4)])

    def test_scale_arg_and_shift(self):
        p = Poly([1, 1, 1])
        assert p.scale_arg(2) == Poly([1, 2, 4])
        assert p.shift(2) == Poly([0, 0, 1, 1, 1])

    def test_gcd_is_monic(self):
        a = Poly([1, -1]) ** 2 * Poly([1, 2])
        b = Poly([1, -1]) * Poly([1, 2]) ** 2
        g = poly_gcd(a, b)
        assert g == (Poly([1, -1]) * Poly([1, 2])).monic()
        assert g.leading == 1

    def test_gcd_certificate_agrees_with_euclid_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(40):
            a = rand_rational_poly(rng, rng.randint(0, 6))
            b = rand_rational_poly(rng, rng.randint(0, 6))
            assert poly_gcd(a, b) == euclid_gcd(a, b)

    def test_gcd_with_unlucky_prime(self):
        # both images mod 2^61 - 1 are x - 1, but the roots 1 and 2^61 differ
        p = (1 << 61) - 1
        a = Poly([-1, 1])
        b = Poly([-1 - p, 1])
        assert poly_gcd(a, b) == euclid_gcd(a, b) == Poly.one()

    def test_gcd_when_prime_divides_a_leading_coefficient(self):
        # the common factor p*x + 1 vanishes mod p, leaving coprime images
        # x + 2 and x + 3, so a gcd read from that image would answer 1
        p = (1 << 61) - 1
        g = Poly([1, p])
        a = g * Poly([2, 1])
        b = g * Poly([Fraction(3, 2), Fraction(1, 2)])
        assert poly_gcd(a, b) == euclid_gcd(a, b) == Poly([Fraction(1, p), 1])
        # coprime, but with a leading coefficient the prime divides
        c = Poly([Fraction(1, 3), 0, Fraction(2 * p, 3)])
        assert poly_gcd(c, Poly([1, 1])) == euclid_gcd(c, Poly([1, 1])) == Poly.one()

    def test_gcd_recovers_planted_rational_factor(self):
        rng = random.Random(17)
        for _ in range(25):
            g = rand_rational_poly(rng, rng.randint(1, 3))
            a = g * rand_rational_poly(rng, rng.randint(0, 4))
            b = g * rand_rational_poly(rng, rng.randint(0, 4))
            got = poly_gcd(a, b)
            assert got == euclid_gcd(a, b)
            assert (got % g.monic()).is_zero()

    def test_modular_gcd_recovers_planted_factors(self):
        # integer and rational planted factors, some of them repeated
        rng = random.Random(19)
        for trial in range(40):
            make = rand_poly if trial % 2 else rand_rational_poly
            f = make(rng, rng.randint(1, 2))
            g = f ** rng.randint(1, 3) * make(rng, rng.randint(0, 2))
            a = g * f * make(rng, rng.randint(0, 3))
            b = g * make(rng, rng.randint(0, 3))
            got = poly_gcd(a, b)
            assert got == euclid_gcd(a, b)
            assert (got % g.monic()).is_zero()

    def test_modular_gcd_with_huge_coefficients(self):
        # the gcd candidate needs coefficients of more than 200 bits
        rng = random.Random(23)
        for _ in range(4):
            g = Poly([rng.getrandbits(230) - (1 << 229) for _ in range(3)] + [(1 << 201) + 7])
            a = g * rand_poly(rng, 3)
            b = g * rand_rational_poly(rng, 2)
            assert poly_gcd(a, b) == euclid_gcd(a, b) == g.monic()

    def test_modular_gcd_restarts_on_lower_degree(self):
        # mod p = 2^61 - 1 both are (x + 1)(x - 1), an image of degree 2
        p = (1 << 61) - 1
        a = Poly([1, 1]) * Poly([-1, 1])
        b = Poly([1, 1]) * Poly([-1 - p, 1])
        assert poly_gcd(a, b) == euclid_gcd(a, b) == Poly([1, 1])

    def test_modular_gcd_discards_a_later_unlucky_image(self):
        # mod p2 = 2^61 - 31, the second prime below 2^61, both are
        # (x + 1)(x - 1), an image of degree 2
        p2 = (1 << 61) - 31
        a = Poly([1, 1]) * Poly([-1, 1])
        b = Poly([1, 1]) * Poly([-1 - p2, 1])
        assert poly_gcd(a, b) == euclid_gcd(a, b) == Poly([1, 1])

    def test_modular_gcd_trial_division_rejects_a_false_stable_lift(self, monkeypatch):
        # at x = 4 the values are 5 and 10, whose gcd 5 unpacks to x + 1;
        # only trial division rejects it, and x = 16 (17 and 22) proves the
        # pair coprime
        a, b = Poly([1, 1]), Poly([6, 1])
        rejected = []
        divide = polycore._zx_exact_div

        def spy(u, v):
            try:
                return divide(u, v)
            except DivisibilityError:
                rejected.append(v)
                raise

        monkeypatch.setattr(polycore, "_zx_exact_div", spy)
        assert poly_gcd(a, b) == euclid_gcd(a, b) == Poly.one()
        assert rejected == [[1, 1]]

    def test_gcd_with_zero_and_constant_arguments(self):
        f = Poly([Fraction(2, 3), -4, 6])
        assert poly_gcd(f, Poly()) == poly_gcd(Poly(), f) == f.monic()
        assert poly_gcd(Poly([Fraction(-5, 2)]), Poly()) == Poly.one()
        assert poly_gcd(f, Poly([7])) == poly_gcd(Poly([7]), f) == Poly.one()
        assert poly_gcd(Poly([3]), Poly([Fraction(1, 2)])) == Poly.one()
        with pytest.raises(InvalidInput):
            poly_gcd(Poly(), Poly())

    def test_gcd_of_a_nonzero_constant_is_one_at_once(self, monkeypatch):
        def no_lift(f):
            raise AssertionError("a constant argument needs no integer gcd")

        monkeypatch.setattr(polycore, "_primitive_ints", no_lift)
        f = Poly([Fraction(2, 3), -4, 6])
        for c in (Poly([7]), Poly([Fraction(-5, 2)])):
            assert poly_gcd(f, c) == poly_gcd(c, f) == Poly.one()
            assert poly_gcd(c, c) == Poly.one()

    def test_format(self):
        assert format_poly(Poly([1, -6, 7])) == "1 - 6*x + 7*x^2"
        assert format_poly(Poly([0, 0, 2, -3])) == "2*x^2 - 3*x^3"
        assert format_poly(Poly()) == "0"
        assert format_poly(Poly([0, 1])) == "x"
        assert format_poly(Poly([0, -1, 0, Fraction(2, 3)])) == "-x + 2/3*x^3"


def rand_q(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def rand_qx(rng):
    return Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])


# each class of the dense kernel with a random coefficient of its ring
KERNEL_RINGS = [(Poly, rand_q), (BiPoly, rand_qx)]


class TestDenseKernel:
    @staticmethod
    def rand(rng, cls, coeff, deg):
        lead = coeff(rng)
        while not lead:
            lead = coeff(rng)
        return cls([coeff(rng) for _ in range(deg)] + [lead])

    @pytest.mark.parametrize("cls, coeff", KERNEL_RINGS, ids=["Poly", "BiPoly"])
    def test_ring_laws(self, cls, coeff):
        rng = random.Random(43)
        for _ in range(4):
            a, b, c = (self.rand(rng, cls, coeff, rng.randint(0, 3)) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a and (a * b).degree == a.degree + b.degree
            assert a - a == cls() and (a - b) + b == a
            assert a ** 0 == cls([1]) and a ** 1 == a
            assert a ** 3 == a * a * a and a ** 4 == a * a * a * a
            # operands of different lengths add coefficientwise
            long, short = self.rand(rng, cls, coeff, 4), self.rand(rng, cls, coeff, 1)
            total = long + short
            assert total == short + long
            assert all(total[i] == long[i] + short[i] for i in range(6))
            assert total.degree == 4 and total[5] == cls._zero
            # a one-term multiplier scales every coefficient
            s = coeff(rng)
            scaled = cls([x * s for x in a.coeffs])
            assert a * s == s * a == a * cls([s]) == scaled
            assert a * cls() == cls() * a == cls()

    def test_poly_product_in_z_matches_schoolbook_over_q(self):
        def schoolbook(a, b):
            out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
            for i, x in enumerate(a.coeffs):
                for j, y in enumerate(b.coeffs):
                    out[i + j] += x * y
            return Poly(out)

        rng = random.Random(59)
        big = 10**40 + 7

        def coeff():
            return Fraction(rng.randint(-big, big), rng.choice([1, 3, big, 2**70, rng.randint(1, big)]))

        factors = [Poly(), Poly([Fraction(-3, big)]), Poly([0, 0, Fraction(5, 2)]), Poly([1, 0, 0, -1])]
        factors += [Poly([coeff() for _ in range(rng.randint(1, 6))]) for _ in range(12)]
        factors += [Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]) for _ in range(6)]
        for a in factors:
            for b in factors:
                assert a * b == schoolbook(a, b) if a and b else (a * b).is_zero()
            for s in (0, 3, Fraction(-7, big)):
                assert a * s == s * a == Poly([c * s for c in a.coeffs])

    def test_bipoly_times_poly_is_a_bipoly(self):
        p, q = Poly([1, Fraction(1, 2)]), BiPoly([Poly([0, 1]), 3])
        assert p * q == q * p == BiPoly([Poly([0, 1, Fraction(1, 2)]), Poly([3, Fraction(3, 2)])])
        assert isinstance(p * q, BiPoly)

    @pytest.mark.parametrize("cls, coeff", KERNEL_RINGS[:1], ids=["Poly"])
    def test_division_with_remainder(self, cls, coeff):
        rng = random.Random(47)
        for _ in range(6):
            a = self.rand(rng, cls, coeff, rng.randint(0, 4))
            b = self.rand(rng, cls, coeff, rng.randint(0, 2))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
            assert a // b == q and a % b == r
            assert (a * b).exact_div(b) == a
            assert b.monic().leading == 1
        # constant divisors, as a scalar and as a polynomial, and a dividend
        # of lower degree than the divisor, which is its own remainder
        a = self.rand(rng, cls, coeff, 3)
        for b in (3, Fraction(-2, 3), Poly([Fraction(5, 2)])):
            c = b[0] if isinstance(b, Poly) else b
            assert divmod(a, b) == (cls([x / c for x in a.coeffs]), cls())
        assert divmod(a, self.rand(rng, cls, coeff, 4)) == (cls(), a)

    # BiPoly, over a ring, is covered by tests/test_pfrac.py::TestTPoly
    @pytest.mark.parametrize("cls, coeff", KERNEL_RINGS[:1], ids=["Poly"])
    def test_pseudo_division(self, cls, coeff):
        rng = random.Random(49)
        for _ in range(8):
            a = self.rand(rng, cls, coeff, rng.randint(0, 5))
            b = self.rand(rng, cls, coeff, rng.randint(0, 3))
            q, r, e = a.pseudo_divmod(b)
            assert e == max(a.degree - b.degree + 1, 0)
            assert q * b + r == a * b.leading ** e
            assert r.degree < b.degree
        # a dividend of lower degree is its own remainder
        assert a.pseudo_divmod(self.rand(rng, cls, coeff, a.degree + 1)) == (cls(), a, 0)
        with pytest.raises(ZeroDivisionError):
            a.pseudo_divmod(cls())

    @pytest.mark.parametrize("cls, coeff", KERNEL_RINGS, ids=["Poly", "BiPoly"])
    def test_zero_divisor_and_rejected_coefficient(self, cls, coeff):
        with pytest.raises(ZeroDivisionError):
            divmod(cls([coeff(random.Random(53))]), cls())
        with pytest.raises(InvalidInput):
            cls([1, 0.5])
        assert cls([1, 2, 0, 0]).degree == 1 and cls([0, 0]).coeffs == ()


class TestDeterminant:
    def test_matches_cofactor_expansion_on_numbers(self):
        rng = random.Random(23)
        for _ in range(15):
            m = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(5)]
            assert det_fraction_free(m) == det_cofactor(m)

    def test_matches_cofactor_expansion_on_polynomials(self):
        rng = random.Random(29)
        for _ in range(10):
            m = [[rand_poly(rng, rng.randint(0, 2), -3, 3) for _ in range(3)] for _ in range(3)]
            assert det_fraction_free(m) == det_cofactor(m)

    def test_matches_cofactor_expansion_on_rational_entries(self):
        # denominators 1-4, so rows are scaled by different lcms
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(2, 5)
            m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(m) == det_cofactor(m)
        for _ in range(8):
            m = [[rand_rational_poly(rng, rng.randint(0, 2), -3, 3) for _ in range(3)] for _ in range(3)]
            assert det_fraction_free(m) == det_cofactor(m)

    def test_rational_zero_pivot_forces_row_swap(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        m = [
            [0, Poly([half, 1]), Fraction(3, 4)],
            [third, Poly([0, -half]), 2],
            [Poly([1, Fraction(-1, 4)]), 1, Poly([third])],
        ]
        assert det_fraction_free(m) == det_cofactor(m)
        assert not det_fraction_free(m).is_zero()

    def test_rational_singular_matrix_gives_zero(self):
        r0 = [Poly([Fraction(1, 2), 1]), Poly([Fraction(-2, 3)]), Poly([0, Fraction(3, 4)])]
        r1 = [Poly([1]), Poly([0, Fraction(1, 3)]), Poly([Fraction(5, 2)])]
        r2 = [Fraction(2, 3) * p + q * Poly([0, 1]) for p, q in zip(r0, r1)]
        m = [r0, r1, r2]
        assert det_cofactor(m) == Poly()
        assert det_fraction_free(m) == Poly()

    def test_repeated_row_gives_zero(self):
        row = [Poly([1, 1]), Poly([2]), Poly([0, 0, 1])]
        other = [Poly([1]), Poly([1]), Poly([1])]
        m = [row, other, row]
        assert det_fraction_free(m) == Poly()

    def test_row_swap_flips_sign(self):
        m = [[0, 1], [1, 0]]
        assert det_fraction_free(m) == Poly([-1])

    def test_empty_matrix(self):
        assert det_fraction_free(()) == Poly.one()

    # A 4x4 Hadamard matrix meets the coefficient bound: every row has
    # 2-norm 2, so B = 2^4 = 16 = |det|.
    HADAMARD = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]

    def test_hadamard_matrix_meets_the_bound(self):
        m = self.HADAMARD
        assert det_fraction_free(m) == det_cofactor(m) == Poly([16])
        flipped = [[-c for c in self.HADAMARD[0]]] + self.HADAMARD[1:]
        assert det_fraction_free(flipped) == Poly([-16])

    def test_hadamard_matrix_of_monomials_meets_the_bound(self):
        # entry (i, j) is +-x^j, so det = x^(0+1+2+3) * 16; then the
        # exponents vary along rows too, spreading the terms over degrees
        m = [[Poly.monomial(j, c) for j, c in enumerate(row)] for row in self.HADAMARD]
        assert det_fraction_free(m) == det_cofactor(m) == Poly.monomial(6, 16)
        m = [[Poly.monomial((i * j) % 3, c) for j, c in enumerate(row)] for i, row in enumerate(self.HADAMARD)]
        assert det_fraction_free(m) == det_cofactor(m)
        assert max(abs(c) for c in det_fraction_free(m).coeffs) <= 16

    def test_negative_determinants(self):
        assert det_fraction_free([[1, 2], [1, 1]]) == Poly([-1])
        x = Poly.x()
        # 1 - x^2: a negative leading coefficient above a positive constant
        assert det_fraction_free([[1, x], [x, 1]]) == Poly([1, 0, -1])
        # negative digits on both sides of a positive one
        m = [[Poly([-3, 2]), Poly([0, 5])], [Poly([1, 1]), Poly([2, -1])]]
        assert det_fraction_free(m) == det_cofactor(m) == Poly([-6, 2, -7])

    def test_rational_rows_force_a_later_row_swap(self):
        # the (1, 1) pivot vanishes after the first step, so row 2 moves up
        half, third = Fraction(1, 2), Fraction(1, 3)
        m = [[1, half, 0], [2, 1, third], [0, Poly.x(), 1]]
        assert det_fraction_free(m) == det_cofactor(m) == Poly([0, -third])
        # and with the first column's pivot two rows down
        m = [[0, half, Poly([0, third])], [0, Poly([1, half]), 2], [third, 1, Poly([Fraction(-1, 4), 1])]]
        assert det_fraction_free(m) == det_cofactor(m)
        assert not det_fraction_free(m).is_zero()

    def test_matches_cofactor_expansion_on_generated_matrices(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)
        # zero entries are common, so zero pivots and row swaps are too
        entry = st.one_of(st.just(Poly()), st.lists(coeff, max_size=4).map(Poly))
        matrix = st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        )

        @settings(derandomize=True, max_examples=60, deadline=None)
        @given(matrix)
        def check(rows):
            assert det_fraction_free(rows) == det_cofactor(rows)

        check()

    @pytest.mark.parametrize("d", range(2, 7))
    def test_product_denominators_match_sympy_resultants(self, d):
        # For U = prod(1 - alpha_i x) the reversal y^m U(1/y) is prod(y - alpha_i),
        # so sympy's Res_y(rev U(y), rev V(x - y)) = prod(x - (alpha_i + beta_j))
        # and Res_y(rev U(y), y^n rev V(x/y)) = prod(x - alpha_i beta_j), which
        # reverse to the two product denominators.
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        rng = random.Random(100 + d)

        def rev(p, t):
            return sum(sympy.Rational(c.numerator, c.denominator) * t ** (p.degree - i) for i, c in enumerate(p.coeffs))

        def unrev(r):
            return Poly([Fraction(int(c.p), int(c.q)) for c in sympy.Poly(r, x).all_coeffs()])

        u = Poly([1]) + rand_poly(rng, d - 2).shift(1) + Poly.monomial(d, rng.choice([-3, -1, 2, 5]))
        v = Poly([1]) + rand_rational_poly(rng, d - 2).shift(1) + Poly.monomial(d, Fraction(-2, 3))
        hom_v = sympy.expand(y**d * rev(v, x / y))
        assert binomial_denominator(u, v) == unrev(sympy.resultant(rev(u, y), rev(v, x - y), y))
        assert hadamard_denominator(u, v) == unrev(sympy.resultant(rev(u, y), hom_v, y))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            det_fraction_free([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(InvalidInput):
            det_fraction_free([[]])
        with pytest.raises(InvalidInput):
            det_fraction_free([[1, 2], [3]])

    def test_rows_may_be_tuples_or_lists(self):
        x = Poly.x()
        want = Poly([1, 0, -1])
        assert det_fraction_free([[1, x], [x, 1]]) == want
        assert det_fraction_free(((1, x), (x, 1))) == want
        assert det_fraction_free([(1, x), [x, Fraction(1)]]) == want
        assert det_fraction_free([]) == det_fraction_free(()) == Poly.one()
        # every entry is coerced to a Poly, so a float is rejected
        with pytest.raises(InvalidInput):
            det_fraction_free([[1, 0.5], [3, 4]])


class TestResultant:
    def test_linear_pair(self):
        # Res_y(y - 1, y - x) = 1 - x
        a = lift_to_y(Poly([-1, 1]))
        b = BiPoly([Poly([0, -1]), Poly.one()])
        assert resultant(a, b) == Poly([1, -1])

    def test_evaluation_form(self):
        # for monic linear a = y - 2, Res(a, b) = b(2)
        a = lift_to_y(Poly([-2, 1]))
        b = lift_to_y(Poly([-1, -1, 1]))
        assert resultant(a, b) == Poly([1])

    def test_constants_give_the_empty_matrix(self):
        a, b = lift_to_y(Poly([3])), lift_to_y(Poly([Fraction(-1, 2)]))
        assert sylvester(a, b) == []
        assert resultant(a, b) == Poly.one()

    def test_shared_root_vanishes(self):
        a = lift_to_y(Poly([-1, 1]) * Poly([3, 1]))
        b = lift_to_y(Poly([-1, 1]) * Poly([5, 2]))
        assert resultant(a, b) == Poly()

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(37)

        def rand_bipoly(deg):
            cs = [rand_poly(rng, rng.randint(0, 1), -2, 2) for _ in range(deg)]
            cs.append(Poly([rng.choice([1, 2, -1])]))
            return BiPoly(cs)

        for _ in range(8):
            a = rand_bipoly(rng.randint(1, 2))
            b = rand_bipoly(rng.randint(1, 2))
            c = rand_bipoly(rng.randint(1, 2))
            assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)


class TestSubstitutions:
    def test_one_minus_y_substitution(self):
        # (1-y)^1 * p(x/(1-y)) for p = 1 - 3x is (1 - y) - 3x
        bp = sub_one_minus_y(Poly([1, -3]))
        assert bp.degree == 1
        assert bp[0] == Poly([1, -3])
        assert bp[1] == Poly([-1])

    def test_one_minus_y_with_larger_power(self):
        bp = sub_one_minus_y(Poly([1, -3]), power=2)
        # (1-y)^2 - 3x(1-y)
        assert bp[0] == Poly([1, -3])
        assert bp[1] == Poly([-2, 3])
        assert bp[2] == Poly([1])

    def test_one_minus_y_matches_expanding_powers(self):
        # the oracle: sum_i p_i x^i (1-y)^(e-i), multiplied out in BiPoly
        rng = random.Random(59)
        one_minus_y = BiPoly([Poly.one(), Poly([-1])])
        for _ in range(20):
            deg = rng.randint(0, 6)
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * rng.randint(0, 1) for _ in range(deg)]
            p = Poly(coeffs + [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))])
            for e in range(deg, deg + 4):
                want = BiPoly()
                for i, c in enumerate(p.coeffs):
                    if c:
                        want = want + one_minus_y ** (e - i) * Poly.monomial(i, c)
                assert sub_one_minus_y(p, e) == want

    def test_x_over_y_matches_its_definition(self):
        # y^e p(x/y), evaluated at points with y != 0
        def value(f, x0):
            return sum(c * x0**i for i, c in enumerate(f.coeffs))

        rng = random.Random(61)
        for _ in range(20):
            p = rand_rational_poly(rng, rng.randint(0, 6), -4, 4)
            e = p.degree + rng.randint(0, 3)
            bp = sub_x_over_y(p, e)
            for _ in range(3):
                x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                y0 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                got = sum(value(c, x0) * y0**k for k, c in enumerate(bp.coeffs))
                assert got == y0**e * value(p, x0 / y0)

    def test_x_over_y_substitution(self):
        bp = sub_x_over_y(Poly([1, -2, -1]))
        assert bp.degree == 2
        assert bp[2] == Poly.one()
        assert bp[1] == Poly([0, -2])
        assert bp[0] == Poly([0, 0, -1])

    def test_power_below_degree_rejected(self):
        with pytest.raises(InvalidInput):
            sub_x_over_y(Poly([1, 1, 1]), power=1)
        with pytest.raises(InvalidInput):
            sub_one_minus_y(Poly([1, 1, 1]), power=1)

    def test_worked_sylvester_matrix_and_determinant(self):
        # the 4x4 resultant computation for x/(1-x-x^2) and x/(1-2x-x^2)
        u = Poly([1, -1, -1])
        v = Poly([1, -2, -1])
        m = sylvester(sub_one_minus_y(u), sub_x_over_y(v))
        zero = Poly()
        assert m == [
            [Poly([1]), Poly([-2, 1]), Poly([1, -1, -1]), zero],
            [zero, Poly([1]), Poly([-2, 1]), Poly([1, -1, -1])],
            [Poly([1]), Poly([0, -2]), Poly([0, 0, -1]), zero],
            [zero, Poly([1]), Poly([0, -2]), Poly([0, 0, -1])],
        ]
        assert det_fraction_free(m) == Poly([1, -6, 7, 6, -9])


class TestSolvers:
    def test_unique_system(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]]
        rhs = [Fraction(5), Fraction(5)]
        assert solve_exact(rows, rhs) == [Fraction(1), Fraction(2)]

    def test_inconsistent_returns_none(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        rhs = [Fraction(1), Fraction(3)]
        assert solve_exact(rows, rhs) is None

    def test_underdetermined(self):
        rows = [[Fraction(1), Fraction(1)]]
        rhs = [Fraction(3)]
        assert solve_exact(rows, rhs) == [Fraction(3), Fraction(0)]

    def test_random_square_systems(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 5)
            sol = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
            rhs = [sum(r[j] * sol[j] for j in range(n)) for r in rows]
            got = solve_exact(rows, rhs)
            assert got is not None
            assert [sum(r[j] * got[j] for j in range(n)) for r in rows] == rhs

    def test_integer_entries_solve_over_fractions(self):
        got = solve_exact([[3]], [1])
        assert got == [Fraction(1, 3)] and type(got[0]) is Fraction
        assert solve_exact([[2, 1], [1, 1]], [1, 0]) == [Fraction(1), Fraction(-1)]

    @pytest.mark.parametrize("rows, rhs", [([[1.5]], [1]), ([[1]], [0.5]), ([["1"]], [1])])
    def test_non_rational_entries_are_invalid_input(self, rows, rhs):
        with pytest.raises(InvalidInput, match="expected an integer or Fraction"):
            solve_exact(rows, rhs)

    def test_ragged_rows_are_invalid_input(self):
        with pytest.raises(InvalidInput, match="rows differ in length"):
            solve_exact([[1, 2], [3]], [1, 2])


def test_denominators_are_read_only_in_cleared():
    """Every step from Fraction coefficients to integers goes through `_cleared`.

    Collects the enclosing function of each `.denominator` attribute in the
    package's source, so an inline clear in a new kernel fails here.
    """
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr == "denominator":
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(Path(polycore.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert readers == {"polycore._cleared"}
