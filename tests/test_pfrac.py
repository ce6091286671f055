"""Constant-term route: fractions of polynomials, xgcd splits, Bezout systems."""

import random
from fractions import Fraction

import pytest

import binprod.pfrac as pfrac
from binprod import (
    CoprimalityViolation,
    DivisionByZero,
    InvalidInput,
    Poly,
    PolyFraction,
    RatFun,
    TPoly,
    binomial_product,
    binomial_via_constant_term,
    constant_term_split,
    hadamard_product,
    solve_bezout_system,
    tpoly_xgcd,
)
from binprod.pfrac import hadamard_proper_core
from binprod.polycore import lift_to_y, sub_x_over_y


def pf(num, den=None):
    num = Poly(num) if isinstance(num, (list, tuple)) else num
    if den is None:
        return PolyFraction(num)
    den = Poly(den) if isinstance(den, (list, tuple)) else den
    return PolyFraction(num) / PolyFraction(den)


def rand_tpoly(rng, deg, coeff_deg=1):
    cs = [pf([rng.randint(-3, 3) for _ in range(coeff_deg + 1)]) for _ in range(deg)]
    cs.append(pf([rng.choice([1, -1, 2])]))
    return TPoly(cs)


def rand_proper(rng, max_den_deg=3):
    d = rng.randint(1, max_den_deg)
    den = Poly([1] + [rng.randint(-5, 5) for _ in range(d - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])])
    num = Poly([rng.randint(-5, 5) for _ in range(d)])
    return RatFun(num, den)


class TestPolyFraction:
    def test_field_arithmetic(self):
        a = pf([0, 1], [1, -1])  # x/(1-x)
        b = pf([1], [1, 1])  # 1/(1+x)
        s = a + b
        assert s == pf([1, 0, 1], [1, 0, -1])
        assert s - b == a
        assert (a * b) / b == a
        assert a / a == PolyFraction(Poly.one())

    def test_equality_ignores_representation(self):
        assert pf([0, 2], [2, -2]) == pf([0, 1], [1, -1])

    def test_reduced_canonical_form(self):
        f = (pf([0, 1]) * pf([1, 1])) / (pf([2, 2]))
        r = f.reduced()
        assert r.num == Poly([0, Fraction(1, 2)])
        assert r.den == Poly.one()

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            pf([1], [0])

    def test_scalar_mixing(self):
        a = pf([1, 1])
        assert 2 * a == a + a
        assert a - 1 == pf([0, 1])
        assert 1 / pf([1, 1]) == pf([1], [1, 1])

    def test_negation_takes_no_gcd(self, monkeypatch):
        a = pf([2, -1], [3, 0, 1])  # (2 - x)/(3 + x^2), deg den > 0
        calls = []
        gcd = pfrac.poly_gcd

        def spy(u, v):
            calls.append((u, v))
            return gcd(u, v)

        monkeypatch.setattr(pfrac, "poly_gcd", spy)
        neg = -a
        assert calls == []
        assert (neg.num, neg.den) == (-a.num, a.den)
        assert neg + a == 0 and pf([-2, 1], [3, 0, 1]) == neg


class TestTPoly:
    def test_from_bipoly(self):
        t = TPoly(sub_x_over_y(Poly([1, -2, -1]), 2).coeffs)
        assert t.degree == 2
        assert t[0] == pf([0, 0, -1])
        assert t[1] == pf([0, -2])
        assert t[2] == pf([1])

    def test_trailing_zeros_trimmed(self):
        t = TPoly([pf([1]), PolyFraction(Poly())])
        assert t.degree == 0

    def test_divmod_property(self):
        rng = random.Random(113)
        for _ in range(10):
            a = rand_tpoly(rng, rng.randint(0, 4))
            b = rand_tpoly(rng, rng.randint(1, 3))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


class TestXgcd:
    def test_bezout_identity_random(self):
        rng = random.Random(127)
        for _ in range(12):
            a = rand_tpoly(rng, rng.randint(1, 3))
            b = rand_tpoly(rng, rng.randint(1, 3))
            g, s, t = tpoly_xgcd(a, b)
            assert s * a + t * b == g
            assert (a % g).is_zero() and (b % g).is_zero()
            assert g[g.degree] == pf([1])  # monic

    def test_coprime_pair_gives_unit(self):
        a = TPoly([pf([1]), pf([1])])  # 1 + t
        b = TPoly([pf([-1]), pf([1])])  # t - 1
        g, s, t = tpoly_xgcd(a, b)
        assert g.degree == 0
        assert s * a + t * b == g

    def test_common_factor_detected(self):
        common = TPoly([pf([0, -1]), pf([1])])  # t - x
        a = common * TPoly([pf([1]), pf([1])])
        b = common * TPoly([pf([2]), pf([1])])
        g, _, _ = tpoly_xgcd(a, b)
        assert g.degree == 1
        assert (g - common.monic()).is_zero()

    def test_both_zero_rejected(self):
        with pytest.raises(InvalidInput):
            tpoly_xgcd(TPoly(), TPoly())


class TestConstantTermSplit:
    def _fib_pell_kernel(self):
        # A(t) B(x/t) for A = x/(1-x-x^2), B = x/(1-2x-x^2):
        # numerator x t^2 over (1 - t - t^2)(t^2 - 2xt - x^2)
        da = TPoly(lift_to_y(Poly([1, -1, -1])).coeffs)
        db = TPoly(sub_x_over_y(Poly([1, -2, -1]), 2).coeffs)
        num = TPoly(lift_to_y(Poly([0, 1])).coeffs) * TPoly(sub_x_over_y(Poly([0, 1]), 2).coeffs)
        return num, da, db

    def test_worked_split_values(self):
        num, da, db = self._fib_pell_kernel()
        ra, rb = constant_term_split(num, da, db)
        delta = [1, -2, -7, -2, 1]
        assert ra[0] == pf([0, 1, 0, -1], delta)
        assert ra[1] == pf([0, 0, 2, 1], delta)
        assert rb[0] == pf([0, 0, 0, 1, 0, -1], delta)
        assert rb[1] == pf([0, 0, 2, 1], delta)

    def test_split_reassembles(self):
        num, da, db = self._fib_pell_kernel()
        ra, rb = constant_term_split(num, da, db)
        assert ra * db + rb * da == num
        assert ra.degree < da.degree and rb.degree < db.degree

    def test_split_matches_bezout_solver(self):
        rng = random.Random(131)
        for _ in range(10):
            da = rand_tpoly(rng, rng.randint(1, 3))
            db = rand_tpoly(rng, rng.randint(1, 3))
            g, _, _ = tpoly_xgcd(da, db)
            if g.degree != 0:
                continue
            num_deg = da.degree + db.degree - 1
            num = TPoly([pf([rng.randint(-3, 3) for _ in range(2)]) for _ in range(num_deg)] or [pf([1])])
            if num.is_zero():
                continue
            ra, rb = constant_term_split(num, da, db)
            l, m = solve_bezout_system(da, db, num)
            assert ra == l and rb == m

    def test_shared_factor_raises(self):
        common = TPoly([pf([0, -1]), pf([1])])
        da = common * TPoly([pf([1]), pf([1])])
        db = common * TPoly([pf([2]), pf([1])])
        num = TPoly([pf([1])])
        with pytest.raises(CoprimalityViolation):
            constant_term_split(num, da, db)
        with pytest.raises(CoprimalityViolation):
            solve_bezout_system(da, db, num)

    def test_improper_numerator_rejected(self):
        _, da, db = self._fib_pell_kernel()
        too_big = TPoly([pf([1])] * 5)
        with pytest.raises(InvalidInput):
            constant_term_split(too_big, da, db)


class TestBezoutSolver:
    def test_worked_system(self):
        num, da, db = self._kernel()
        l, m = solve_bezout_system(da, db, num)
        assert l * db + m * da == num
        assert l.degree < da.degree and m.degree < db.degree
        assert l[0] == pf([0, 1, 0, -1], [1, -2, -7, -2, 1])

    def _kernel(self):
        da = TPoly(lift_to_y(Poly([1, -1, -1])).coeffs)
        db = TPoly(sub_x_over_y(Poly([1, -2, -1]), 2).coeffs)
        num = TPoly(lift_to_y(Poly([0, 1])).coeffs) * TPoly(sub_x_over_y(Poly([0, 1]), 2).coeffs)
        return num, da, db


class TestEngines:
    def test_hadamard_core_on_fibonacci_pell(self):
        a = RatFun(Poly.x(), Poly([1, -1, -1]))
        b = RatFun(Poly.x(), Poly([1, -2, -1]))
        got = hadamard_proper_core(a, b)
        assert got == RatFun(Poly([0, 1, 0, -1]), Poly([1, -2, -7, -2, 1]))

    def test_engines_match_resultant_route(self):
        rng = random.Random(137)
        for _ in range(30):
            a = rand_proper(rng)
            b = rand_proper(rng)
            assert hadamard_product(a, b, method="pfrac") == hadamard_product(a, b)
            assert binomial_via_constant_term(a, b) == binomial_product(a, b)

    def test_engines_handle_improper_inputs(self):
        rng = random.Random(139)
        for _ in range(10):
            num = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            den = Poly([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])
            a = RatFun(num, den)
            b = rand_proper(rng)
            assert hadamard_product(a, b, method="pfrac") == hadamard_product(a, b)
            assert binomial_via_constant_term(a, b) == binomial_product(a, b)
            assert binomial_via_constant_term(b, a) == binomial_product(b, a)

    def test_zero_operands(self):
        f = RatFun.geometric(2)
        assert hadamard_product(f, RatFun.zero(), method="pfrac") == RatFun.zero()
        assert binomial_via_constant_term(RatFun.zero(), f) == RatFun.zero()
