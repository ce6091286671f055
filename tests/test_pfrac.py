"""Constant-term route: the subresultant sequence over Z[x][t], splits, engines."""

import math
import random
from fractions import Fraction

import pytest

import binprod.pfrac as pfrac
from binprod import (
    BiPoly,
    CoprimalityViolation,
    InternalInvariantViolation,
    InvalidInput,
    Poly,
    RatFun,
    binomial_product,
    binomial_via_constant_term,
    constant_term_split,
    hadamard_product,
    resultant,
    tpoly_xgcd,
)
from binprod.pfrac import hadamard_proper_core
from binprod.polycore import lift_to_y, sub_x_over_y


def rand_tpoly(rng, deg, coeff_deg=1, rational=False):
    """A polynomial in t of degree deg over Q[x], with a constant leading coefficient."""

    def scalar():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4) if rational else 1)

    cs = [Poly([scalar() for _ in range(coeff_deg + 1)]) for _ in range(deg)]
    cs.append(Poly([rng.choice([1, -1, 2, Fraction(2, 3) if rational else 3])]))
    return BiPoly(cs)


def cofactor_of_first(a, b, g, v):
    """u with u*a + v*b = g, by exact pseudo-division; fails unless u exists."""
    q, r, e = (g - v * b).pseudo_divmod(a)
    assert r.is_zero()
    lead = a.leading ** e
    return BiPoly([c.exact_div(lead) for c in q.coeffs])


def check_bezout(a, b):
    g, v = tpoly_xgcd(a, b)
    u = cofactor_of_first(a, b, g, v)
    assert u * a + v * b == g
    return g, u, v


def rand_proper(rng, max_den_deg=3):
    d = rng.randint(1, max_den_deg)
    den = Poly([1] + [rng.randint(-5, 5) for _ in range(d - 1)] + [rng.choice([-3, -2, -1, 1, 2, 3])])
    num = Poly([rng.randint(-5, 5) for _ in range(d)])
    return RatFun(num, den)


class TestTPoly:
    """Polynomials in t over Q[x], the split's ring, are `BiPoly` values."""

    def test_from_bipoly(self):
        t = sub_x_over_y(Poly([1, -2, -1]), 2)
        assert t.degree == 2
        assert t[0] == Poly([0, 0, -1])
        assert t[1] == Poly([0, -2])
        assert t[2] == Poly([1])

    def test_trailing_zeros_trimmed(self):
        t = BiPoly([Poly([1]), Poly()])
        assert t.degree == 0

    def test_divmod_property(self):
        # lc(b)^e * a = q*b + r over Q[x], with no division by a polynomial in x
        rng = random.Random(113)
        for _ in range(10):
            a = rand_tpoly(rng, rng.randint(0, 4))
            b = rand_tpoly(rng, rng.randint(1, 3)) * Poly([1, rng.randint(-2, 2)])
            q, r, e = a.pseudo_divmod(b)
            assert e == max(a.degree - b.degree + 1, 0)
            assert q * b + r == a * b.leading ** e
            assert r.degree < b.degree
        with pytest.raises(ZeroDivisionError):
            b.pseudo_divmod(BiPoly())


class TestXgcd:
    def test_bezout_identity_random(self):
        rng = random.Random(127)
        for _ in range(12):
            a = rand_tpoly(rng, rng.randint(1, 3))
            b = rand_tpoly(rng, rng.randint(1, 3))
            g, u, v = check_bezout(a, b)
            assert g.degree == 0
            assert v.degree < a.degree and u.degree < b.degree

    def test_smaller_first_argument(self):
        # deg a < deg b: the sequence starts from b, still returning b's cofactor
        rng = random.Random(128)
        for _ in range(8):
            a = rand_tpoly(rng, rng.randint(1, 2), coeff_deg=2)
            b = rand_tpoly(rng, rng.randint(3, 5), coeff_deg=2)
            g, u, v = check_bezout(a, b)
            assert g.degree == 0 and v.degree < a.degree

    def test_rational_coefficients(self):
        rng = random.Random(129)
        for _ in range(8):
            a = rand_tpoly(rng, rng.randint(1, 4), rational=True)
            b = rand_tpoly(rng, rng.randint(1, 4), rational=True)
            g, _, _ = check_bezout(a, b)
            assert g.degree == 0

    def test_degree_gaps_end_at_the_resultant(self):
        # a = q*b + r with deg r = deg b - 2, and deg a - deg b = 2: two gaps
        # of two, so psi takes its exact division.  The later remainders fall
        # one degree at a time, so the last one is the resultant, sign and all.
        rng = random.Random(131)
        for _ in range(6):
            n = rng.randint(4, 5)
            b = rand_tpoly(rng, n)
            r = rand_tpoly(rng, n - 2)
            a = rand_tpoly(rng, 2) * b + r * Poly([0, 1])
            g, _, _ = check_bezout(a, b)
            assert g == resultant(a, b)
            assert check_bezout(b, a)[0] == g

    def test_coprime_pair_gives_unit(self):
        a = BiPoly([1, 1])  # 1 + t
        b = BiPoly([-1, 1])  # t - 1
        g, _, v = check_bezout(a, b)
        assert g.degree == 0 and v.degree == 0

    def test_common_factor_detected(self):
        common = BiPoly([Poly([0, -1]), 1])  # t - x
        a = common * BiPoly([1, 1])
        b = common * BiPoly([2, 1])
        g, _, _ = check_bezout(a, b)
        assert g.degree == 1
        assert g * common.leading == common * g.leading

    def test_both_zero_rejected(self):
        with pytest.raises(InvalidInput):
            tpoly_xgcd(BiPoly(), BiPoly())
        with pytest.raises(InvalidInput):
            tpoly_xgcd(BiPoly([1, 1]), BiPoly())


def fib_pell_kernel():
    # A(t) B(x/t) for A = x/(1-x-x^2), B = x/(1-2x-x^2):
    # numerator x t^2 over (1 - t - t^2)(t^2 - 2xt - x^2)
    da = lift_to_y(Poly([1, -1, -1]))
    db = sub_x_over_y(Poly([1, -2, -1]), 2)
    num = lift_to_y(Poly([0, 1])) * sub_x_over_y(Poly([0, 1]), 2)
    return num, da, db


class TestConstantTermSplit:
    def test_worked_split_values(self):
        num, da, db = fib_pell_kernel()
        ra, rb, s = constant_term_split(num, da, db)
        delta = Poly([1, -2, -7, -2, 1])
        assert ra[0] * delta == s * Poly([0, 1, 0, -1])
        assert ra[1] * delta == s * Poly([0, 0, 2, 1])
        assert rb[0] * delta == s * Poly([0, 0, 0, 1, 0, -1])
        assert rb[1] * delta == s * Poly([0, 0, 2, 1])

    def test_split_reassembles(self):
        rng = random.Random(137)
        kernels = [fib_pell_kernel()]
        for _ in range(8):
            da = rand_tpoly(rng, rng.randint(1, 3), rational=True)
            db = rand_tpoly(rng, rng.randint(1, 3), rational=True)
            num = rand_tpoly(rng, da.degree + db.degree - 1, rational=True)
            kernels.append((num, da, db))
        for num, da, db in kernels:
            ra, rb, s = constant_term_split(num, da, db)
            assert not s.is_zero()
            assert ra * db + rb * da == num * s
            assert ra.degree < da.degree and rb.degree < db.degree

    def test_split_matches_bezout_solver(self):
        # the split's constant term is the pfrac answer; the resultant route
        # computes the same product with no split at all
        rng = random.Random(131)
        for _ in range(10):
            a, b = rand_proper(rng), rand_proper(rng)
            if not (a and b):
                continue
            n = b.den.degree
            da, db = lift_to_y(a.den), sub_x_over_y(b.den, n)
            num = lift_to_y(a.num) * sub_x_over_y(b.num, n)
            ra, _, s = constant_term_split(num, da, db)
            assert RatFun._quotient(ra[0], s * da[0]) == hadamard_product(a, b)

    def test_shared_factor_raises(self):
        common = BiPoly([Poly([0, -1]), 1])
        da = common * BiPoly([1, 1])
        db = common * BiPoly([2, 1])
        with pytest.raises(CoprimalityViolation):
            constant_term_split(BiPoly([1]), da, db)

    def test_zero_factor_rejected(self):
        _, da, db = fib_pell_kernel()
        for a, b in ((BiPoly(), db), (da, BiPoly()), (BiPoly(), BiPoly())):
            with pytest.raises(InvalidInput):
                constant_term_split(BiPoly([1]), a, b)

    def test_wrong_cofactor_is_caught(self, monkeypatch):
        num, da, db = fib_pell_kernel()
        xgcd = pfrac.tpoly_xgcd

        def off_by_one(a, b):
            g, v = xgcd(a, b)
            return g, v + BiPoly([1])

        monkeypatch.setattr(pfrac, "tpoly_xgcd", off_by_one)
        with pytest.raises(InternalInvariantViolation):
            constant_term_split(num, da, db)

    def test_improper_numerator_rejected(self):
        _, da, db = fib_pell_kernel()
        too_big = BiPoly([1] * 5)
        with pytest.raises(InvalidInput):
            constant_term_split(too_big, da, db)


class TestBezoutSolver:
    def test_worked_system(self):
        num, da, db = fib_pell_kernel()
        g, u, v = check_bezout(da, db)
        assert g.degree == 0 and v.degree < da.degree and u.degree < db.degree
        ra, _, s = constant_term_split(num, da, db)
        assert RatFun._quotient(ra[0], s * da[0]) == RatFun(Poly([0, 1, 0, -1]), Poly([1, -2, -7, -2, 1]))


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


# ---------------------------------------------------------------------------
# differential guard: pfrac and symfun against the resultant route and the series


def _scalar(rng, rational):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4) if rational else 1)


def _den(rng, deg, rational=False):
    top = _scalar(rng, rational) or Fraction(1)
    return Poly([1] + [_scalar(rng, rational) for _ in range(deg - 1)] + [top]) if deg else Poly.one()


def _num(rng, deg, rational=False):
    return Poly([_scalar(rng, rational) for _ in range(deg)] + [_scalar(rng, rational) or 1])


def repeated_roots(rng):
    def one():
        root = Poly([1, rng.choice([-3, -2, -1, 1, 2, 3])])
        den = root ** rng.randint(2, 3)
        den = den * _den(rng, rng.randint(0, 4 - den.degree))
        return RatFun(_num(rng, den.degree - 1), den)

    return one(), one()


def opposite_roots(rng):
    # reciprocal roots r and -r: alpha + beta = 0 cancels in the binomial product
    r = rng.choice([1, 2, 3, Fraction(1, 2)])
    da = Poly([1, -r]) * _den(rng, rng.randint(0, 3))
    db = Poly([1, r]) * _den(rng, rng.randint(0, 3))
    return RatFun(_num(rng, da.degree - 1), da), RatFun(_num(rng, db.degree - 1), db)


def rational_coefficients(rng):
    def one():
        d = rng.randint(1, 4)
        return RatFun(_num(rng, d - 1, True), _den(rng, d, True))

    return one(), one()


def improper(rng):
    def one():
        d = rng.randint(1, 4)
        return RatFun(_num(rng, d + rng.randint(0, 2)), _den(rng, d))

    return one(), one()


GRID_D5 = (  # python3 bench/run.py --grid, d=5: random.Random(5)
    RatFun(Poly([2, -2, 5, -5, -3]), Poly([1, -1, 0, 5, 3, -5])),
    RatFun(Poly([-4, 4, -2, -5, -2]), Poly([1, 0, 2, -2, 1, 3])),
)


def brute(kind, a, b, order):
    fs, gs = a.expand(order).coeffs, b.expand(order).coeffs
    if kind == "binomial":
        return tuple(sum(math.comb(n, k) * fs[k] * gs[n - k] for k in range(n + 1)) for n in range(order))
    return tuple(f * g for f, g in zip(fs, gs))


def check_against_oracles(a, b):
    for kind, product in (("binomial", binomial_product), ("hadamard", hadamard_product)):
        got = product(a, b, method="pfrac")
        assert got == product(a, b, method="resultant")
        assert product(a, b, method="symfun") == got
        # and, independently of every route, the brute-force series of the
        # operands, to twice the size of the answer
        order = 2 * (got.num.degree + got.den.degree) + 4
        assert got.expand(order).coeffs == brute(kind, a, b, order)


class TestDifferentialGuard:
    @pytest.mark.parametrize(
        "draw", [repeated_roots, opposite_roots, rational_coefficients, improper], ids=lambda f: f.__name__
    )
    def test_edge_classes(self, draw):
        rng = random.Random(151)
        for _ in range(4):
            check_against_oracles(*draw(rng))

    def test_grid_pair_at_degree_five(self):
        check_against_oracles(*GRID_D5)
