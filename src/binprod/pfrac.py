"""Products by constant-term extraction in an auxiliary variable.

A Hadamard product is the constant term in t of A(t)B(x/t); a binomial
product is the constant term in t of (1/(1-t)) A(x/(1-t)) B(x/t).  Working
in the field of rational functions of x, each of these is a proper rational
function of t whose denominator splits into two coprime factors: one with
"small" roots (constant in x, or tending to the roots of A's denominator)
and one whose roots all carry a factor of x.  The two-term partial-fraction
split separates the nonnegative and negative powers of t, so the constant
term is the first piece evaluated at t = 0.

The split is computed with the extended Euclidean algorithm on `TPoly`,
polynomials in t over the rational-function field Q(x).  `TPoly` is the
dense-polynomial kernel of `polycore` over the `PolyFraction` coefficient
field; its factors are built from the y-substitutions of `polycore`, read
with t for y.  `solve_bezout_system` solves the same split as a
Sylvester-structured linear system, as an independent reference.
Everything is exact.  No resultant or determinant is computed here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .convolve import binomial_from_proper_core
from .errors import (
    CoprimalityViolation,
    DivisionByZero,
    InternalInvariantViolation,
    InvalidInput,
)
from .polycore import (
    Poly,
    _DensePoly,
    poly_gcd,
    solve_unique,
    sub_one_minus_y,
    sub_x_over_y,
)
from .ratfun import RatFun


class PolyFraction:
    """A quotient of rational-coefficient polynomials, used as a field element.

    Unlike `RatFun` there is no power-series constraint: the denominator may
    vanish at 0.  Every instance is in lowest terms, because Euclid over
    Q(x)[t] otherwise squares coefficient degrees at each step.  The
    denominator is not normalized: `reduced()` gives the canonical pair, and
    equality cross-multiplies.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly.constant(num)
        if den is None:
            den = Poly.one()
        elif not isinstance(den, Poly):
            den = Poly.constant(den)
        if den.is_zero():
            raise DivisionByZero("denominator is zero")
        if num.is_zero():
            den = Poly.one()
        elif den.degree == 0:
            num = num / den.constant_term
            den = Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def reduced(self) -> "PolyFraction":
        """Lowest terms with the denominator made monic."""
        lead = self.den.leading
        return PolyFraction(self.num / lead, self.den / lead)

    def __eq__(self, other) -> bool:
        other = _pf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        other = _pf(other)
        if other is NotImplemented:
            return NotImplemented
        return PolyFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        # -num/den is in lowest terms when num/den is, so no gcd is taken
        f = object.__new__(PolyFraction)
        f.num, f.den = -self.num, self.den
        return f

    def __sub__(self, other):
        other = _pf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _pf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _pf(other)
        if other is NotImplemented:
            return NotImplemented
        return PolyFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _pf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero")
        return PolyFraction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _pf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __repr__(self):
        return f"PolyFraction({self.num!r}, {self.den!r})"


def _pf(value):
    if isinstance(value, PolyFraction):
        return value
    if isinstance(value, (Poly, int, Fraction)):
        return PolyFraction(value)
    return NotImplemented


class TPoly(_DensePoly):
    """A polynomial in the auxiliary variable t with PolyFraction coefficients.

    Coefficients may be given as PolyFraction, Poly or scalar values.
    """

    __slots__ = ()
    _zero = PolyFraction(Poly())

    @staticmethod
    def _coeff(value) -> PolyFraction:
        p = _pf(value)
        if p is NotImplemented:
            raise InvalidInput(f"cannot use {value!r} as a coefficient")
        return p

    def __repr__(self):
        return f"TPoly({list(self.coeffs)!r})"


def tpoly_xgcd(a: TPoly, b: TPoly) -> Tuple[TPoly, TPoly, TPoly]:
    """Extended Euclid in t over the rational-function field.

    Returns (g, s, t) with s*a + t*b = g and g the monic gcd.
    """
    if a.is_zero() and b.is_zero():
        raise InvalidInput("gcd of two zero polynomials is undefined")
    r0, s0, t0 = a, TPoly([1]), TPoly()
    r1, s1, t1 = b, TPoly(), TPoly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = 1 / r0.coeffs[-1]
    return r0 * inv, s0 * inv, t0 * inv


def constant_term_split(num: TPoly, da: TPoly, db: TPoly) -> Tuple[TPoly, TPoly]:
    """Two-term partial fractions: num/(da*db) = ra/da + rb/db.

    Requires da, db coprime and deg num < deg da + deg db (so there is no
    polynomial part).  Returns (ra, rb) with deg ra < deg da and
    deg rb < deg db; both are unique.
    """
    if da.is_zero() or db.is_zero():
        raise InvalidInput("split factors must be nonzero")
    if num.degree >= da.degree + db.degree:
        raise InvalidInput("numerator is not proper relative to the denominator")
    g, s, t = tpoly_xgcd(da, db)
    if g.degree != 0:
        raise CoprimalityViolation("the two denominator factors share a root")
    # s*da + t*db = 1, so num/(da*db) = num*t/da + num*s/db; reducing each
    # term mod its denominator leaves quotients that must cancel exactly.
    qa, ra = divmod(num * t, da)
    qb, rb = divmod(num * s, db)
    if not (qa + qb).is_zero():
        raise InternalInvariantViolation("split quotients do not cancel")
    return ra, rb


def solve_bezout_system(da: TPoly, db: TPoly, target: TPoly) -> Tuple[TPoly, TPoly]:
    """Solve L*db + M*da = target with deg L < deg da, deg M < deg db.

    Matching coefficients of powers of t gives a square linear system whose
    matrix is the (transposed) Sylvester matrix of da and db, solved exactly
    over the rational-function field.  A singular matrix means da and db
    share a root.  The solution is the same split as `constant_term_split`:
    target/(da*db) = L/da + M/db.
    """
    na, nb = da.degree, db.degree
    if na < 0 or nb < 0:
        raise InvalidInput("split factors must be nonzero")
    if target.degree >= na + nb:
        raise InvalidInput("target is not proper relative to the denominator")
    rows = []
    rhs = []
    for k in range(na + nb):
        row = [db[k - i] for i in range(na)]
        row += [da[k - j] for j in range(nb)]
        rows.append(row)
        rhs.append(target[k])
    sol = solve_unique(rows, rhs, TPoly._zero)
    if sol is None:
        raise CoprimalityViolation("Sylvester system is singular; factors share a root")
    return TPoly(sol[:na]), TPoly(sol[na:])


# ---------------------------------------------------------------------------
# the two product engines


def hadamard_proper_core(a: RatFun, b: RatFun) -> RatFun:
    """A*B for proper nonzero operands, as the constant term in t of A(t)B(x/t).

    A(t)B(x/t) = N_A(t) * t^n N_B(x/t) / (D_A(t) * t^n D_B(x/t)); the first
    denominator factor has constant t-coefficient 1 and the second carries
    every root on a multiple of x, so the split of `constant_term_split`
    separates nonnegative from negative powers of t and the answer is the
    first piece at t = 0.
    """
    n = b.den.degree
    da = TPoly(a.den.coeffs)
    na = TPoly(a.num.coeffs)
    db = TPoly(sub_x_over_y(b.den, n).coeffs)
    nb = TPoly(sub_x_over_y(b.num, n).coeffs)
    return _constant_term(na * nb, da, db)


def _binomial_proper_core(a: RatFun, b: RatFun) -> RatFun:
    """A(.)B for proper nonzero operands via (1/(1-t)) A(x/(1-t)) B(x/t).

    Clearing denominators with (1-t)^m and t^n makes both factors polynomial
    in t: the numerator (1-t)^(m-1) N_A(x/(1-t)) stays polynomial because
    the 1/(1-t) prefactor eats one power.  At t = 0 the first denominator
    factor is D_A(x), nonzero, so the same split applies.
    """
    m, n = a.den.degree, b.den.degree
    da = TPoly(sub_one_minus_y(a.den, m).coeffs)
    na = TPoly(sub_one_minus_y(a.num, m - 1).coeffs)
    db = TPoly(sub_x_over_y(b.den, n).coeffs)
    nb = TPoly(sub_x_over_y(b.num, n).coeffs)
    return _constant_term(na * nb, da, db)


def _constant_term(num: TPoly, da: TPoly, db: TPoly) -> RatFun:
    ra, rb = constant_term_split(num, da, db)
    if rb.degree >= db.degree:
        raise InternalInvariantViolation("negative-power part is not proper")
    d0 = da[0]
    if not d0:
        raise InternalInvariantViolation("nonnegative-power part has a pole at t = 0")
    value = (ra[0] / d0).reduced()
    return RatFun._quotient(value.num, value.den)


def binomial_via_constant_term(a: RatFun, b: RatFun) -> RatFun:
    """The binomial product by constant-term extraction.

    Improper operands are split into polynomial plus proper parts, with the
    polynomial pieces handled by the differentiation formula for monomials.
    """
    if a.is_zero() or b.is_zero():
        return RatFun.zero()
    return binomial_from_proper_core(a, b, _binomial_proper_core)
