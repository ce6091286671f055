"""Products by constant-term extraction in an auxiliary variable.

A Hadamard product is the constant term in t of A(t)B(x/t); a binomial
product is the constant term in t of (1/(1-t)) A(x/(1-t)) B(x/t).  Working
in the field of rational functions of x, each of these is a proper rational
function of t whose denominator splits into two coprime factors: one with
"small" roots (constant in x, or tending to the roots of A's denominator)
and one whose roots all carry a factor of x.  The two-term partial-fraction
split separates the nonnegative and negative powers of t, so the constant
term is the first piece evaluated at t = 0.

The split is computed with the extended Euclidean algorithm on polynomials
in t over the rational-function field (`PolyFraction` coefficients), or
alternatively by solving the Sylvester-structured linear system
(`solve_bezout_system`).  Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .convolve import binomial_from_proper_core, hadamard_from_proper_core
from .errors import (
    CoprimalityViolation,
    DivisionByZero,
    InternalInvariantViolation,
    InvalidInput,
)
from .polycore import Poly, lift_to_y, poly_gcd, solve_unique, sub_one_minus_y, sub_x_over_y
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

    @staticmethod
    def zero() -> "PolyFraction":
        return PolyFraction(Poly.zero())

    @staticmethod
    def one() -> "PolyFraction":
        return PolyFraction(Poly.one())

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

    def __hash__(self):
        r = self.reduced()
        return hash((r.num, r.den))

    def __add__(self, other):
        other = _pf(other)
        if other is NotImplemented:
            return NotImplemented
        return PolyFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return PolyFraction(-self.num, self.den)

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
        return PolyFraction(value if isinstance(value, Poly) else Poly.constant(value))
    return NotImplemented


class TPoly:
    """A polynomial in the auxiliary variable t with PolyFraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        vals = []
        for c in coeffs:
            p = _pf(c)
            if p is NotImplemented:
                raise InvalidInput(f"cannot use {c!r} as a coefficient")
            vals.append(p)
        while vals and not vals[-1]:
            vals.pop()
        self.coeffs = tuple(vals)

    @staticmethod
    def zero() -> "TPoly":
        return TPoly()

    @staticmethod
    def one() -> "TPoly":
        return TPoly([PolyFraction.one()])

    @staticmethod
    def from_bipoly(bp) -> "TPoly":
        """Adopt a BiPoly's y-coefficients as coefficients of powers of t."""
        return TPoly([PolyFraction(p) for p in bp.ycoeffs])

    @property
    def degree(self) -> int:
        """Degree in t, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> PolyFraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return PolyFraction.zero()

    def constant_coeff(self) -> PolyFraction:
        """The value at t = 0."""
        return self[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(tuple(c.reduced().num for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly([self[k] + other[k] for k in range(n)])

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TPoly):
            if self.is_zero() or other.is_zero():
                return TPoly.zero()
            out = [PolyFraction.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return TPoly(out)
        scalar = _pf(other)
        if scalar is NotImplemented:
            return NotImplemented
        return TPoly([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def __divmod__(self, other) -> Tuple["TPoly", "TPoly"]:
        if not isinstance(other, TPoly):
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        lead = other.coeffs[-1]
        d = other.degree
        quot = [PolyFraction.zero()] * max(self.degree - d + 1, 0)
        rem = list(self.coeffs)
        while len(rem) - 1 >= d:
            factor = rem[-1] / lead
            shift = len(rem) - 1 - d
            quot[shift] = factor
            for i in range(d):
                rem[shift + i] = rem[shift + i] - factor * other.coeffs[i]
            rem.pop()
            while rem and not rem[-1]:
                rem.pop()
        return TPoly(quot), TPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "TPoly":
        if self.is_zero():
            raise InvalidInput("the zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return TPoly([c / lead for c in self.coeffs])

    def __repr__(self):
        return f"TPoly({list(self.coeffs)!r})"


def tpoly_xgcd(a: TPoly, b: TPoly) -> Tuple[TPoly, TPoly, TPoly]:
    """Extended Euclid in t over the rational-function field.

    Returns (g, s, t) with s*a + t*b = g and g the monic gcd.
    """
    if a.is_zero() and b.is_zero():
        raise InvalidInput("gcd of two zero polynomials is undefined")
    r0, s0, t0 = a, TPoly.one(), TPoly.zero()
    r1, s1, t1 = b, TPoly.zero(), TPoly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = PolyFraction.one() / r0.coeffs[-1]
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
    sol = solve_unique(rows, rhs, PolyFraction.zero())
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
    da = TPoly.from_bipoly(lift_to_y(a.den))
    na = TPoly.from_bipoly(lift_to_y(a.num))
    db = TPoly.from_bipoly(sub_x_over_y(b.den, n))
    nb = TPoly.from_bipoly(sub_x_over_y(b.num, n))
    return _constant_term(na * nb, da, db)


def _binomial_proper_core(a: RatFun, b: RatFun) -> RatFun:
    """A(.)B for proper nonzero operands via (1/(1-t)) A(x/(1-t)) B(x/t).

    Clearing denominators with (1-t)^m and t^n makes both factors polynomial
    in t: the numerator (1-t)^(m-1) N_A(x/(1-t)) stays polynomial because
    the 1/(1-t) prefactor eats one power.  At t = 0 the first denominator
    factor is D_A(x), nonzero, so the same split applies.
    """
    m, n = a.den.degree, b.den.degree
    da = TPoly.from_bipoly(sub_one_minus_y(a.den, m))
    na = TPoly.from_bipoly(sub_one_minus_y(a.num, m - 1))
    db = TPoly.from_bipoly(sub_x_over_y(b.den, n))
    nb = TPoly.from_bipoly(sub_x_over_y(b.num, n))
    return _constant_term(na * nb, da, db)


def _constant_term(num: TPoly, da: TPoly, db: TPoly) -> RatFun:
    ra, rb = constant_term_split(num, da, db)
    if rb.degree >= db.degree:
        raise InternalInvariantViolation("negative-power part is not proper")
    d0 = da.constant_coeff()
    if not d0:
        raise InternalInvariantViolation("nonnegative-power part has a pole at t = 0")
    value = (ra.constant_coeff() / d0).reduced()
    return RatFun._quotient(value.num, value.den)


def hadamard_via_constant_term(a: RatFun, b: RatFun) -> RatFun:
    """The Hadamard product by constant-term extraction.

    Improper operands are split into polynomial plus proper parts first; the
    theorem behind the split assumes proper operands.
    """
    if a.is_zero() or b.is_zero():
        return RatFun.zero()
    return hadamard_from_proper_core(a, b, hadamard_proper_core)


def binomial_via_constant_term(a: RatFun, b: RatFun) -> RatFun:
    """The binomial product by constant-term extraction.

    Improper operands are split into polynomial plus proper parts, with the
    polynomial pieces handled by the differentiation formula for monomials.
    """
    if a.is_zero() or b.is_zero():
        return RatFun.zero()
    return binomial_from_proper_core(a, b, _binomial_proper_core)
