"""Products by constant-term extraction in an auxiliary variable.

A Hadamard product is the constant term in t of A(t)B(x/t); a binomial
product is the constant term in t of (1/(1-t)) A(x/(1-t)) B(x/t).  Read as
polynomials in t over the rational functions of x, each of these is a
proper rational function of t whose denominator splits into two coprime
factors: one with "small" roots (constant in x, or tending to the roots of
A's denominator) and one whose roots all carry a factor of x.  The two-term
partial-fraction split separates the nonnegative and negative powers of t,
so the constant term is the first piece evaluated at t = 0.

Two rings carry the computation: Q[x], as `Poly`, and Q[x][t], as
`BiPoly` read with t for y.  The split never forms a fraction of two
polynomials in x.  `tpoly_xgcd` runs the subresultant pseudo-remainder
sequence (Collins, J. ACM 14, 1967; Brown and Traub, J. ACM 18, 1971) with
the cofactor of its second argument, so every division is an exact
division in Q[x] and the coefficients stay as small as the subresultants.
The answer is one quotient of two polynomials in x, reduced once by
`RatFun`.  Everything is exact.  No resultant or determinant is computed
here.

The split needs proper operands, so this is the one route that splits off
polynomial parts: `binomial_via_constant_term` and
`hadamard_via_constant_term` send only the proper parts through the split.
The other routes absorb improper operands into their degree bounds.
"""

from __future__ import annotations

from .convolve import poly_bprod
from .errors import CoprimalityViolation, InternalInvariantViolation, InvalidInput
from .polycore import BiPoly, Poly, lift_to_y, sub_one_minus_y, sub_x_over_y
from .ratfun import RatFun


def _div_coeffs(p: BiPoly, c: Poly) -> BiPoly:
    """p with every coefficient divided exactly by c in Q[x]."""
    return BiPoly._make([d.exact_div(c) for d in p.coeffs])


def tpoly_xgcd(a: BiPoly, b: BiPoly) -> tuple[BiPoly, BiPoly]:
    """The last nonzero remainder g of a and b, with its cofactor v of b.

    a and b are nonzero polynomials in t over Q[x].  Returns (g, v) with
    u*a + v*b = g for some u in Q[x][t]; g is a gcd of a and b over Q(x),
    so it has degree 0 in t exactly when they are coprime.

    The remainders r(i+1) = prem(r(i-1), r(i)) / beta(i) form the
    subresultant sequence, in which beta(i) divides exactly: with
    d(i) = deg r(i-1) - deg r(i) and gamma(i) the leading coefficient of
    r(i-1), beta(1) = (-1)^(d(1)+1), psi(1) = -1, and for i > 1

        psi(i)  = (-gamma(i))^d(i-1) / psi(i-1)^(d(i-1)-1),
        beta(i) = -gamma(i) * psi(i)^d(i).

    The cofactors of b follow the same recurrence and the same exact
    divisions.  When the remainders fall one degree at a time to a constant,
    g is the resultant of the argument of higher degree (a, on a tie) and
    the other one.
    """
    if a.is_zero() or b.is_zero():
        raise InvalidInput("the remainder sequence needs two nonzero polynomials")
    if a.degree >= b.degree:
        r0, r1, v0, v1 = a, b, BiPoly(), BiPoly([1])
    else:
        r0, r1, v0, v1 = b, a, BiPoly([1]), BiPoly()
    d = r0.degree - r1.degree
    beta = Poly([(-1) ** (d + 1)])
    psi = Poly([-1])
    while r1.degree > 0:
        q, r, e = r0.pseudo_divmod(r1)
        if r.is_zero():
            break
        v = v0 * r1.leading**e - q * v1
        r0, r1 = r1, _div_coeffs(r, beta)
        v0, v1 = v1, _div_coeffs(v, beta)
        gamma = -r0.leading
        if d:
            psi = gamma**d if d == 1 else (gamma**d).exact_div(psi ** (d - 1))
        d = r0.degree - r1.degree
        beta = gamma * psi**d
    return r1, v1


def constant_term_split(num: BiPoly, da: BiPoly, db: BiPoly) -> tuple[BiPoly, BiPoly, Poly]:
    """Two-term partial fractions over Q[x]: s*num/(da*db) = ra/da + rb/db.

    num, da and db are polynomials in t over Q[x], with da and db coprime
    and deg num < deg da + deg db (so there is no polynomial part).
    Returns (ra, rb, s) with s a nonzero polynomial in x, deg ra < deg da
    and deg rb < deg db.  With the cofactor v of `tpoly_xgcd`,
    v*db = g (mod da), so ra is the pseudo-remainder of num*v by da and
    s = lc(da)^e * g.  rb is the exact pseudo-quotient of s*num - ra*db by
    da, which proves that the two pieces add up to s*num/(da*db).
    """
    if da.is_zero() or db.is_zero():
        raise InvalidInput("split factors must be nonzero")
    if num.degree >= da.degree + db.degree:
        raise InvalidInput("numerator is not proper relative to the denominator")
    g, v = tpoly_xgcd(da, db)
    if g.degree != 0:
        raise CoprimalityViolation("the two denominator factors share a root")
    _, ra, e = (num * v).pseudo_divmod(da)
    s = da.leading**e * g[0]
    rb, rest, f = (num * s - ra * db).pseudo_divmod(da)
    if rest:
        raise InternalInvariantViolation("the split does not add up to the product")
    if f:
        lift = da.leading**f
        ra, s = ra * lift, s * lift
    return ra, rb, s


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
    na, da = lift_to_y(a.num), lift_to_y(a.den)
    return _constant_term(na * sub_x_over_y(b.num, n), da, sub_x_over_y(b.den, n))


def _binomial_proper_core(a: RatFun, b: RatFun) -> RatFun:
    """A(.)B for proper nonzero operands via (1/(1-t)) A(x/(1-t)) B(x/t).

    Clearing denominators with (1-t)^m and t^n makes both factors polynomial
    in t: the numerator (1-t)^(m-1) N_A(x/(1-t)) stays polynomial because
    the 1/(1-t) prefactor eats one power.  At t = 0 the first denominator
    factor is D_A(x), nonzero, so the same split applies.
    """
    m, n = a.den.degree, b.den.degree
    da = sub_one_minus_y(a.den, m)
    na = sub_one_minus_y(a.num, m - 1)
    return _constant_term(na * sub_x_over_y(b.num, n), da, sub_x_over_y(b.den, n))


def _constant_term(num: BiPoly, da: BiPoly, db: BiPoly) -> RatFun:
    ra, rb, s = constant_term_split(num, da, db)
    if rb.degree >= db.degree:
        raise InternalInvariantViolation("negative-power part is not proper")
    d0 = da[0]
    if not d0:
        raise InternalInvariantViolation("nonnegative-power part has a pole at t = 0")
    return RatFun._quotient(ra[0], s * d0)


def binomial_via_constant_term(a: RatFun, b: RatFun) -> RatFun:
    """The binomial product by constant-term extraction.

    With a = pa + fa and b = pb + fb (pa, pb polynomials, fa, fb proper),
    a (binomial) b = pa (binomial) b + pb (binomial) fa + core(fa, fb), and a
    polynomial times anything reduces to monomials through `poly_bprod`.
    """
    pa, fa = a.proper_split()
    pb, fb = b.proper_split()
    total = _binomial_proper_core(fa, fb) if fa and fb else RatFun.zero()
    for p, f in ((pa, b), (pb, fa)):
        if f:
            for m, c in enumerate(p.coeffs):
                if c:
                    total = total + c * poly_bprod(m, f)
    return total


def hadamard_via_constant_term(a: RatFun, b: RatFun) -> RatFun:
    """The Hadamard product by constant-term extraction.

    Only the proper parts fa, fb go through `hadamard_proper_core`.  Past
    the largest polynomial-part degree P, a_n b_n is the core's coefficient,
    so one correction polynomial of degree at most P, with coefficients
    a_n b_n - core_n, completes the product.
    """
    pa, fa = a.proper_split()
    pb, fb = b.proper_split()
    core = hadamard_proper_core(fa, fb) if fa and fb else RatFun.zero()
    order = max(pa.degree, pb.degree) + 1
    if order <= 0:
        return core
    sa, sb, sc = a.expand(order), b.expand(order), core.expand(order)
    return core + Poly([sa[n] * sb[n] - sc[n] for n in range(order)])
