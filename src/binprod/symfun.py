"""Denominators via power sums and Newton's identities.

For a denominator D = prod(1 - alpha_i x) the power sums p_k = sum alpha_i^k
of the reciprocal roots are the coefficients of the series -x D'(x) / D(x),
with p_0 = deg D, so `power_sums` reads them off one `RatFun.expand` call.
Power sums compose under both coefficientwise products:

    p_k(alpha * beta)  = p_k(alpha) p_k(beta)                     (Hadamard)
    p_k(alpha + beta)  = sum_l C(k,l) p_l(alpha) p_{k-l}(beta)    (binomial)

where the products range over all pairs (alpha_i + beta_j resp.
alpha_i beta_j).  These are `series_hadamard` and `series_binomial` applied
to the two power-sum series.  Newton's identity

    k d_k = -sum_{i=1..k} p_i d_{k-i},   d_0 = 1

then gives the coefficients d_k of the product denominator without ever
computing a root (`denominator_from_power_sums`).  This is a second, fully
independent route to the product denominators computed by resultants in
`convolve`.

The identities run on integers.  With L the lcm of the denominators of D's
coefficients, D(Lx) = prod(1 - L alpha_i x) has integer coefficients and
constant term 1, so the L alpha_i are algebraic integers: their power sums,
and every coefficient of their product, are integers, and each division by
k in Newton's identity is exact.  `denominator_via_symfun` takes the power
sums of D_u(Lx) and D_v(Lx) with L = lcm(L_u, L_v) for the binomial product
(sums of algebraic integers are algebraic integers), and of D_u(L_u x) and
D_v(L_v x) for the Hadamard product, whose pairwise products are then
scaled by L = L_u L_v.  Newton's identities then give the product
denominator at Lx, and dividing its k-th coefficient by L^k, once, gives
the product denominator.

The two product denominators are the "composed sum" and "composed product"
of the operand denominators, and computing them through power sums is the
method of Bostan, Flajolet, Salvy and Schost, "Fast computation of special
resultants", J. Symbolic Comput. 41 (2006), 1-29.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InternalInvariantViolation, InvalidInput
from .polycore import Poly
from .ratfun import RatFun, Series, series_binomial, series_hadamard


def power_sums(den: Poly, upto: int) -> Series:
    """p_0..p_upto of the reciprocal roots of den, with p_0 = deg den.

    den must have constant term 1; p_1, p_2, ... are the coefficients of
    -x den'(x) / den(x).

    >>> power_sums(Poly([1, -1, -1]), 4).coeffs
    (Fraction(2, 1), Fraction(1, 1), Fraction(3, 1), Fraction(4, 1), Fraction(7, 1))
    """
    if den.is_zero() or den.constant_term != 1:
        raise InvalidInput("denominator must have constant term 1")
    # expand needs only den(0) = 1, so the pair is not reduced
    tail = RatFun._canonical(-den.derivative().shift(1), den).expand(upto + 1).coeffs[1:]
    return Series((den.degree, *tail))


def denominator_from_power_sums(p: Series) -> Poly:
    """prod(1 - alpha_i x) from the power sums p_0, p_1, ... of the alpha_i.

    The alpha_i must be algebraic integers, so that every p_k and every
    coefficient d_k of the product is an integer.  Newton's identity gives
    d_1, ..., d_k for k = len(p) - 1 on integers, with an exact division by
    k at each step; the product is exact when k is at least the number of
    roots.

    Raises InvalidInput when a power sum is not an integer or a division by
    k leaves a remainder: the alpha_i are then not algebraic integers.

    >>> fib, pell = power_sums(Poly([1, -1, -1]), 4), power_sums(Poly([1, -2, -1]), 4)
    >>> print(denominator_from_power_sums(series_hadamard(fib, pell)))
    1 - 2*x - 7*x^2 - 2*x^3 + x^4
    """
    if any(c.denominator != 1 for c in p):
        raise InvalidInput("power sums of algebraic integers must be integers")
    ints = [c.numerator for c in p]
    d = [1]
    for k in range(1, len(ints)):
        q, r = divmod(-sum(map(mul, ints[1 : k + 1], reversed(d))), k)
        if r:
            raise InvalidInput(f"Newton's identity is inexact at d_{k}: the roots are not algebraic integers")
        d.append(q)
    return Poly(d)


def denominator_via_symfun(uden: Poly, vden: Poly, kind: str) -> Poly:
    """prod over all root pairs of (1 - (alpha_i + beta_j) x) or (1 - alpha_i beta_j x).

    kind is "binomial" for sums of roots, "hadamard" for products.  Power
    sums are carried up to m*n, which determines every elementary symmetric
    function of the m*n pairwise values.  Root-free throughout: only Newton's
    identities, on the power sums of the reciprocal roots scaled to
    algebraic integers, and exact integer arithmetic.
    """
    if kind not in ("binomial", "hadamard"):
        raise InvalidInput(f"unknown kind {kind!r}")
    for d in (uden, vden):
        if d.is_zero() or d.constant_term != 1:
            raise InvalidInput("denominators must have constant term 1")
    m, n = uden.degree, vden.degree
    if m == 0 or n == 0:
        return Poly.one()
    lu, lv = (lcm(*(c.denominator for c in d.coeffs)) for d in (uden, vden))
    if kind == "binomial":
        combine = series_binomial
        lu = lv = scale = lcm(lu, lv)
    else:
        combine, scale = series_hadamard, lu * lv
    pp = combine(power_sums(uden.scale_arg(lu), m * n), power_sums(vden.scale_arg(lv), m * n))
    if pp[0] != m * n:
        raise InternalInvariantViolation("combined p_0 must be m*n")
    d = denominator_from_power_sums(pp).coeffs
    return Poly._make([Fraction(c.numerator, scale**k) for k, c in enumerate(d)])
