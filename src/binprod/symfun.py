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

The two product denominators are the "composed sum" and "composed product"
of the operand denominators, and computing them through power sums is the
method of Bostan, Flajolet, Salvy and Schost, "Fast computation of special
resultants", J. Symbolic Comput. 41 (2006), 1-29.
"""

from __future__ import annotations

from fractions import Fraction

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

    Newton's identity gives d_1, ..., d_k for k = len(p) - 1; the product is
    exact when k is at least the number of roots.

    >>> fib, pell = power_sums(Poly([1, -1, -1]), 4), power_sums(Poly([1, -2, -1]), 4)
    >>> print(denominator_from_power_sums(series_hadamard(fib, pell)))
    1 - 2*x - 7*x^2 - 2*x^3 + x^4
    """
    d = [Fraction(1)]
    for k in range(1, len(p)):
        d.append(-sum(p[i] * d[k - i] for i in range(1, k + 1)) / k)
    return Poly(d)


def denominator_via_symfun(uden: Poly, vden: Poly, kind: str) -> Poly:
    """prod over all root pairs of (1 - (alpha_i + beta_j) x) or (1 - alpha_i beta_j x).

    kind is "binomial" for sums of roots, "hadamard" for products.  Power
    sums are carried up to m*n, which determines every elementary symmetric
    function of the m*n pairwise values.  Root-free throughout: only Newton's
    identities and exact rational arithmetic.
    """
    if kind not in ("binomial", "hadamard"):
        raise InvalidInput(f"unknown kind {kind!r}")
    for d in (uden, vden):
        if d.is_zero() or d.constant_term != 1:
            raise InvalidInput("denominators must have constant term 1")
    m, n = uden.degree, vden.degree
    if m == 0 or n == 0:
        return Poly.one()
    combine = series_binomial if kind == "binomial" else series_hadamard
    pp = combine(power_sums(uden, m * n), power_sums(vden, m * n))
    if pp[0] != m * n:
        raise InternalInvariantViolation("combined p_0 must be m*n")
    return denominator_from_power_sums(pp)
