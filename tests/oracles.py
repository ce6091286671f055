"""Test oracles: the paper's closed forms, and power sums as `Series`.

No code in `binprod` calls these; the tests compare the product routes
with them.  `closed_form_bprod` and `closed_form_hprod` are the paper's
closed forms for products of two operands x^j/(1 - alpha x)^(k+1).
`power_sums` and `denominator_from_power_sums` wrap the symfun route's
integer kernels, `symfun._power_sums` and `symfun._newton`, in the
`Series` and `Poly` types of the paper's symmetric-function table.
"""

from fractions import Fraction
from math import comb

from binprod import InvalidInput, Poly, RatFun, Series
from binprod.polycore import _cleared, _fr
from binprod.symfun import _cleared_den, _newton, _power_sums


def closed_form_bprod(j: int, alpha, k: int, beta) -> RatFun:
    """x^j/(1-alpha x)^{j+1} (binomial) x^k/(1-beta x)^{k+1} in closed form.

    Equals C(j+k, j) x^{j+k} / (1 - (alpha+beta) x)^{j+k+1}.  These operands
    generate C(n,j) alpha^{n-j} and C(n,k) beta^{n-k}, and the binomial
    product stays in the same family.
    """
    if j < 0 or k < 0:
        raise InvalidInput("indices must be nonnegative")
    alpha, beta = _fr(alpha), _fr(beta)
    num = Poly.monomial(j + k, comb(j + k, j))
    den = Poly([1, -(alpha + beta)]) ** (j + k + 1)
    return RatFun(num, den)


def closed_form_hprod(i: int, a, m: int, j: int, b, n: int) -> RatFun:
    """x^i/(1-ax)^{m+1} (hadamard) x^j/(1-bx)^{n+1} in closed form.

    Requires i <= m+j and j <= n+i.  The result is

        sum_k C(m+j-i, k-i) C(n+i-j, k-j) a^{k-i} b^{k-j} x^k
        ------------------------------------------------------
                        (1 - a b x)^{m+n+1}

    where k runs from max(i,j) to min(n+i, m+j); the numerator is also the
    termwise product of x^i (1+ax)^{m+j-i} and x^j (1+bx)^{n+i-j}.
    """
    if i < 0 or j < 0 or m < 0 or n < 0:
        raise InvalidInput("indices must be nonnegative")
    if i > m + j or j > n + i:
        raise InvalidInput("need i <= m+j and j <= n+i for the closed form")
    a, b = _fr(a), _fr(b)
    coeffs = [Fraction(0)] * (min(n + i, m + j) + 1)
    for k in range(max(i, j), min(n + i, m + j) + 1):
        coeffs[k] = comb(m + j - i, k - i) * comb(n + i - j, k - j) * a ** (k - i) * b ** (k - j)
    den = Poly([1, -a * b]) ** (m + n + 1)
    return RatFun(Poly(coeffs), den)


def power_sums(den: Poly, upto: int) -> Series:
    """p_0..p_upto of the reciprocal roots of den, with p_0 = deg den.

    den must have constant term 1; p_1, p_2, ... are the coefficients of
    -x den'(x) / den(x).  They are the integer power sums of den(Lx), L the
    lcm of den's coefficient denominators, each divided by L^k.

    >>> power_sums(Poly([1, -1, -1]), 4).coeffs
    (Fraction(2, 1), Fraction(1, 1), Fraction(3, 1), Fraction(4, 1), Fraction(7, 1))
    """
    cleared = _cleared_den(den)
    scale = cleared[1]
    return Series(Fraction(p, scale**k) for k, p in enumerate(_power_sums(cleared, scale, upto)))


def denominator_from_power_sums(p: Series) -> Poly:
    """prod(1 - alpha_i x) from the power sums p_0, p_1, ... of the alpha_i.

    The alpha_i must be algebraic integers, so that every p_k and every
    coefficient d_k of the product is an integer.  Newton's identity gives
    d_1, ..., d_k for k = len(p) - 1 on integers, with an exact division by
    k at each step; the product is exact when k is at least the number of
    roots.

    Raises InvalidInput when a power sum is not an integer or a division by
    k leaves a remainder: the alpha_i are then not algebraic integers.

    >>> print(denominator_from_power_sums(Series([4, 2, 18, 56, 238])))
    1 - 2*x - 7*x^2 - 2*x^3 + x^4
    """
    ints, s = _cleared(p.coeffs)
    if s != 1:
        raise InvalidInput("power sums of algebraic integers must be integers")
    return Poly(_newton(ints))
