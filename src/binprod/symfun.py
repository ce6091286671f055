"""Denominators via power sums and Newton's identities.

For a denominator D = 1 + c_1 x + ... + c_m x^m = prod(1 - alpha_i x) the
power sums p_k = sum alpha_i^k of the reciprocal roots are the coefficients
of the series -x D'(x) / D(x), with p_0 = m.  `power_sums` computes them by
Newton's identity run forwards,

    p_k = -k c_k - sum_{i=1..k-1} c_i p_{k-i}    (c_k = 0 for k > m),

with no series expansion.  Power sums compose under both coefficientwise
products:

    p_k(alpha * beta)  = p_k(alpha) p_k(beta)                     (Hadamard)
    p_k(alpha + beta)  = sum_l C(k,l) p_l(alpha) p_{k-l}(beta)    (binomial)

where the products range over all pairs (alpha_i + beta_j resp.
alpha_i beta_j).  These are a termwise product and `ratfun._binomial_ints`,
the integer kernel of `series_binomial`.  Newton's identity

    k d_k = -sum_{i=1..k} p_i d_{k-i},   d_0 = 1

then gives the coefficients d_k of the product denominator without ever
computing a root (`denominator_from_power_sums`).  This is a second, fully
independent route to the product denominators computed by resultants in
`convolve`, and the default one.  For two proper operands over one
square-free denominator, `symmetric_square_via_symfun` gives the product
over unordered pairs only; the resultant route has no such shortcut.

The whole route runs on integers.  With L the lcm of the denominators of
D's coefficients, D(Lx) = prod(1 - L alpha_i x) has integer coefficients
and constant term 1, so the L alpha_i are algebraic integers: their power
sums, and every coefficient of their product, are integers, and each
division by k in Newton's identity is exact.  `denominator_via_symfun`
takes the power sums of D_u(Lx) and D_v(Lx) with L = lcm(L_u, L_v) for the
binomial product (sums of algebraic integers are algebraic integers), and
of D_u(L_u x) and D_v(L_v x) for the Hadamard product, whose pairwise
products are then scaled by L = L_u L_v.  Each operand denominator is
cleared once by `polycore._cleared`.  Newton's identities then give the
product denominator at Lx, and dividing its k-th coefficient by L^k, once,
makes one `Fraction` per coefficient of the product denominator.

The two product denominators are the "composed sum" and "composed product"
of the operand denominators, and computing them through power sums is the
method of Bostan, Flajolet, Salvy and Schost, "Fast computation of special
resultants", J. Symbolic Comput. 41 (2006), 1-29.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul

from .errors import InternalInvariantViolation, InvalidInput
from .polycore import Poly, _cleared
from .ratfun import Series, _binomial_ints


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


def _cleared_den(den: Poly) -> tuple[list, int]:
    """`_cleared(den.coeffs)` for a den with constant term 1; InvalidInput otherwise."""
    if den.is_zero() or den.constant_term != 1:
        raise InvalidInput("denominators must have constant term 1")
    return _cleared(den.coeffs)


def _power_sums(cleared: tuple[list, int], scale: int, upto: int) -> list[int]:
    """p_0..p_upto of the reciprocal roots of den(scale*x), as integers.

    ``cleared`` is `_cleared(den.coeffs)` for a den with constant term 1, and
    its lcm must divide scale, so that every c_k = den_k scale^k is an
    integer.  The forward Newton recurrence of the module docstring gives
    p_1, p_2, ... from the c_k.
    """
    ints, s = cleared
    m = len(ints) - 1
    # taps[m - i] = c_i, so the sum pairs the last j taps with p_{k-j}, ..., p_{k-1}
    taps = [ints[i] * (scale**i // s) for i in range(m, 0, -1)]
    p = [m]
    for k in range(1, upto + 1):
        j = min(k - 1, m)
        head = -k * taps[m - k] if k <= m else 0
        p.append(head - sum(map(mul, taps[m - j :], p[k - j :])))
    return p


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


def _newton(p: list[int]) -> list[int]:
    """d_0..d_k of prod(1 - alpha_i x) from the integer power sums p_0..p_k."""
    d = [1]
    for k in range(1, len(p)):
        q, r = divmod(-sum(map(mul, p[1 : k + 1], reversed(d))), k)
        if r:
            raise InvalidInput(f"Newton's identity is inexact at d_{k}: the roots are not algebraic integers")
        d.append(q)
    return d


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
    cu, cv = _cleared_den(uden), _cleared_den(vden)
    m, n = uden.degree, vden.degree
    if m == 0 or n == 0:
        return Poly.one()
    lu, lv = cu[1], cv[1]
    if kind == "binomial":
        lu = lv = scale = lcm(lu, lv)
    else:
        scale = lu * lv
    pu, pv = _power_sums(cu, lu, m * n), _power_sums(cv, lv, m * n)
    pp = _binomial_ints(pu, pv) if kind == "binomial" else list(map(mul, pu, pv))
    if pp[0] != m * n:
        raise InternalInvariantViolation("combined p_0 must be m*n")
    return _unscaled(_newton(pp), scale)


def symmetric_square_via_symfun(den: Poly, kind: str) -> Poly:
    """prod over i <= j of (1 - (alpha_i + alpha_j) x) or (1 - alpha_i alpha_j x).

    The symfun route's denominator for two operands over one square-free
    den of degree m.  The power sums of the N = m(m+1)/2 unordered pairs are

        (P_k + 2^k p_k) / 2    with P = _binomial_ints(p, p)   (sums)
        (p_k^2 + p_2k) / 2                                     (products)

    since the ordered pairs count each pair i < j twice and the diagonal
    once.  Newton's identities then run on D(Lx) as in
    `denominator_via_symfun`, with scale L for sums and L^2 for products.

    >>> print(symmetric_square_via_symfun(Poly([1, -1, -1]), "binomial"))
    1 - 3*x - 2*x^2 + 4*x^3
    """
    if kind not in ("binomial", "hadamard"):
        raise InvalidInput(f"unknown kind {kind!r}")
    cleared = _cleared_den(den)
    pairs = den.degree * (den.degree + 1) // 2
    scale = cleared[1]
    if kind == "binomial":
        p = _power_sums(cleared, scale, pairs)
        twice = list(map(add, _binomial_ints(p, p), (pk << k for k, pk in enumerate(p))))
    else:
        p = _power_sums(cleared, scale, 2 * pairs)
        twice = [p[k] ** 2 + p[2 * k] for k in range(pairs + 1)]
        scale *= scale
    if any(t & 1 for t in twice):
        raise InternalInvariantViolation("power sums over unordered pairs must be integers")
    return _unscaled(_newton([t >> 1 for t in twice]), scale)


def _unscaled(d: list[int], scale: int) -> Poly:
    """d(x/scale) for integer coefficients d: each d_k divided by scale^k, once."""
    return Poly._make([Fraction(c, scale**k) for k, c in enumerate(d)])
