"""Denominators via symmetric functions and Newton's identities.

For a denominator U = prod(1 - alpha_i x) the coefficient of x^k is
(-1)^k e_k(alpha), so elementary symmetric functions of the reciprocal roots
can be read off directly.  Newton's identity

    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i

converts between the e_k and the power sums p_k = sum alpha_i^k in either
direction without ever computing a root.  Power sums compose nicely under
both coefficientwise products:

    p_k(alpha * beta)  = p_k(alpha) p_k(beta)            (Hadamard)
    p_k(alpha + beta)  = sum_l C(k,l) p_l(alpha) p_{k-l}(beta)   (binomial)

where the products range over all pairs (alpha_i + beta_j resp.
alpha_i beta_j).  This gives a second, fully independent route to the
product denominators computed by resultants in `convolve`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Sequence

from .errors import InternalInvariantViolation, InvalidInput
from .polycore import Poly, _fr


class PowerSums:
    """Power sums p_0, p_1, ..., with p_0 stored explicitly.

    p_0 is the number of roots counted with multiplicity.  Keeping it as an
    ordinary entry (rather than special-casing k = 0) makes the binomial
    composition rule uniform.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence):
        vals = tuple(_fr(v) for v in values)
        if not vals:
            raise InvalidInput("power sums need at least p_0")
        self.values = vals

    @property
    def p0(self) -> Fraction:
        return self.values[0]

    @property
    def upto(self) -> int:
        """Largest k for which p_k is stored."""
        return len(self.values) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSums):
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        return f"PowerSums({[str(v) for v in self.values]})"


def elementary_to_power(e: Sequence, upto: int) -> PowerSums:
    """Power sums p_0..p_upto from elementary symmetric functions e_0..e_m.

    The list e is implicitly extended with zeros; e_0 must be 1.  p_0 is
    taken to be m = len(e) - 1, the number of roots.
    """
    es = [_fr(v) for v in e]
    if not es or es[0] != 1:
        raise InvalidInput("elementary symmetric functions must start with e_0 = 1")
    if upto < 0:
        raise InvalidInput("upto must be nonnegative")
    m = len(es) - 1

    def e_at(k: int) -> Fraction:
        return es[k] if k < len(es) else Fraction(0)

    p: List[Fraction] = [Fraction(m)]
    for k in range(1, upto + 1):
        # k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i, solved for p_k
        acc = Fraction(k) * e_at(k)
        for i in range(1, k):
            sign = 1 if (i - 1) % 2 == 0 else -1
            acc -= sign * e_at(k - i) * p[i]
        sign_k = 1 if (k - 1) % 2 == 0 else -1
        p.append(sign_k * acc)
    return PowerSums(p)


def power_to_elementary(p: PowerSums, upto: int) -> List[Fraction]:
    """Elementary symmetric functions e_0..e_upto from power sums.

    When p comes from a genuine multiset of p_0 roots, e_k vanishes for
    k > p_0; callers that know p_0 can assert this.
    """
    if upto < 0:
        raise InvalidInput("upto must be nonnegative")
    if p.upto < upto:
        raise InvalidInput(f"need power sums up to {upto}, have {p.upto}")
    e: List[Fraction] = [Fraction(1)]
    for k in range(1, upto + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            sign = 1 if (i - 1) % 2 == 0 else -1
            acc += sign * e[k - i] * p[i]
        e.append(acc / k)
    return e


def powersum_hadamard(pa: PowerSums, pb: PowerSums, upto: int) -> PowerSums:
    """Power sums of the multiset {alpha_i * beta_j}: p_k = p_k(a) p_k(b)."""
    if pa.upto < upto or pb.upto < upto:
        raise InvalidInput("insufficient power sums for the requested order")
    return PowerSums([pa[k] * pb[k] for k in range(upto + 1)])


def powersum_binomial(pa: PowerSums, pb: PowerSums, upto: int) -> PowerSums:
    """Power sums of {alpha_i + beta_j}: binomial convolution of the inputs."""
    if pa.upto < upto or pb.upto < upto:
        raise InvalidInput("insufficient power sums for the requested order")
    out = []
    for k in range(upto + 1):
        acc = Fraction(0)
        for l in range(k + 1):
            acc += comb(k, l) * pa[l] * pb[k - l]
        out.append(acc)
    return PowerSums(out)


def elementary_from_denominator(den: Poly) -> List[Fraction]:
    """e_k(alpha) for den = prod(1 - alpha_i x): e_k = (-1)^k [x^k] den."""
    if den.is_zero() or den.constant_term != 1:
        raise InvalidInput("denominator must have constant term 1")
    return [c if k % 2 == 0 else -c for k, c in enumerate(den.coeffs)]


def denominator_from_elementary(e: Sequence) -> Poly:
    """prod(1 - alpha_i x) from e_k(alpha): [x^k] = (-1)^k e_k."""
    return Poly([c if k % 2 == 0 else -c for k, c in enumerate(e)])


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
    upto = m * n
    pa = elementary_to_power(elementary_from_denominator(uden), upto)
    pb = elementary_to_power(elementary_from_denominator(vden), upto)
    combine = powersum_binomial if kind == "binomial" else powersum_hadamard
    pp = combine(pa, pb, upto)
    if pp.p0 != m * n:
        raise InternalInvariantViolation("combined p_0 must be m*n")
    e = power_to_elementary(pp, upto)
    return denominator_from_elementary(e)
