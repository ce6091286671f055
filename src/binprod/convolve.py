"""Binomial and Hadamard products of rational power series.

Given A(x) = sum a_n x^n and B(x) = sum b_n x^n, both rational, this module
computes the rational generating functions of

    c_n = sum_k C(n,k) a_k b_{n-k}      (binomial product, `binomial_product`)
    c_n = a_n b_n                       (Hadamard product, `hadamard_product`)

by several independent methods:

* "resultant"    the product denominator prod(1 - (alpha_i + beta_j) x) or
                 prod(1 - alpha_i beta_j x) as a single resultant, then the
                 numerator from a truncated series product;
* "symfun"       the same pipeline with the denominator from Newton's
                 identities (`symfun.denominator_via_symfun`);
* "pfrac"        constant-term extraction in an auxiliary variable
                 (`pfrac` module);
* "reconstruct"  expand far enough and fit a rational function with exact
                 linear algebra (`ratfun.reconstruct_rational`).

The methods share no denominator logic, so agreement between them is a real
cross-check; `--cross-check` on the command line and several tests rely on
that.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Tuple

from . import symfun
from .errors import (
    DecompositionUnavailable,
    InternalInvariantViolation,
    InvalidInput,
)
from .polycore import (
    Poly,
    lift_to_y,
    poly_gcd,
    resultant,
    solve_exact,
    sub_one_minus_y,
    sub_x_over_y,
    _fr,
)
from .ratfun import RatFun, Series

METHODS = ("resultant", "symfun", "pfrac", "reconstruct")


# ---------------------------------------------------------------------------
# series-level products (also the engine's numerator-recovery kernel)


def binomial_coefficients(rows: int):
    """Pascal's triangle with ``rows`` rows, as exact integers."""
    out = [[1]]
    for n in range(1, rows):
        prev = out[-1]
        out.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return out


def series_binomial(a: Series, b: Series) -> Series:
    """Termwise binomial convolution c_n = sum_k C(n,k) a_k b_{n-k}."""
    order = min(a.order, b.order)
    binom = binomial_coefficients(order)
    out = []
    for n in range(order):
        row = binom[n]
        out.append(sum((row[k] * a.coeffs[k] * b.coeffs[n - k] for k in range(n + 1)), Fraction(0)))
    return Series(out)


def series_hadamard(a: Series, b: Series) -> Series:
    """Termwise product c_n = a_n b_n."""
    order = min(a.order, b.order)
    return Series([a.coeffs[n] * b.coeffs[n] for n in range(order)])


# ---------------------------------------------------------------------------
# denominators by resultants


def binomial_denominator(uden: Poly, vden: Poly) -> Poly:
    """prod over all pairs of (1 - (alpha_i + beta_j) x), as one resultant.

    uden = prod(1 - alpha_i x), vden = prod(1 - beta_j x), with m = deg(uden)
    and n = deg(vden).  The product equals

        (-1)^(m n) Res_y( (1-y)^m uden(x/(1-y)), y^n vden(x/y) )

    because the first argument is prod((1 - alpha_i x) - y) and the second is
    prod(y - beta_j x).  Pairs with alpha_i + beta_j = 0 contribute a factor
    1, so the degree can fall below m*n.
    """
    _check_denominator(uden)
    _check_denominator(vden)
    m, n = uden.degree, vden.degree
    if m == 0 or n == 0:
        return Poly.one()
    r = resultant(sub_one_minus_y(uden), sub_x_over_y(vden))
    if (m * n) % 2:
        r = -r
    if r.constant_term != 1:
        raise InternalInvariantViolation("binomial denominator must have constant term 1")
    return r


def hadamard_denominator(uden: Poly, vden: Poly) -> Poly:
    """prod over all pairs of (1 - alpha_i beta_j x), as one resultant.

    Equals (-1)^(m n) Res_y( uden(y), y^n vden(x/y) ).  All reciprocal roots
    are nonzero, so the result has degree exactly m*n.
    """
    _check_denominator(uden)
    _check_denominator(vden)
    m, n = uden.degree, vden.degree
    if m == 0 or n == 0:
        return Poly.one()
    r = resultant(lift_to_y(uden), sub_x_over_y(vden))
    if (m * n) % 2:
        r = -r
    if r.constant_term != 1 or r.degree != m * n:
        raise InternalInvariantViolation("hadamard denominator must be monic-at-0 of degree m*n")
    return r


def _check_denominator(den: Poly) -> None:
    if den.is_zero() or den.constant_term != 1:
        raise InvalidInput("denominators must have constant term 1")


# ---------------------------------------------------------------------------
# the main pipeline: denominator bound + numerator recovery


@dataclass(frozen=True)
class ProductPlan:
    """A denominator bound and numerator degree bound for one product.

    The true product is T / den_bound for some polynomial T with
    deg(T) <= num_deg_bound; reduction to lowest terms happens afterwards.
    """

    method: str
    den_bound: Poly
    num_deg_bound: int


def _cross_denominator(method: str, kind: str) -> Callable[[Poly, Poly], Poly]:
    if method == "resultant":
        return binomial_denominator if kind == "binomial" else hadamard_denominator
    if method == "symfun":
        return lambda u, v: symfun.denominator_via_symfun(u, v, kind)
    raise InvalidInput(f"no direct denominator computation for method {method!r}")


def plan_binomial(a: RatFun, b: RatFun, method: str = "resultant") -> ProductPlan:
    """Denominator and numerator-degree bounds for a binomial product.

    With m = deg(a.den), n = deg(b.den), u = max(deg(a.num)+1-m, 0) and
    v = max(deg(b.num)+1-n, 0), the product is T(x) over

        a.den^v * b.den^u * prod(1 - (alpha_i + beta_j) x)

    with deg(T) < (u+m)(v+n).  The u, v exponents absorb improper inputs, so
    no polynomial split is needed on this path.
    """
    if a.is_zero() or b.is_zero():
        raise InvalidInput("plans are for nonzero operands")
    m, n = a.den.degree, b.den.degree
    u = max(a.num.degree + 1 - m, 0)
    v = max(b.num.degree + 1 - n, 0)
    cross = _cross_denominator(method, "binomial")
    den = a.den**v * b.den**u * cross(a.den, b.den)
    return ProductPlan(method, den, (u + m) * (v + n) - 1)


def plan_hadamard(a: RatFun, b: RatFun, method: str = "resultant") -> ProductPlan:
    """Denominator and numerator bounds for a Hadamard product of proper inputs."""
    if a.is_zero() or b.is_zero():
        raise InvalidInput("plans are for nonzero operands")
    if not (a.is_proper() and b.is_proper()):
        raise InvalidInput("hadamard plans require proper operands")
    m, n = a.den.degree, b.den.degree
    cross = _cross_denominator(method, "hadamard")
    return ProductPlan(method, cross(a.den, b.den), m * n - 1)


def _recover_from_plan(a: RatFun, b: RatFun, plan: ProductPlan, kind: str) -> RatFun:
    """Numerator by truncated multiplication against the denominator bound.

    Expands past the numerator bound by deg(den)+2 extra coefficients; every
    extra coefficient of (series * den) beyond the bound must vanish, which
    is asserted.  A nonvanishing tail means the denominator bound was wrong,
    an internal bug.
    """
    order = plan.den_bound.degree + plan.num_deg_bound + 3
    combine = series_binomial if kind == "binomial" else series_hadamard
    s = combine(a.expand(order), b.expand(order)).coeffs
    den = plan.den_bound
    prod = [
        sum((den[j] * s[n - j] for j in range(min(n, den.degree) + 1)), Fraction(0))
        for n in range(order)
    ]
    if any(prod[plan.num_deg_bound + 1 :]):
        raise InternalInvariantViolation(
            f"{kind} numerator tail does not vanish; denominator bound is wrong"
        )
    return RatFun(Poly(prod[: plan.num_deg_bound + 1]), den)


# ---------------------------------------------------------------------------
# reconstruction method


def _binomial_reconstruct(a: RatFun, b: RatFun) -> RatFun:
    from .ratfun import reconstruct_rational

    m, n = a.den.degree, b.den.degree
    u = max(a.num.degree + 1 - m, 0)
    v = max(b.num.degree + 1 - n, 0)
    den_deg = m * v + n * u + m * n
    num_deg = (u + m) * (v + n) - 1
    order = den_deg + num_deg + 3
    s = series_binomial(a.expand(order), b.expand(order))
    return reconstruct_rational(s, den_deg, num_deg)


def _hadamard_reconstruct(a: RatFun, b: RatFun) -> RatFun:
    from .ratfun import reconstruct_rational

    pa, fa = a.proper_split()
    pb, fb = b.proper_split()
    den_deg = fa.den.degree * fb.den.degree if (fa and fb) else 0
    poly_deg = max(pa.degree, pb.degree)
    num_deg = max(poly_deg + den_deg, den_deg - 1)
    if num_deg < 0:
        return RatFun.zero()
    order = den_deg + num_deg + 3
    s = series_hadamard(a.expand(order), b.expand(order))
    return reconstruct_rational(s, den_deg, num_deg)


# ---------------------------------------------------------------------------
# public products


def binomial_product(a: RatFun, b: RatFun, method: str = "resultant") -> RatFun:
    """The generating function of c_n = sum_k C(n,k) a_k b_{n-k}.

    Improper operands are fine: the resultant and symfun paths absorb them
    through the u, v exponents of `plan_binomial`; the pfrac path splits off
    the polynomial parts first; reconstruction just needs degree bounds.
    """
    _check_method(method)
    if a.is_zero() or b.is_zero():
        return RatFun.zero()
    if method == "pfrac":
        from . import pfrac

        return pfrac.binomial_via_constant_term(a, b)
    if method == "reconstruct":
        return _binomial_reconstruct(a, b)
    return _recover_from_plan(a, b, plan_binomial(a, b, method), "binomial")


def hadamard_product(a: RatFun, b: RatFun, method: str = "resultant") -> RatFun:
    """The generating function of c_n = a_n b_n.

    The denominator theorems are stated for proper operands, so polynomial
    parts are split off and handled by direct truncated termwise products;
    only the proper x proper core goes through the requested method.
    """
    _check_method(method)
    if a.is_zero() or b.is_zero():
        return RatFun.zero()
    if method == "reconstruct":
        return _hadamard_reconstruct(a, b)
    if method == "pfrac":
        from . import pfrac

        core = pfrac.hadamard_proper_core
    else:
        def core(fa: RatFun, fb: RatFun) -> RatFun:
            return _recover_from_plan(fa, fb, plan_hadamard(fa, fb, method), "hadamard")

    return hadamard_from_proper_core(a, b, core)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise InvalidInput(f"method must be one of {METHODS}, got {method!r}")


def hadamard_from_proper_core(a: RatFun, b: RatFun, core) -> RatFun:
    """Split off polynomial parts, then delegate proper x proper to ``core``.

    With a = pa + fa and b = pb + fb (fa, fb proper):

        a * b = pa*pb + pa*fb + fa*pb + fa*fb     (termwise products)

    and the first three pieces are polynomials computable from finitely many
    coefficients.
    """
    pa, fa = a.proper_split()
    pb, fb = b.proper_split()
    total = RatFun.from_poly(_poly_hadamard_poly(pa, pb))
    if not pa.is_zero() and fb:
        total = total + RatFun.from_poly(_poly_hadamard_fun(pa, fb))
    if not pb.is_zero() and fa:
        total = total + RatFun.from_poly(_poly_hadamard_fun(pb, fa))
    if fa and fb:
        total = total + core(fa, fb)
    return total


def _poly_hadamard_poly(p: Poly, q: Poly) -> Poly:
    length = min(len(p.coeffs), len(q.coeffs))
    return Poly([p.coeffs[i] * q.coeffs[i] for i in range(length)])


def _poly_hadamard_fun(p: Poly, f: RatFun) -> Poly:
    if p.is_zero():
        return Poly()
    s = f.expand(p.degree + 1)
    return Poly([c * s.coeffs[i] for i, c in enumerate(p.coeffs)])


def binomial_from_proper_core(a: RatFun, b: RatFun, core) -> RatFun:
    """Split off polynomial parts, then delegate proper x proper to ``core``.

    Polynomial operands reduce to monomial products through `poly_bprod`, so
    a core that only knows how to combine proper series extends to all
    rational power series: a (binomial) b = pa (binomial) b
    + pb (binomial) fa + core(fa, fb).
    """
    pa, fa = a.proper_split()
    pb, fb = b.proper_split()
    total = RatFun.zero()
    if not pa.is_zero():
        total = total + _poly_binomial_expand(pa, b)
    if not pb.is_zero() and fa:
        total = total + _poly_binomial_expand(pb, fa)
    if fa and fb:
        total = total + core(fa, fb)
    return total


def _poly_binomial_expand(p: Poly, f: RatFun) -> RatFun:
    """p(x) (binomial) f, expanded through poly_bprod one monomial at a time."""
    total = RatFun.zero()
    for m, c in enumerate(p.coeffs):
        if c:
            total = total + c * poly_bprod(m, f)
    return total


# ---------------------------------------------------------------------------
# closed forms


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


def poly_bprod(m: int, a: RatFun) -> RatFun:
    """x^m (binomial) A(x) = (x^m / m!) * d^m/dx^m ( x^m A(x) ).

    The binomial product with a monomial is a pure differentiation formula;
    together with linearity this reduces polynomial (binomial) rational to
    rational-function calculus.
    """
    if m < 0:
        raise InvalidInput("monomial degree must be nonnegative")
    g = RatFun(a.num.shift(m), a.den)
    for _ in range(m):
        g = g.derivative()
    factorial = 1
    for i in range(2, m + 1):
        factorial *= i
    return RatFun(g.num.shift(m), g.den) / factorial


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


# ---------------------------------------------------------------------------
# shared-cubic-denominator decomposition


def komatsu_decompose(r: RatFun, s: RatFun) -> Tuple[Poly, Poly]:
    """Split r (binomial) s for proper r, s sharing a cubic denominator.

    With D = 1 + A x + B x^2 + C x^3 (C != 0) the product decomposes as

        r (binomial) s = u(x)/D(2x) + (1/(1+Ax)) (binomial) (v(x)/D(-x))

    for unique polynomials u, v of degree at most 2, provided no root
    relation 2 alpha_i = alpha_j + alpha_k holds among the reciprocal roots
    of D.  (The sign in the 1/(1+Ax) factor matters: alpha_j + alpha_k =
    -A - alpha_i, and the binomial product with 1/(1+Ax) shifts reciprocal
    roots by -A, carrying the roots of D(-x) onto those sums.)

    The root condition is tested without root-finding: D(2x) has reciprocal
    roots 2 alpha_i while

        D2(x) = (1+Ax)^3 - A x (1+Ax)^2 + B x^2 (1+Ax) - C x^3

    has reciprocal roots alpha_j + alpha_k (j < k), so the decomposition
    applies exactly when gcd(D(2x), D2) = 1 (this also rules out repeated
    roots).  u and v are found by exact linear algebra on series
    coefficients and the decomposition is verified exactly before returning.
    """
    den = r.den
    if s.den != den:
        raise InvalidInput("operands must share a denominator")
    if den.degree != 3:
        raise InvalidInput("shared denominator must be cubic")
    if not (r.is_proper() and s.is_proper()):
        raise InvalidInput("operands must be proper")
    a_, b_, c_ = den[1], den[2], den[3]
    d1 = den.scale_arg(2)
    base = Poly([1, a_])
    d2 = base**3 - Poly([0, a_]) * base**2 + Poly([0, 0, b_]) * base - Poly.monomial(3, c_)
    if poly_gcd(d1, d2).degree != 0:
        raise DecompositionUnavailable(
            "a root relation 2*alpha_i = alpha_j + alpha_k blocks the decomposition"
        )
    target = binomial_product(r, s)
    d_neg = den.scale_arg(-1)
    basis = [RatFun(Poly.monomial(i), d1) for i in range(3)]
    basis += [RatFun(Poly.monomial(i), d_neg).compose_mobius(-a_) for i in range(3)]
    order = 20
    columns = [f.expand(order).coeffs for f in basis]
    rows = [[col[n] for col in columns] for n in range(order)]
    sol = solve_exact(rows, list(target.expand(order).coeffs), Fraction(0))
    if sol is None:
        raise InternalInvariantViolation("decomposition system is inconsistent")
    u, v = Poly(sol[:3]), Poly(sol[3:])
    reassembled = RatFun(u, d1) + RatFun(v, d_neg).compose_mobius(-a_)
    if reassembled != target:
        raise InternalInvariantViolation("decomposition failed exact verification")
    return u, v
