"""Binomial and Hadamard products of rational power series.

Given A(x) = sum a_n x^n and B(x) = sum b_n x^n, both rational, this module
computes the rational generating functions of

    c_n = sum_k C(n,k) a_k b_{n-k}      (binomial product, `binomial_product`)
    c_n = a_n b_n                       (Hadamard product, `hadamard_product`)

by several independent methods:

* "resultant"    the product denominator prod(1 - (alpha_i + beta_j) x) or
                 prod(1 - alpha_i beta_j x) as a single resultant, then the
                 numerator from a truncated series product;
* "symfun"       the same pipeline with the denominator from power sums
                 and Newton's identities (`symfun.denominator_via_symfun`);
* "pfrac"        constant-term extraction in an auxiliary variable
                 (`pfrac` module);
* "reconstruct"  expand far enough and fit a rational function with exact
                 linear algebra (`ratfun.reconstruct_rational`).

Symfun is the default.  Every operand may be improper.  Both products are
a numerator over a denominator bound, and one degree-bound function per
product (`_binomial_bounds`, `_hadamard_bounds`) serves the resultant,
symfun and reconstruct routes alike.  Resultant always plans against its
full resultant over all m*n root pairs, the paper's formula.  For proper
operands over one square-free denominator of degree m, symfun and
reconstruct use a tighter bound, the symmetric square, of degree m(m+1)/2
(`_symmetric_square_bounds`), and only symfun computes that square
(`symfun.symmetric_square_via_symfun`).  Only pfrac splits off polynomial
parts, because its constant-term split needs proper operands.

The methods share no denominator logic, so agreement between them is a real
cross-check; `--cross-check` on the command line and several tests rely on
that.  All arithmetic is exact.  The series kernels `series_binomial` and
`series_hadamard` live in `ratfun`, beside `Series`; symfun combines power
sums with the integer kernel of `series_binomial` too, since it is not
denominator code.  A self-product expands its operand once.
"""

from __future__ import annotations

import shlex
from collections.abc import Callable
from fractions import Fraction
from math import comb, factorial

from . import symfun
from .errors import (
    BinprodError,
    DecompositionUnavailable,
    DivisibilityError,
    InternalInvariantViolation,
    InvalidInput,
)
from .polycore import (
    BiPoly,
    Poly,
    lift_to_y,
    poly_gcd,
    resultant,
    solve_exact,
    sub_one_minus_y,
    sub_x_over_y,
    _fr,
)
from .ratfun import RatFun, Series, _recover_numerator, series_binomial, series_hadamard
from .record import Record

METHODS = ("resultant", "symfun", "pfrac", "reconstruct")


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
    return _resultant_denominator(sub_one_minus_y, uden, vden)


def hadamard_denominator(uden: Poly, vden: Poly) -> Poly:
    """prod over all pairs of (1 - alpha_i beta_j x), as one resultant.

    Equals (-1)^(m n) Res_y( uden(y), y^n vden(x/y) ).  All reciprocal roots
    are nonzero, so the result has degree exactly m*n.
    """
    r = _resultant_denominator(lift_to_y, uden, vden)
    if r.degree != uden.degree * vden.degree:
        raise InternalInvariantViolation("hadamard denominator must have degree m*n")
    return r


def _resultant_denominator(substitute: Callable[[Poly], BiPoly], uden: Poly, vden: Poly) -> Poly:
    """(-1)^(m n) Res_y( substitute(uden), y^n vden(x/y) ), or 1 when m n = 0.

    m = deg(uden) and n = deg(vden); both must have constant term 1, and so
    must the result.
    """
    for den in (uden, vden):
        if den.is_zero() or den.constant_term != 1:
            raise InvalidInput("denominators must have constant term 1")
    m, n = uden.degree, vden.degree
    if m == 0 or n == 0:
        return Poly.one()
    r = resultant(substitute(uden), sub_x_over_y(vden))
    if (m * n) % 2:
        r = -r
    if r.constant_term != 1:
        raise InternalInvariantViolation("product denominator must have constant term 1")
    return r


# ---------------------------------------------------------------------------
# the main pipeline: denominator bound + numerator recovery


class ProductPlan(Record):
    """A denominator bound and numerator degree bound for one product.

    The true product is T / den_bound for some polynomial T with
    deg(T) <= num_deg_bound; reduction to lowest terms happens afterwards.
    """

    __slots__ = _fields = ("den_bound", "num_deg_bound")


def _plan(kind: str, a: RatFun, b: RatFun, method: str) -> ProductPlan:
    """The plan of `plan_binomial` or `plan_hadamard` by one direct route."""
    if a.is_zero() or b.is_zero():
        raise InvalidInput("plans are for nonzero operands")
    if method == "symfun":
        square = _symmetric_square_bounds(a, b)
        if square:
            return ProductPlan(symfun.symmetric_square_via_symfun(a.den, kind), square[1])
        cross = symfun.denominator_via_symfun(a.den, b.den, kind)
    elif method == "resultant":
        cross = (binomial_denominator if kind == "binomial" else hadamard_denominator)(a.den, b.den)
    else:
        raise InvalidInput(f"no direct denominator computation for method {method!r}")
    if kind == "hadamard":
        return ProductPlan(cross, _hadamard_bounds(a, b)[1])
    u, v, _, num_deg = _binomial_bounds(a, b)
    return ProductPlan(a.den**v * b.den**u * cross, num_deg)


def plan_binomial(a: RatFun, b: RatFun, method: str = "symfun") -> ProductPlan:
    """Denominator and numerator-degree bounds for a binomial product.

    With m = deg(a.den), n = deg(b.den), u = max(deg(a.num)+1-m, 0) and
    v = max(deg(b.num)+1-n, 0), the product is T(x) over

        a.den^v * b.den^u * prod(1 - (alpha_i + beta_j) x)

    with deg(T) < (u+m)(v+n).  The u, v exponents absorb improper inputs, so
    no polynomial split is needed on this path.  This is the resultant
    route's plan for every pair of operands.

    Proper operands over one square-free denominator D = prod(1 - alpha_i x)
    of degree m >= 2 are sums of c_i/(1 - alpha_i x), and the binomial
    product of two geometric series is the geometric series of the sum of
    their ratios.  So every pole is a 1/(alpha_i + alpha_j) with i <= j, and
    the symfun route plans against the symmetric square, prod over i <= j
    of (1 - (alpha_i + alpha_j) x), of degree N = m(m+1)/2, not m^2
    (`_symmetric_square_bounds`).

    >>> fib = RatFun(Poly.x(), Poly([1, -1, -1]))
    >>> print(plan_binomial(fib, fib).den_bound)
    1 - 3*x - 2*x^2 + 4*x^3
    >>> print(plan_binomial(fib, fib, "resultant").den_bound)
    1 - 4*x + x^2 + 6*x^3 - 4*x^4
    """
    return _plan("binomial", a, b, method)


def _binomial_bounds(a: RatFun, b: RatFun) -> tuple[int, int, int, int]:
    """u, v and the denominator and numerator degree bounds of `plan_binomial`."""
    m, n = a.den.degree, b.den.degree
    u = max(a.num.degree + 1 - m, 0)
    v = max(b.num.degree + 1 - n, 0)
    return u, v, m * v + n * u + m * n, (u + m) * (v + n) - 1


def plan_hadamard(a: RatFun, b: RatFun, method: str = "symfun") -> ProductPlan:
    """Denominator and numerator-degree bounds for a Hadamard product.

    The denominator is prod(1 - alpha_i beta_j x), of degree m*n, and
    `_hadamard_bounds` gives the numerator bound, so improper operands need
    no polynomial split here either.  This is the resultant route's plan for
    every pair of operands.

    For proper operands over one square-free denominator of degree m >= 2
    the poles are the 1/(alpha_i alpha_j) with i <= j, as in
    `plan_binomial`, since the Hadamard product of two geometric series is
    the geometric series of the product of their ratios.  So the symfun
    route plans against the symmetric square, of degree N = m(m+1)/2
    (`_symmetric_square_bounds`).

    >>> a = RatFun(Poly([1, 0, 0, 2]), Poly([1, -1]))  # improper: degree 3 over 1
    >>> b = RatFun(Poly.x(), Poly([1, -1, -1]))
    >>> plan = plan_hadamard(a, b)
    >>> print(plan.den_bound, plan.num_deg_bound)
    1 - x - x^2 4
    """
    return _plan("hadamard", a, b, method)


def _hadamard_bounds(a: RatFun, b: RatFun) -> tuple[int, int]:
    """The denominator and numerator degree bounds of `plan_hadamard`.

    With P = max(deg a.num - m, deg b.num - n, -1), the largest degree of a
    polynomial part, a_n b_n is the coefficient of the product of the proper
    parts for every n > P.  That product has a numerator of degree below m*n,
    and the first P+1 coefficients add a polynomial of degree at most P.
    """
    m, n = a.den.degree, b.den.degree
    p = max(a.num.degree - m, b.num.degree - n, -1)
    return m * n, max(p + m * n, m * n - 1)


def _symmetric_square_bounds(a: RatFun, b: RatFun) -> tuple[int, int] | None:
    """N = m(m+1)/2 and N - 1 for proper a, b over one square-free den of degree m >= 2.

    These are the denominator and numerator degree bounds of both products
    for symfun and reconstruct; None for any other pair of operands.  The
    product is a sum of N terms c/(1 - (alpha_i + alpha_j) x) or
    c/(1 - alpha_i alpha_j x) over i <= j.  N - 1 holds when some
    alpha_i + alpha_j is 0 too.  That term is a constant c, which adds c
    times the denominator to the numerator, and the denominator has lost the
    factor 1 - 0 x, so its degree is at most N - 1.  No alpha_i alpha_j is 0.
    """
    den = a.den
    m = den.degree
    if m < 2 or b.den != den or not (a.is_proper() and b.is_proper()):
        return None
    if poly_gcd(den, den.derivative()).degree:
        return None
    pairs = m * (m + 1) // 2
    return pairs, pairs - 1


def _recover_from_plan(combine, a: RatFun, b: RatFun, plan: ProductPlan, kind: str) -> RatFun:
    """Numerator by truncated multiplication against the denominator bound.

    Expands past the numerator bound by deg(den)+2 extra coefficients; every
    extra coefficient of (series * den) beyond the bound must vanish, which
    is asserted.  A nonvanishing tail means the denominator bound was wrong,
    an internal bug.
    """
    order = plan.den_bound.degree + plan.num_deg_bound + 3
    s = combine(*_expansions(a, b, order)).coeffs
    what = f"{kind} numerator tail does not vanish; denominator bound is wrong"
    return _recover_numerator(plan.den_bound, s, plan.num_deg_bound, what)


def _reconstruct(combine, a: RatFun, b: RatFun, den_deg: int, num_deg: int) -> RatFun:
    """The product fitted from its series by `ratfun.reconstruct_rational`."""
    # looked up at call time, so that a patched `ratfun` binding sees this route's fits
    from .ratfun import reconstruct_rational

    order = den_deg + num_deg + 3
    return reconstruct_rational(combine(*_expansions(a, b, order)), den_deg, num_deg)


def _expansions(a: RatFun, b: RatFun, order: int) -> tuple[Series, Series]:
    """a.expand(order) and b.expand(order), expanding once for a self-product.

    `RatFun` equality is canonical, so b == a is exact.
    """
    sa = a.expand(order)
    return sa, sa if b == a else b.expand(order)


# ---------------------------------------------------------------------------
# public products


def binomial_product(a: RatFun, b: RatFun, method: str = "symfun") -> RatFun:
    """The generating function of c_n = sum_k C(n,k) a_k b_{n-k}.

    ``method`` is one of `METHODS`, symfun by default.  Improper operands
    are fine.  Resultant, symfun and reconstruct work from the degree bounds
    of `plan_binomial`, which absorb them; only pfrac, whose constant-term
    split needs proper operands, splits off the polynomial parts first.  A
    `Poly`, `int` or `Fraction` operand is lifted as in `RatFun` arithmetic,
    and a failure of binprod itself carries a reproducer (`_product`).
    """
    return _product("binomial", a, b, method)


def hadamard_product(a: RatFun, b: RatFun, method: str = "symfun") -> RatFun:
    """The generating function of c_n = a_n b_n.

    Improper operands are fine, under the same policy as `binomial_product`:
    resultant, symfun and reconstruct work from the degree bounds of
    `plan_hadamard`, and only pfrac splits off the polynomial parts.
    Operands lift, and failures carry a reproducer, as in `binomial_product`.
    """
    return _product("hadamard", a, b, method)


def _product(kind: str, a, b, method: str) -> RatFun:
    """The body of `binomial_product` and `hadamard_product`.

    Any exception but a `BinprodError` about the input, that is, an
    `InternalInvariantViolation` or one from outside the taxonomy, leaves
    with a ``reproducer`` attribute: the `binprod` command line of this
    product, with ``--method`` always written out.  One that already has a
    reproducer keeps it, so the innermost product is named.
    """
    if method not in METHODS:
        raise InvalidInput(f"method must be one of {METHODS}, got {method!r}")
    a, b = _lift(a), _lift(b)
    binomial = kind == "binomial"
    try:
        if a.is_zero() or b.is_zero():
            return RatFun.zero()
        if method == "pfrac":
            # not at module level: pfrac imports `poly_bprod` from this module
            from . import pfrac

            if binomial:
                return pfrac.binomial_via_constant_term(a, b)
            return pfrac.hadamard_via_constant_term(a, b)
        combine = series_binomial if binomial else series_hadamard
        if method == "reconstruct":
            full = _binomial_bounds(a, b)[2:] if binomial else _hadamard_bounds(a, b)
            return _reconstruct(combine, a, b, *(_symmetric_square_bounds(a, b) or full))
        plan = plan_binomial if binomial else plan_hadamard
        return _recover_from_plan(combine, a, b, plan(a, b, method), kind)
    except Exception as exc:
        bad_input = isinstance(exc, BinprodError) and not isinstance(exc, InternalInvariantViolation)
        if not bad_input and not hasattr(exc, "reproducer"):
            command = "bprod" if binomial else "hprod"
            exc.reproducer = shlex.join(["binprod", command, str(a), str(b), "--method", method])
        raise


def _lift(f) -> RatFun:
    """f as a `RatFun`: `Poly`, `int` and `Fraction` lift as in `RatFun` arithmetic."""
    lifted = RatFun._coerce(f)
    if lifted is None:
        raise InvalidInput(f"operands must be RatFun, Poly, int or Fraction, not {type(f).__name__}")
    return lifted


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
    return RatFun(g.num.shift(m), g.den) / factorial(m)


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


def komatsu_decompose(r: RatFun, s: RatFun) -> tuple[Poly, Poly]:
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
    roots).  D2 is (1+Ax)^3 D(-x/(1+Ax)), so the second term is w/D2 with
    w(x) = (1+Ax)^2 v(x/(1+Ax)), and the split is a two-term partial
    fraction.  The product's poles are simple, at 1/(2 alpha_i) and
    1/(alpha_j + alpha_k), so its denominator divides D(2x) D2, and with
    P = r (binomial) s times D(2x) D2,

        u D2 + w D(2x) = P,

    a 6 x 6 Sylvester system in the coefficients of u and w, nonsingular
    because D(2x) and D2 are coprime.  Then v(y) = sum_i w_i y^i (1-Ay)^(2-i),
    and the decomposition is verified exactly before returning.

    >>> t = RatFun(Poly.x(), Poly([1, -1, -1, -1]))  # tribonacci
    >>> u, v = komatsu_decompose(t, t)
    >>> print(u)
    1/11 + 1/11*x + 10/11*x^2
    >>> print(v)
    -1/11 - 3/11*x + 6/11*x^2
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
    try:
        p = target.num * (d1 * d2).exact_div(target.den)
    except DivisibilityError:
        raise InternalInvariantViolation("product denominator does not divide D(2x)*D2") from None
    # row n: the coefficient of x^n in u*D2 + w*D(2x)
    rows = [[d2[n - i] for i in range(3)] + [d1[n - i] for i in range(3)] for n in range(6)]
    sol = solve_exact(rows, [p[n] for n in range(6)])
    if sol is None:
        raise InternalInvariantViolation("decomposition system is inconsistent")
    u = Poly(sol[:3])
    back = Poly([1, -a_])
    v = sum((Poly.monomial(i, w) * back ** (2 - i) for i, w in enumerate(sol[3:])), Poly())
    d_neg = den.scale_arg(-1)
    reassembled = RatFun(u, d1) + RatFun(v, d_neg).compose_mobius(-a_)
    if reassembled != target:
        raise InternalInvariantViolation("decomposition failed exact verification")
    return u, v
