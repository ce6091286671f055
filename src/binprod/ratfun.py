"""Rational power series: normalized rational functions and their expansions.

A `RatFun` is a rational function num/den kept in a canonical form that makes
equality a tuple comparison: gcd(num, den) = 1 and den(0) = 1.  The second
condition both pins the scalar normalization and guarantees the function is a
power series at the origin.  `Series` is a finite prefix of an expansion;
`RatFun.expand` runs the denominator's recurrence on num and den cleared
to Z[x], in Python integers, and makes one `Fraction` per coefficient at
the end.  The two series kernels, `series_binomial` (in Z, by
`_binomial_ints`, which symfun also calls) and `series_hadamard`, combine
two prefixes coefficientwise.

A sum, product or quotient takes one gcd to reach canonical form; negation,
powers and `RatFun.compose_scale` take none, because they keep a canonical
pair canonical.

`reconstruct_rational` recovers a rational function from enough series
coefficients and degree bounds, by solving for the denominator first (a
homogeneous Hankel-type linear system) and then reading the numerator off a
truncated product.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import add, mul

from .errors import (
    DivisionByZero,
    InternalInvariantViolation,
    InvalidInput,
    NotAPowerSeries,
    ReconstructionFailed,
)
from .polycore import Poly, Scalar, _check_int, _check_type, _cleared, _fr, _iter, format_poly, poly_gcd, solve_exact


class Series:
    """A finite, exact prefix of a power series expansion.

    ``coeffs[n]`` is the coefficient of x^n; ``order`` is how many
    coefficients are present.  Trailing zeros are significant here (they
    carry information), so nothing is trimmed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = tuple(_fr(c) for c in _iter(coeffs, "coefficients"))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        raise IndexError(f"series has only {len(self.coeffs)} coefficients")

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Series", self.coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"Series([{shown}{tail}], order={len(self.coeffs)})"


def series_binomial(a: Series, b: Series) -> Series:
    """Termwise binomial convolution c_n = sum_k C(n,k) a_k b_{n-k}.

    Runs on integers: with A = la*a and B = lb*b the `_cleared` prefixes,
    la*lb*c_n is `_binomial_ints` of A and B, and each c_n becomes one
    `Fraction` at the end.

    >>> series_binomial(Series([1, 1, 1]), Series([1, Fraction(1, 2), Fraction(1, 4)])).coeffs
    (Fraction(1, 1), Fraction(3, 2), Fraction(9, 4))
    """
    order = min(a.order, b.order)
    (ints_a, la), (ints_b, lb) = _cleared(a.coeffs[:order]), _cleared(b.coeffs[:order])
    scale = la * lb
    return Series([Fraction(c, scale) for c in _binomial_ints(ints_a, ints_b)])


def _binomial_ints(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """c_n = sum_k C(n,k) a_k b_{n-k} on integers, for n below the shorter length.

    Each c_n is one dot product of the n-th Pascal row with the products
    a_k b_{n-k}.  The kernel of `series_binomial`, and symfun's binomial
    combination of power sums.

    >>> _binomial_ints([2, 1, 3, 4, 7], [2, 2, 6, 14, 34])
    [4, 6, 22, 72, 278]
    """
    order = min(len(a), len(b))
    # reversed, so the last n+1 entries are b_n, ..., b_0
    rev_b = b[:order][::-1]
    out, row = [], [1]
    for n in range(order):
        terms = map(mul, a[: n + 1], rev_b[order - 1 - n :])
        out.append(sum(map(mul, row, terms)))
        row = [1, *map(add, row, row[1:]), 1]
    return out


def series_hadamard(a: Series, b: Series) -> Series:
    """Termwise product c_n = a_n b_n."""
    order = min(a.order, b.order)
    return Series([a.coeffs[n] * b.coeffs[n] for n in range(order)])


class RatFun:
    """A rational function over Q in canonical power-series form.

    Invariants: den is nonzero with den(0) = 1, and gcd(num, den) = 1.  The
    zero function is 0/1.  Because the representation is canonical, equality
    and hashing are structural, and a `Poly` or scalar compares and hashes
    like the function it lifts to.  Instances are immutable.

    >>> RatFun(Poly([0, 2]), Poly([2, -2]))
    (x) / (1 - x)
    >>> RatFun(Poly([0, 1]), Poly([1, -1, -1])).expand(6).coeffs
    (Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(5, 1))
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, Scalar):
            num = Poly([num])
        if den is None:
            den = Poly.one()
        elif isinstance(den, Scalar):
            den = Poly([den])
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise InvalidInput("RatFun arguments must be Poly or scalar")
        if den.is_zero():
            raise DivisionByZero("denominator must be nonzero")
        if not den.constant_term:
            raise NotAPowerSeries(f"denominator {den} vanishes at 0")
        f = RatFun._quotient(num, den)
        self.num, self.den = f.num, f.den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "RatFun":
        return RatFun(Poly())

    @staticmethod
    def geometric(alpha) -> "RatFun":
        """1 / (1 - alpha*x), the generating function of alpha^n."""
        return RatFun(Poly.one(), Poly([1, -_fr(alpha)]))

    @staticmethod
    def _quotient(num: Poly, den: Poly) -> "RatFun":
        """num/den where den may vanish at 0 before cancellation.

        Reduces by the gcd first, then requires den(0) != 0, so e.g.
        x^2 / (x - x^3) is accepted while 1/x still fails.  This is the one
        gcd every reduced `RatFun` costs.
        """
        if den.is_zero():
            raise DivisionByZero("division by the zero function")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        c = den.constant_term
        if not c:
            raise NotAPowerSeries(f"denominator {den} vanishes at 0")
        if num.is_zero():
            return RatFun._canonical(num, Poly.one())
        if c != 1:
            num, den = num / c, den / c
        return RatFun._canonical(num, den)

    @staticmethod
    def _canonical(num: Poly, den: Poly) -> "RatFun":
        """num/den from a pair that is already canonical: no gcd is taken."""
        f = object.__new__(RatFun)
        f.num, f.den = num, den
        return f

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_proper(self) -> bool:
        """True when deg(num) < deg(den); the zero function is proper."""
        return self.num.degree < self.den.degree or self.num.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a polynomial equals its numerator, so it hashes like one
        if self.den.degree == 0:
            return hash(self.num)
        return hash(("RatFun", self.num.coeffs, self.den.coeffs))

    # -- field arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other) -> RatFun | None:
        """other as a `RatFun` if it is one, a `Poly` or a scalar; else None."""
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (Poly, *Scalar)):
            return RatFun(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._canonical(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun._quotient(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by the zero function")
        return RatFun._quotient(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if _check_int(k, "RatFun exponent", nonnegative=False) < 0:
            if self.is_zero():
                raise DivisionByZero("0 cannot be raised to a negative power")
            return RatFun._quotient(self.den ** (-k), self.num ** (-k))
        # powers of a coprime pair stay coprime, and den(0)^k = 1
        return RatFun._canonical(self.num**k, self.den**k)

    def derivative(self) -> "RatFun":
        return RatFun._quotient(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    # -- series view ---------------------------------------------------------

    def expand(self, order: int) -> Series:
        """The first ``order`` power series coefficients.

        Runs the linear recurrence c_n = num_n - sum_{j>=1} den_j c_{n-j},
        valid because den(0) = 1, on integers.  With N = ln*num and
        D = ld*den the `_cleared` coefficients (so D_0 = ld), the integers
        C_n = ln * ld^n * c_n satisfy

            C_n = N_n ld^n - sum_{j>=1} D_j ld^(j-1) C_{n-j},

        and each c_n becomes one `Fraction` at the end.

        >>> RatFun(Poly([1]), Poly([1, Fraction(-1, 2)])).expand(4).coeffs
        (Fraction(1, 1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        """
        _check_int(order, "expansion order")
        (nums, ln), (den_ints, ld) = _cleared(self.num.coeffs[:order]), _cleared(self.den.coeffs)
        # taps[d - j] = D_j ld^(j-1), so the sum pairs the last k taps with
        # the last k values of C
        taps = [c * ld ** (j - 1) for j, c in enumerate(den_ints) if j][::-1]
        d = len(taps)
        ints, dens, power = [], [], 1
        for n in range(order):
            c = nums[n] * power if n < len(nums) else 0
            k = min(n, d)
            if k:
                c -= sum(map(mul, taps[d - k :], ints[n - k :]))
            ints.append(c)
            dens.append(ln * power)
            power *= ld
        return Series(map(Fraction, ints, dens))

    def proper_split(self) -> tuple[Poly, "RatFun"]:
        """Write self as poly + proper with deg(proper.num) < deg(proper.den).

        Plain polynomial division: num = q*den + r, so self = q + r/den.
        Recombining the two parts returns exactly self.
        """
        if self.is_proper():
            return Poly(), self
        q, r = divmod(self.num, self.den)
        return q, RatFun(r, self.den)

    # -- substitutions ---------------------------------------------------------

    def compose_scale(self, c) -> "RatFun":
        """self(c*x), with no gcd.

        For c != 0, x -> c*x keeps num and den coprime and den(0) = 1.  For
        c = 0 both collapse to their constant terms, num(0) over 1.
        """
        return RatFun._canonical(self.num.scale_arg(c), self.den.scale_arg(c))

    def compose_mobius(self, beta) -> "RatFun":
        """(1/(1-beta*x)) * self(x/(1-beta*x)).

        This is the binomial product of self with the geometric series
        1/(1-beta*x): binomially convolving a_n with beta^n.
        """
        beta = _fr(beta)
        d = max(self.num.degree, self.den.degree, 0)
        base = Poly([1, -beta])
        powers = [Poly.one()]
        for _ in range(d):
            powers.append(powers[-1] * base)

        def substitute(p: Poly) -> Poly:
            """(1 - beta*x)^d * p(x/(1 - beta*x))."""
            out = Poly()
            for i, c in enumerate(p.coeffs):
                if c:
                    out = out + Poly.monomial(i, c) * powers[d - i]
            return out

        return RatFun._quotient(substitute(self.num), substitute(self.den) * base)

    def compose_poly(self, inner: Poly) -> "RatFun":
        """self(inner(x)) for a polynomial inner with inner(0) = 0."""
        if _check_type(inner, Poly, "substituted polynomial").constant_term:
            raise InvalidInput("substituted polynomial must vanish at 0")
        return RatFun._quotient(self.num.compose(inner), self.den.compose(inner))

    # -- formatting -------------------------------------------------------------

    def __str__(self) -> str:
        return format_ratfun(self)

    __repr__ = __str__


def format_ratfun(f: RatFun) -> str:
    """Canonical text form, e.g. ``(2*x^2 - 3*x^3) / (1 - 6*x + 7*x^2)``."""
    if f.den == Poly.one():
        return format_poly(f.num)
    return f"({format_poly(f.num)}) / ({format_poly(f.den)})"


def reconstruct_rational(s: Series, max_den_deg: int, max_num_deg: int) -> RatFun:
    """Recover num/den from series coefficients and degree bounds.

    Searches denominator degrees D = 0..max_den_deg in increasing order (so
    ties resolve to the minimal denominator degree).  For each D it solves
    the linear system d_0 = 1, sum_j d_j c_{n-j} = 0 for every available
    n > max_num_deg; this uses at least two more coefficients than the
    unknown count, so a spurious fit must survive extra verification rows
    before it can be returned.  The numerator is then den * s truncated.

    Raises ReconstructionFailed when no candidate matches every coefficient,
    and InvalidInput when s is not a `Series` or has fewer than
    max_num_deg + max_den_deg + 3 coefficients.
    """
    if not isinstance(s, Series):
        raise InvalidInput(f"reconstruction needs a Series, not {type(s).__name__}")
    for bound in (max_den_deg, max_num_deg):
        _check_int(bound, "degree bounds")
    needed = max_num_deg + max_den_deg + 3
    if s.order < needed:
        raise InvalidInput(
            f"series has {s.order} coefficients but {needed} are needed "
            f"for bounds ({max_num_deg}, {max_den_deg}) plus verification"
        )
    c = s.coeffs
    zero = Fraction(0)
    eq_range = range(max_num_deg + 1, s.order)
    for d in range(max_den_deg + 1):
        rows = []
        rhs = []
        for n in eq_range:
            rows.append([c[n - j] if j <= n else zero for j in range(1, d + 1)])
            rhs.append(-c[n])
        sol = solve_exact(rows, rhs)
        if sol is None:
            continue
        # the solved equations say den * s has no terms beyond max_num_deg
        den = Poly([Fraction(1)] + list(sol))
        return _recover_numerator(den, c, max_num_deg, "solved recurrence leaves a nonzero tail")
    raise ReconstructionFailed(
        f"no rational function with deg(num) <= {max_num_deg} and "
        f"deg(den) <= {max_den_deg} matches the series"
    )


def _recover_numerator(den: Poly, s: Sequence[Fraction], num_deg: int, what: str) -> RatFun:
    """num/den, where num is den * s truncated after the x^num_deg term.

    ``s`` is a series prefix of num/den.  Every later coefficient of the
    truncated product den * s must vanish; a nonzero one raises
    InternalInvariantViolation with the message ``what``.
    """
    d, zero = den.coeffs, Fraction(0)
    top = len(d) - 1
    prod = [sum((d[j] * s[n - j] for j in range(min(n, top) + 1)), zero) for n in range(len(s))]
    if any(prod[num_deg + 1 :]):
        raise InternalInvariantViolation(what)
    return RatFun(Poly(prod[: num_deg + 1]), den)
