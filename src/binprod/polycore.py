"""Exact polynomial arithmetic over the rationals: one kernel, two rings.

The ground field is Q, represented by `fractions.Fraction` (already reduced,
positive denominator, arbitrary precision).  Dense univariate arithmetic
(trimmed storage, +, -, *, **, divmod, pseudo-division, monic) is written
once, in `_DensePoly`, for any coefficient ring; a subclass names only its
ring, by a zero element and a coefficient coercion.  The two rings are

* `Poly`       Q[x], with calculus, content and formatting on top,
* `BiPoly`     Q[x][y], polynomials in an auxiliary variable y whose
               coefficients are `Poly` values in x; the `pfrac` module
               reads y as its t and runs the subresultant sequence
               (Collins, J. ACM 14, 1967) on them by pseudo-division.

A matrix is a list of rows, each a sequence of `Poly` or scalar entries.
On top of these this module builds fraction-free (Bareiss) determinants,
Sylvester matrices and resultants, and the y-substitutions that turn
denominator products such as prod(1 - (alpha_i + beta_j) x) into a single
resultant computation.

The hot kernels leave `Fraction` for plain integers, here and in `ratfun`
and `symfun`, through one boundary: `_cleared` writes a coefficient list
as integers over the lcm of its denominators, and no other code reads a
denominator.  Each kernel works on the cleared integers and returns to
`Fraction` once, at the end.  Determinants pack each
cleared Z[x] entry into one integer by Kronecker substitution x = 2^w,
with w above a Hadamard bound on the coefficients of every minor, and
eliminate on those integers (Bareiss, Math. Comp. 22, 1968); the result is
unpacked from balanced base-2^w digits and divided by the row scales.  A
`Poly` product convolves in Z[x], and a one-term factor stays a scalar
multiple.  `Poly.exact_div`, the division by a gcd in every fraction type,
divides in Z[x] by the primitive part of the divisor.  `poly_gcd` packs
the primitive parts of both arguments at one x = 2^w, takes one integer
gcd and unpacks it the same way (Char, Geddes and Gonnet, J. Symbolic
Comput. 7, 1989); the candidate is trial divided into both arguments
before it is returned, and that makes the answer exact, not probabilistic.

Every value is immutable after construction and every function is pure, so
values can be shared freely between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import islice
from math import comb, gcd as int_gcd, isqrt, lcm

from .errors import DivisibilityError, DivisionByZero, InvalidInput

Scalar = (int, Fraction)


def _fr(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidInput(f"expected an integer or Fraction, got {value!r}")


def _check_int(value, what: str, nonnegative: bool = True) -> int:
    """``value`` when it is an int, nonnegative unless ``nonnegative`` is false.

    Anything else raises InvalidInput, a bool too: it is not an integer here.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{what} must be an integer, not {type(value).__name__}")
    if nonnegative and value < 0:
        raise InvalidInput(f"{what} must be nonnegative")
    return value


def _check_type(value, cls: type, what: str):
    """``value`` when it is a ``cls``; anything else raises InvalidInput."""
    if not isinstance(value, cls):
        raise InvalidInput(f"{what} must be a {cls.__name__}, not {type(value).__name__}")
    return value


def _iter(values, what: str):
    """iter(values); InvalidInput naming ``what`` when values is not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise InvalidInput(f"{what} must be iterable, not {type(values).__name__}") from None


def _convolve(a: Sequence, b: Sequence) -> list:
    """Schoolbook product of two nonempty coefficient sequences over any ring.

    One row per term of the shorter sequence: a one-term factor is a plain
    scalar multiple, and no coefficient is ever added to a zero.
    """
    if len(a) < len(b):
        a, b = b, a
    out = [c * b[0] for c in a]
    last = a[-1]
    for j in range(1, len(b)):
        s = b[j]
        if s:
            out[j:] = [d + s * c for d, c in zip(out[j:], a)]
            out.append(s * last)
        else:
            out.append(s)
    return out


def _cleared(coeffs: Sequence) -> tuple[list, int]:
    """(ints, s): s is the lcm of the denominators and ints[i] = s * coeffs[i].

    The one step from Q to Z; every integer kernel enters through it.

    >>> _cleared([Fraction(1, 2), 3, Fraction(-2, 3)])
    ([3, 18, -4], 6)
    >>> _cleared([])
    ([], 1)
    """
    s = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (s // c.denominator) for c in coeffs], s


class _DensePoly:
    """Dense univariate polynomials over a commutative coefficient ring.

    ``coeffs[i]`` is the coefficient of the i-th power; trailing zeros are
    trimmed so the zero polynomial is the empty tuple.  ``degree`` is -1 for
    zero, purely as a sentinel: code must branch on ``is_zero()`` instead of
    doing arithmetic with the degree of zero.

    A subclass names its ring: ``_zero`` is the zero coefficient and
    ``_coeff`` turns a value into a coefficient or raises InvalidInput.
    Coefficients need +, -, * and truth testing, all that pseudo-division
    uses; division with remainder divides by a power of the divisor's
    leading coefficient and `monic` by the leading coefficient, so both
    also need / between coefficients.  An operand that is a coefficient
    rather than a polynomial acts as a constant polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        coerce = self._coeff
        vals = [coerce(c) for c in _iter(coeffs, "coefficients")]
        while vals and not vals[-1]:
            vals.pop()
        self.coeffs = tuple(vals)

    @classmethod
    def _make(cls, vals: list):
        """A polynomial from a list of ring elements, trimmed, not coerced."""
        while vals and not vals[-1]:
            vals.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(vals)
        return p

    def _lift(self, other):
        """other as a polynomial of this class, or None if it cannot be one."""
        if isinstance(other, type(self)):
            return other
        try:
            return self._make([self._coeff(other)])
        except InvalidInput:
            return None

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            raise InvalidInput("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._zero

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like one
        if len(self.coeffs) <= 1:
            return hash(self[0])
        return hash((type(self).__name__, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return self._make([])
        return self._make(_convolve(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        _check_int(k, f"{type(self).__name__} exponent")
        out = self._make([self._coeff(1)])
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __divmod__(self, other):
        """(q, r) with self = q*other + r and deg r < deg other.

        The pseudo-quotient and pseudo-remainder of `pseudo_divmod`, each
        divided once by lc(other)^e, which must divide every coefficient.
        With e = 0, a dividend of lower degree, nothing is divided.
        """
        o = self._lift(other)
        if o is None:
            return NotImplemented
        q, r, e = self.pseudo_divmod(o)
        if not e:
            return q, r
        s = o.coeffs[-1] ** e
        return self._make([c / s for c in q.coeffs]), self._make([c / s for c in r.coeffs])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def pseudo_divmod(self, other):
        """(q, r, e) with lc(other)^e * self = q*other + r and deg r < deg other.

        e = max(deg self - deg other + 1, 0).  Only +, - and * of
        coefficients are used, so this works over an integral domain such
        as Z[x] (Knuth, TAOCP 2, 4.6.1, Algorithm R).  Each coefficient is
        brought up to its power of lc(other) only when the elimination
        reaches it.
        """
        b = _check_type(other, type(self), "divisor").coeffs
        if not b:
            raise DivisionByZero("polynomial division by zero")
        n, top = len(b) - 1, len(self.coeffs) - len(b)
        if top < 0:
            return self._make([]), self, 0
        lead = b[-1]
        powers = [self._coeff(1), lead]
        for _ in range(top - 1):
            powers.append(powers[-1] * lead)
        rem = list(self.coeffs)
        quo = [self._zero] * (top + 1)
        for k in range(top, -1, -1):
            if k < top:
                rem[k] *= powers[top - k]
            c = rem[k + n]
            if c:
                quo[k] = c * powers[k] if k else c
                rem[k : k + n] = [lead * d - c * e for d, e in zip(rem[k : k + n], b)]
            else:
                rem[k : k + n] = [lead * d for d in rem[k : k + n]]
        return self._make(quo), self._make(rem[:n]), top + 1

    def monic(self):
        """self over its leading coefficient; zero stays zero."""
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return self._make([c / lead for c in self.coeffs])


class Poly(_DensePoly):
    """A univariate polynomial over Q with dense coefficient storage.

    >>> Poly([1, -1]) * Poly([1, 1])
    Poly('1 - x^2')
    >>> divmod(Poly([0, 0, 0, 1]), Poly([1, -1]))
    (Poly('-1 - x - x^2'), Poly('1'))
    """

    __slots__ = ()
    _zero = Fraction(0)
    _coeff = staticmethod(_fr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly([0] * _check_int(k, "monomial exponent") + [c])

    @property
    def constant_term(self) -> Fraction:
        return self[0]

    def __mul__(self, other):
        """Product in Z[x], rescaled once.

        With self = A/sa and other = B/sb for integer lists A and B, each
        coefficient of A*B becomes one `Fraction` over sa*sb.  A one-term
        factor stays a plain scalar multiple.
        """
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) <= 1 or len(b) <= 1:
            return _DensePoly.__mul__(self, o)
        (ints_a, sa), (ints_b, sb) = _cleared(a), _cleared(b)
        scale = sa * sb
        return Poly._make([Fraction(c, scale) for c in _convolve(ints_a, ints_b)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar only; use exact_div for polynomials."""
        if isinstance(other, Scalar):
            c = _fr(other)
            if not c:
                raise DivisionByZero("division of a Poly by zero")
            return Poly._make([a / c for a in self.coeffs])
        return NotImplemented

    def exact_div(self, other) -> "Poly":
        """Quotient self/other, raising DivisibilityError unless it is exact.

        Runs in Z[x]: self = A/sa and other = c*B/sb with integer lists A, B
        and B primitive.  By Gauss's lemma, B divides A over Q exactly when
        it divides A in Z[x], so one `_zx_exact_div` decides divisibility,
        and the quotient is rescaled by sb/(sa*c) once per coefficient.

        >>> Poly([Fraction(-1, 4), 0, 1]).exact_div(Poly([1, 2]))
        Poly('-1/4 + 1/2*x')
        """
        o = self._lift(other)
        if o is None:
            raise TypeError(f"cannot divide a Poly by {type(other).__name__}")
        if not o.coeffs:
            raise DivisionByZero("polynomial division by zero")
        (ints_a, sa), (ints_b, sb) = _cleared(self.coeffs), _cleared(o.coeffs)
        content = int_gcd(*ints_b)
        try:
            quo = _zx_exact_div(ints_a, [c // content for c in ints_b])
        except DivisibilityError:
            raise DivisibilityError(f"{self} is not divisible by {other}") from None
        scale = sa * content
        return Poly._make([Fraction(c * sb, scale) for c in quo])

    # -- calculus and substitution ------------------------------------------

    def derivative(self) -> "Poly":
        return Poly._make([i * c for i, c in enumerate(self.coeffs)][1:])

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), by Horner's rule over Poly arithmetic; inner may be a scalar."""
        if not isinstance(inner, Scalar):
            _check_type(inner, Poly, "the inner polynomial")
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def scale_arg(self, c) -> "Poly":
        """self(c*x)."""
        c = _fr(c)
        out = []
        power = Fraction(1)
        for a in self.coeffs:
            out.append(a * power)
            power *= c
        return Poly._make(out)

    def shift(self, k: int) -> "Poly":
        """x^k * self."""
        _check_int(k, "shift amount")
        if self.is_zero():
            return self
        return Poly._make([Fraction(0)] * k + list(self.coeffs))

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def format_poly(p: Poly) -> str:
    """Render in ascending powers, e.g. ``1 - 6*x + 7*x^2``.

    The output re-parses in the expression language of the command line
    interface to the same polynomial.
    """
    return _signed_sum((c, "x" if i == 1 else f"x^{i}" if i else "") for i, c in enumerate(p.coeffs))


def _signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, unit) pairs into ``c*unit`` terms with signs.

    Zero terms are skipped, a coefficient of 1 or -1 before a unit prints as
    its sign, an empty unit prints the bare coefficient, and no terms print
    as ``0``: ``1 - 6*x + x^2``.
    """
    pieces = []
    for c, unit in terms:
        if not c:
            continue
        mag = -c if c < 0 else c
        if not unit:
            body = str(mag)
        else:
            body = unit if mag == 1 else f"{mag}*{unit}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces) or "0"


def _primitive_ints(f: Poly) -> list:
    """f cleared of denominators and content: a primitive Z[x] coefficient list."""
    ints = _cleared(f.coeffs)[0]
    g = int_gcd(*ints)
    return [c // g for c in ints]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, b) is monic(b).

    Raises InvalidInput when both arguments are zero, and returns 1 at once
    when either is a nonzero constant.  Otherwise both are cleared to
    primitive integer polynomials A and B, and the gcd is read from one
    integer gcd at x = xi = 2^w (GCDHEU: Char, Geddes and Gonnet, J.
    Symbolic Comput. 7, 1989).  P is gcd(A(xi), B(xi)) unpacked in balanced
    base-xi digits, so every coefficient of P is at most xi/2 in size; a
    constant P proves the pair coprime, and otherwise the primitive part C
    of P is trial divided into A and B in Z[x], and xi is squared until C
    divides both.  w starts at one more than the bit length of
    min(|A|_inf, |B|_inf), so xi >= 2 min(|A|_inf, |B|_inf) + 2.

    The answer is exact, not probabilistic.  Let G = gcd(A, B); it divides
    the argument of smaller height, so by Cauchy's bound every root of G
    has modulus below xi/2, and |Q(xi)| > xi/2 for every factor Q of G of
    degree at least 1.  P(xi) = h |G(xi)| with h = gcd(Abar(xi), Bbar(xi))
    for the cofactors Abar = A/G and Bbar = B/G.

    * Constant P: if deg G >= 1, then |P| = h |G(xi)| > xi/2, which no
      balanced digit is; so G = 1.
    * Correctness: if C divides A and B, then G = C Q, and
      |cont P| = h |Q(xi)|.  If deg Q >= 1 that exceeds xi/2 >= |cont P|,
      which is impossible; so C = +-G.
    * Termination: h divides Res(Abar, Bbar), which is nonzero.  Once
      xi/2 > |Res(Abar, Bbar)| |G|_inf, P = +-h G and C passes the test.

    >>> poly_gcd(Poly([-1, 0, 1]), Poly([1, 2, 1]))
    Poly('1 + x')
    >>> poly_gcd(Poly([2, 3]), Poly([Fraction(1, 2), 1]))
    Poly('1')
    """
    _check_type(a, Poly, "gcd argument")
    _check_type(b, Poly, "gcd argument")
    if a.is_zero() and b.is_zero():
        raise InvalidInput("gcd(0, 0) is undefined")
    if a.is_zero() or b.is_zero():
        return (a or b).monic()
    if a.degree == 0 or b.degree == 0:
        return Poly.one()
    int_a, int_b = _primitive_ints(a), _primitive_ints(b)
    w = min(max(map(abs, int_a)), max(map(abs, int_b))).bit_length() + 1
    while True:
        p = _kronecker_unpack(int_gcd(_kronecker_pack(int_a, w), _kronecker_pack(int_b, w)), w)
        if len(p) == 1:
            return Poly.one()
        content = int_gcd(*p)
        g = [c // content for c in p]
        try:
            _zx_exact_div(int_a, g)
            _zx_exact_div(int_b, g)
            return Poly(g).monic()
        except DivisibilityError:
            w *= 2


def _as_poly(value) -> Poly:
    """A Poly, or a scalar as a constant Poly; InvalidInput otherwise."""
    return value if isinstance(value, Poly) else Poly([value])


class BiPoly(_DensePoly):
    """A polynomial in y whose coefficients are `Poly` values in x.

    ``coeffs[k]`` is the coefficient of y^k; a scalar coefficient is read
    as a constant in x.
    """

    __slots__ = ()
    _zero = Poly()
    _coeff = staticmethod(_as_poly)

    def __repr__(self) -> str:
        terms = ", ".join(f"y^{k}: {p}" for k, p in enumerate(self.coeffs))
        return f"BiPoly({terms})"


def _zx_exact_div(a: list, b: list) -> list:
    """a / b in Z[x], raising DivisibilityError unless the quotient is in Z[x]."""
    if not a:
        return []
    db = len(b) - 1
    if db == 0 and b[0] == 1:
        return a
    lead = b[-1]
    rem = list(a)
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r:
            raise DivisibilityError("division is not exact in Z[x]")
        if c:
            quo[k] = c
            for j in range(db):
                rem[k + j] -= c * b[j]
    if not quo or any(rem[:db]):
        raise DivisibilityError("division is not exact in Z[x]")
    return quo


def _kronecker_pack(ints: list, w: int) -> int:
    """The value at x = 2^w of a Z[x] coefficient list (Kronecker substitution).

    Determinants eliminate on these values, and `poly_gcd` takes their gcd.
    """
    v = 0
    for c in reversed(ints):
        v = (v << w) + c
    return v


def _kronecker_unpack(v: int, w: int) -> list:
    """The Z[x] coefficient list whose value at x = 2^w is v.

    Reads v in balanced base-2^w digits, each in [-2^(w-1), 2^(w-1)), so
    it inverts `_kronecker_pack` for every list whose coefficients lie in
    that range.  It reads back a determinant and a gcd candidate.
    """
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    while v:
        c = v & mask
        if c >= half:
            c -= 1 << w
        out.append(c)
        v = (v - c) >> w
    return out


def det_fraction_free(rows: Sequence[Sequence]) -> Poly:
    """Determinant of a square matrix, given as rows of `Poly` or scalar entries.

    One-step fraction-free (Bareiss) elimination.  Each entry is coerced to
    a `Poly`, and each row is multiplied by the lcm of the denominators of
    its coefficients, so every entry becomes an integer polynomial; the
    determinant of the scaled matrix is divided by the product of the row
    scales once, at the end.  The determinant of the empty (0x0) matrix is
    1.

    Elimination runs on plain integers by Kronecker substitution: each
    entry is replaced by its value at x = 2^w.  Every Bareiss entry is, up
    to sign, a minor of the scaled matrix, and a minor's coefficients are
    at most its largest absolute value on the unit circle, which by
    Hadamard's inequality is at most the product of its row 2-norms there.
    A minor's rows are parts of rows of the matrix, so every coefficient of
    every minor is bounded by

        B = prod_i max(1, ceil(sqrt(sum_j ||M_ij||_1^2))),

    where ||.||_1 is the sum of the absolute values of an entry's
    coefficients.  With w = B.bit_length() + 1 each minor is recovered from
    its value by balanced base-2^w digits; in particular a packed zero is
    exactly a zero polynomial, so the pivot search and its row swaps are
    those of elimination in Z[x].  Each division is exact, as the algorithm
    guarantees over an integral domain; a remainder raises
    DivisibilityError.

    >>> det_fraction_free([[Poly([0, 1]), 2], [Poly([1, 1]), 1]])
    Poly('-2 - x')
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InvalidInput("determinant requires a square matrix")
    if n == 0:
        return Poly.one()
    int_rows = []
    scale = bound = 1
    for row in rows:
        coeffs = [_as_poly(e).coeffs for e in row]
        flat, s = _cleared([c for e in coeffs for c in e])
        scale *= s
        # one clear per row, cheaper than one per entry; each entry then
        # takes its own integers back
        it = iter(flat)
        ints = [list(islice(it, len(e))) for e in coeffs]
        norm2 = sum(sum(map(abs, e)) ** 2 for e in ints)
        if norm2 > 1:
            bound *= isqrt(norm2 - 1) + 1
        int_rows.append(ints)
    w = bound.bit_length() + 1
    grid = [[_kronecker_pack(e, w) for e in row] for row in int_rows]
    prev = 1
    for k in range(n - 1):
        if not grid[k][k]:
            for i in range(k + 1, n):
                if grid[i][k]:
                    grid[k], grid[i] = grid[i], grid[k]
                    scale = -scale
                    break
            else:
                return Poly()
        pivot, top = grid[k][k], grid[k]
        for i in range(k + 1, n):
            row = grid[i]
            lead = row[k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row[j] - lead * top[j], prev)
                if r:
                    raise DivisibilityError("Bareiss division is not exact")
                row[j] = q
            row[k] = 0
        prev = pivot
    return Poly([Fraction(c, scale) for c in _kronecker_unpack(grid[n - 1][n - 1], w)])


def sylvester(a: BiPoly, b: BiPoly) -> list[list[Poly]]:
    """Sylvester matrix of a and b as polynomials in y, as a list of rows.

    With m = deg_y(a) and n = deg_y(b) the matrix is (m+n) x (m+n): first n
    shifted rows of a's y-coefficients in descending order, then m shifted
    rows of b's.  Its determinant is the resultant with respect to y.
    """
    if a.is_zero() or b.is_zero():
        raise InvalidInput("sylvester matrix requires nonzero polynomials")
    m, n = a.degree, b.degree
    size = m + n
    a_desc = [a[m - k] for k in range(m + 1)]
    b_desc = [b[n - k] for k in range(n + 1)]
    rows = []
    for s in range(n):
        rows.append([Poly()] * s + a_desc + [Poly()] * (size - m - 1 - s))
    for s in range(m):
        rows.append([Poly()] * s + b_desc + [Poly()] * (size - n - 1 - s))
    return rows


def resultant(a: BiPoly, b: BiPoly) -> Poly:
    """Resultant of a and b with respect to y, via the Sylvester determinant.

    For a = a_m * prod(y - alpha_i) and b = b_n * prod(y - beta_j) this equals
    a_m^n * b_n^m * prod_{i,j} (alpha_i - beta_j).
    """
    return det_fraction_free(sylvester(a, b))


def _substitution_power(p: Poly, power: int | None) -> int:
    """The power e of a y-substitution of p: deg(p) by default, never below it."""
    if p.is_zero():
        raise InvalidInput("substitution of the zero polynomial is not useful")
    e = p.degree if power is None else power
    if e < p.degree:
        raise InvalidInput("power must be at least deg(p)")
    return e


def sub_one_minus_y(p: Poly, power: int | None = None) -> BiPoly:
    """(1-y)^e * p(x/(1-y)) as a BiPoly, where e defaults to deg(p).

    Expands to sum_i p_i x^i (1-y)^{e-i}, so the coefficient of y^k is
    (-1)^k sum_i C(e-i, k) p_i x^i; e may exceed deg(p) but not fall short
    of it.  For p = prod(1 - alpha_i x) and e = deg(p) the result is
    prod((1 - alpha_i x) - y), the left argument of the binomial-denominator
    resultant.

    >>> sub_one_minus_y(Poly([1, -3]), 2)
    BiPoly(y^0: 1 - 3*x, y^1: -2 + 3*x, y^2: 1)
    """
    e = _substitution_power(p, power)
    out = []
    for k in range(e + 1):
        sign = -1 if k % 2 else 1
        out.append(Poly._make([sign * comb(e - i, k) * c for i, c in enumerate(p.coeffs[: e - k + 1])]))
    return BiPoly._make(out)


def sub_x_over_y(p: Poly, power: int | None = None) -> BiPoly:
    """y^e * p(x/y) as a BiPoly, where e defaults to deg(p).

    The coefficient of y^{e-j} is p_j x^j.  For p = prod(1 - beta_j x) and
    e = deg(p) the result is prod(y - beta_j x).
    """
    e = _substitution_power(p, power)
    out = [Poly() for _ in range(e + 1)]
    for j, c in enumerate(p.coeffs):
        out[e - j] = Poly.monomial(j, c)
    return BiPoly(out)


def lift_to_y(p: Poly) -> BiPoly:
    """p(y): the same coefficients read as constants in x."""
    _substitution_power(p, None)
    return BiPoly(p.coeffs)


def _row_reduce(rows: Sequence[Sequence], rhs: Sequence):
    """Gauss-Jordan elimination over any exact field.

    Returns (reduced augmented matrix, pivot columns, consistent).  Entries
    must support +, -, *, / and truth testing for nonzero.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    nvars = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(nvars):
        pivot_row = None
        for i in range(r, len(aug)):
            if aug[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][col]
        aug[r] = [e / pv for e in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    consistent = all(not aug[i][-1] for i in range(r, len(aug)))
    return aug, pivots, consistent


def solve_exact(rows: Sequence[Sequence], rhs: Sequence):
    """One exact solution of rows * v = rhs over Fraction, or None if inconsistent.

    Entries must be integers or Fractions and the rows of one length;
    anything else is InvalidInput.  Free variables are set to zero.
    """
    if len(rows) != len(rhs):
        raise InvalidInput("matrix and right-hand side sizes differ")
    if len({len(r) for r in rows}) > 1:
        raise InvalidInput("matrix rows differ in length")
    aug, pivots, consistent = _row_reduce([[_fr(e) for e in r] for r in rows], [_fr(b) for b in rhs])
    if not consistent:
        return None
    sol = [Fraction(0)] * (len(rows[0]) if rows else 0)
    for i, col in enumerate(pivots):
        sol[col] = aug[i][-1]
    return sol

