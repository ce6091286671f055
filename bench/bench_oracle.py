"""Brute-force reference for checking binprod's outputs.

Everything here is independent of binprod: operand series come from the
defining recurrence of num/den, products are taken coefficient by
coefficient with `math.comb`, and printed results are parsed back from
their canonical text.  A result P/Q is accepted when Q * S = P holds to
enough terms of the reference series S that no other rational function
within the known degree bounds could also satisfy it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence, Tuple

Coeffs = Tuple[Fraction, ...]


def trim(coeffs: Sequence) -> Coeffs:
    """Coefficients as Fractions without trailing zeros."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def degree(coeffs: Sequence) -> int:
    """Degree of a coefficient list; -1 for the zero polynomial."""
    return len(trim(coeffs)) - 1


def _exact(coeffs: Sequence) -> list:
    """Python ints when every coefficient is integral, else Fractions.

    Integer arithmetic gives the same values and skips a gcd per operation.
    """
    values = [Fraction(c) for c in coeffs]
    if all(v.denominator == 1 for v in values):
        return [v.numerator for v in values]
    return values


def series(num: Sequence, den: Sequence, order: int) -> list:
    """First ``order`` coefficients of num/den, for den(0) = 1."""
    if not den or den[0] != 1:
        raise ValueError("reference series need a denominator with constant term 1")
    num, den = _exact(num), _exact(den)
    out: list = []
    for n in range(order):
        c = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            c -= den[j] * out[n - j]
        out.append(c)
    return out


def binomial_series(a: Sequence, b: Sequence) -> list:
    """c_n = sum_k C(n,k) a_k b_{n-k}, term by term."""
    order = min(len(a), len(b))
    return [sum(math.comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(order)]


def hadamard_series(a: Sequence, b: Sequence) -> list:
    """c_n = a_n b_n."""
    return [x * y for x, y in zip(a, b)]


def product_series(a: Sequence, b: Sequence) -> list:
    """Truncated Cauchy product, to the shorter length."""
    order = min(len(a), len(b))
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(order)]


def gcd_degree(p: Sequence, q: Sequence) -> int:
    """Degree of gcd(p, q) over Q, by Euclid's algorithm on Fractions."""
    a, b = list(trim(p)), list(trim(q))
    while b:
        while len(a) >= len(b):
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            a = list(trim(a))
        a, b = b, a
    return len(a) - 1


# ---------------------------------------------------------------------------
# degree bounds of the exact products, as (numerator, denominator) degrees


def binomial_bound(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    """Degree bounds of a (binomial) b from the operands' (num, den) degrees.

    With m, n the denominator degrees and u = max(deg a.num + 1 - m, 0),
    v = max(deg b.num + 1 - n, 0), the product is T / (a.den^v b.den^u R)
    where R = prod(1 - (alpha_i + beta_j) x) has degree m n and
    deg T < (u + m)(v + n).
    """
    (na, m), (nb, n) = a, b
    u = max(na + 1 - m, 0)
    v = max(nb + 1 - n, 0)
    return (u + m) * (v + n) - 1, v * m + u * n + m * n


def hadamard_bound(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    """Degree bounds of a (Hadamard) b.

    Splitting each operand into polynomial part plus proper part, the proper
    x proper piece has denominator degree m n and a numerator of lower
    degree; the polynomial pieces add a polynomial of degree at most
    max(deg a.num - m, deg b.num - n).
    """
    (na, m), (nb, n) = a, b
    return max(m * n - 1, max(na - m, nb - n) + m * n), m * n


def sum_bound(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    (na, da), (nb, db) = a, b
    return max(na + db, nb + da), da + db


def power_bound(a: Tuple[int, int], k: int) -> Tuple[int, int]:
    return a[0] * k, a[1] * k


def terms_needed(bound: Tuple[int, int], num_deg: int, den_deg: int) -> int:
    """Terms of agreement that prove a result P/Q equal to the true T.

    If T = A/B with deg A <= bound[0], deg B <= bound[1], then T - P/Q has
    numerator A Q - P B of degree at most max(bound[0] + deg Q,
    deg P + bound[1]); agreement beyond that degree forces it to vanish.
    Never fewer than deg P + deg Q + 2 terms.
    """
    proof = max(bound[0] + den_deg, num_deg + bound[1]) + 1
    return max(proof, num_deg + den_deg + 2)


def check_ratfun(num: Sequence, den: Sequence, reference: Sequence) -> Optional[str]:
    """None when den * reference = num to len(reference) terms, else why not."""
    num, den = _exact(trim(num)), _exact(trim(den))
    if not den or den[0] != 1:
        return f"denominator {den!r} is not normalised to constant term 1"
    for n in range(len(reference)):
        acc = sum(den[j] * reference[n - j] for j in range(min(n, len(den) - 1) + 1))
        want = num[n] if n < len(num) else 0
        if acc != want:
            return f"coefficient {n} of den*series is {acc}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# canonical text


_TERM = re.compile(r"^(?:(?P<coef>\d+(?:/\d+)?)(?:\*(?P<var1>x(?:\^\d+)?))?|(?P<var2>x(?:\^\d+)?))$")


def parse_poly(text: str) -> Coeffs:
    """Coefficients of a polynomial printed as ``1 - 6*x + 7/2*x^2``."""
    text = text.strip()
    if text == "0":
        return ()
    coeffs: dict = {}
    for piece in text.replace(" - ", " + -").split(" + "):
        sign = -1 if piece.startswith("-") else 1
        match = _TERM.match(piece[1:] if sign < 0 else piece)
        if match is None:
            raise ValueError(f"cannot read term {piece!r} of {text!r}")
        var = match.group("var1") or match.group("var2")
        power = 0 if var is None else (int(var[2:]) if "^" in var else 1)
        mag = Fraction(match.group("coef")) if match.group("coef") else Fraction(1)
        if power in coeffs:
            raise ValueError(f"power {power} repeated in {text!r}")
        coeffs[power] = sign * mag
    top = max(coeffs)
    return trim([coeffs.get(k, 0) for k in range(top + 1)])


def parse_ratfun(text: str) -> Tuple[Coeffs, Coeffs]:
    """(num, den) of a rational function printed as ``(P) / (Q)`` or ``P``."""
    text = text.strip()
    if text.startswith("(") and ") / (" in text and text.endswith(")"):
        num, den = text[1:-1].split(") / (")
        return parse_poly(num), parse_poly(den)
    return parse_poly(text), (Fraction(1),)


def coeff_bits(*polys: Sequence) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for p in polys for c in map(Fraction, p)),
        default=0,
    )


_REC_TERM = re.compile(r"(-|\+ |- )?(?:(\d+(?:/\d+)?)\*)?c\(n-(\d+)\)")


def parse_recurrence(text: str) -> Tuple[Coeffs, Coeffs]:
    """(num, den) of the series described by ``binprod recurrence`` output.

    c(n) = sum_j r_j c(n-j) for n >= s with initial values c(0..s-1) is the
    series of P/Q with Q = 1 - sum_j r_j x^j and P = (Q * initial) cut
    below x^s.
    """
    lines = text.strip().splitlines()
    order = int(lines[0].removeprefix("order: "))
    match = re.fullmatch(r"c\(n\) = (.*) for n >= (\d+)", lines[1])
    if match is None:
        raise ValueError(f"cannot read recurrence line {lines[1]!r}")
    body, start = match.group(1), int(match.group(2))
    den = [Fraction(0)] * (order + 1)
    den[0] = Fraction(1)
    if body != "0":
        for sign, coef, lag in _REC_TERM.findall(body):
            value = Fraction(coef) if coef else Fraction(1)
            den[int(lag)] = value if sign.strip() == "-" else -value
    initial = [Fraction(v) for v in lines[2].removeprefix("initial: ").split(", ")] if start else []
    if len(initial) != start:
        raise ValueError(f"expected {start} initial values, got {len(initial)}")
    num = product_series(den + [Fraction(0)] * start, initial)[:start]
    return trim(num), trim(den)
