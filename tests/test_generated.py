"""Generated inputs: the four methods against each other and a brute-force series.

Operands have denominator degree 0-3 and cover improper numerators, pure
polynomials, repeated roots and non-integer rational coefficients.  The
draws are derandomized, so every run checks the same examples.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from binprod import METHODS, Poly, RatFun, binomial_product, hadamard_product  # noqa: E402

scalars = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero = scalars.filter(bool)
# drawn with replacement, so a product of these factors has repeated roots
roots = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def operands(draw):
    deg = draw(st.integers(0, 3))
    if draw(st.booleans()):
        factors = [Poly([1, -r]) for r in draw(st.lists(roots, min_size=deg, max_size=deg))]
    else:
        factors = [Poly([1, *draw(st.lists(scalars, min_size=deg, max_size=deg))])]
    den = math.prod(factors, start=Poly.one())
    # up to one degree past the denominator, or a cubic when den = 1
    top = draw(st.integers(0, max(den.degree + 1, 3 * (den.degree == 0))))
    num = Poly([*draw(st.lists(scalars, min_size=top, max_size=top)), draw(nonzero)])
    return RatFun(num, den)


def brute(kind, a, b, order):
    fs, gs = a.expand(order).coeffs, b.expand(order).coeffs
    if kind == "hadamard":
        return tuple(f * g for f, g in zip(fs, gs))
    return tuple(sum(math.comb(n, k) * fs[k] * gs[n - k] for k in range(n + 1)) for n in range(order))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(operands(), operands())
def test_four_methods_agree_with_brute_force(a, b):
    for kind, product in (("binomial", binomial_product), ("hadamard", hadamard_product)):
        got = product(a, b, method=METHODS[0])
        for method in METHODS[1:]:
            assert product(a, b, method=method) == got
        # and, independently of every route, the brute-force series of the
        # operands, to twice the size of the answer
        order = 2 * (got.num.degree + got.den.degree) + 4
        assert got.expand(order).coeffs == brute(kind, a, b, order)
