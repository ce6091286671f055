"""Generated inputs: the four methods against each other and a brute-force series.

Operands have denominator degree 0-3 and cover improper numerators, pure
polynomials, repeated roots and non-integer rational coefficients.  The
symfun denominators are also checked against the resultant ones on their
own, including pairs whose root sums cancel.  The draws are derandomized,
so every run checks the same examples.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from binprod import METHODS, Poly, RatFun, binomial_product, hadamard_product  # noqa: E402
from binprod.convolve import binomial_denominator, hadamard_denominator  # noqa: E402
from binprod.symfun import denominator_via_symfun  # noqa: E402

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


@st.composite
def denominators(draw):
    """den(0) = 1 and degree 1-3, with rational roots or rational coefficients."""
    deg = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return math.prod((Poly([1, -r]) for r in draw(st.lists(roots, min_size=deg, max_size=deg))), start=Poly.one())
    return Poly([1, *draw(st.lists(scalars, min_size=deg - 1, max_size=deg - 1)), draw(nonzero)])


@st.composite
def cancelling_pairs(draw):
    """(u, v) where v has the negatives of some of u's roots, so some alpha_i + beta_j = 0."""
    u_roots = draw(st.lists(roots, min_size=1, max_size=3))
    shared = draw(st.lists(st.sampled_from(u_roots), min_size=1, max_size=2))
    extra = draw(st.lists(roots, max_size=1))
    u = math.prod((Poly([1, -r]) for r in u_roots), start=Poly.one())
    v = math.prod((Poly([1, r]) for r in shared), start=Poly([1, *(-r for r in extra)]))
    return u, v


def assert_symfun_matches_resultants(u, v):
    assert denominator_via_symfun(u, v, "binomial") == binomial_denominator(u, v)
    assert denominator_via_symfun(u, v, "hadamard") == hadamard_denominator(u, v)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(denominators(), denominators())
def test_symfun_denominators_match_resultants(u, v):
    assert_symfun_matches_resultants(u, v)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(cancelling_pairs())
def test_symfun_denominators_match_resultants_when_root_sums_cancel(pair):
    u, v = pair
    assert binomial_denominator(u, v).degree < u.degree * v.degree
    assert_symfun_matches_resultants(u, v)
