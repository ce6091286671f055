"""End-to-end acceptance gate.

One test per acceptance criterion, numbered to match the project checklist.
Every comparison is exact (tolerance zero); the timed criteria assert their
wall-clock budgets.  Each test ends by printing a single

    [criterion N] PASS <description>

line, visible under `pytest -v -s` or in the captured-output section.
"""

import random
import time
from fractions import Fraction

import pytest

from binprod import (
    METHODS,
    Poly,
    RatFun,
    ReconstructionFailed,
    binomial_product,
    hadamard_product,
    reconstruct_rational,
    run_identity_suite,
)
from binprod.cli import main
from binprod.convolve import closed_form_bprod, closed_form_hprod
from binprod.polycore import det_fraction_free, sub_one_minus_y, sub_x_over_y, sylvester
from binprod.ratfun import series_binomial, series_hadamard
from binprod.seqlib import identity_ids
from binprod.symfun import denominator_from_power_sums, power_sums


def announce(n: int, text: str) -> None:
    print(f"[criterion {n}] PASS {text}")


PAIR_SEED = 20260816


def thirty_pairs():
    """The shared random corpus for criteria 5 and 6.

    Proper rational functions: denominator degree <= 3, integer coefficients
    in [-5, 5], constant term 1, numerator degree strictly below.
    """
    rng = random.Random(PAIR_SEED)

    def proper():
        while True:
            d = rng.randint(1, 3)
            den = Poly([1] + [rng.randint(-5, 5) for _ in range(d)])
            if den.degree != d:
                continue
            num = Poly([rng.randint(-5, 5) for _ in range(d)])
            if num:
                return RatFun(num, den)

    return [(proper(), proper()) for _ in range(30)]


_PRODUCT_CACHE = {}


def computed_products():
    """Reference products of the shared corpus, computed once."""
    if "pairs" not in _PRODUCT_CACHE:
        pairs = thirty_pairs()
        _PRODUCT_CACHE["pairs"] = pairs
        _PRODUCT_CACHE["bprod"] = [binomial_product(a, b) for a, b in pairs]
        _PRODUCT_CACHE["hprod"] = [hadamard_product(a, b) for a, b in pairs]
    return _PRODUCT_CACHE["pairs"], _PRODUCT_CACHE["bprod"], _PRODUCT_CACHE["hprod"]


def test_criterion_01(capsys):
    """Fibonacci obprod Pell end-to-end through the CLI, every method, < 1 s each."""
    want = "(2*x^2 - 3*x^3) / (1 - 6*x + 7*x^2 + 6*x^3 - 9*x^4)"
    for method in METHODS:
        start = time.monotonic()
        rc = main(["bprod", "x/(1-x-x^2)", "x/(1-2x-x^2)", "--method", method])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out == want, method
        assert elapsed < 1.0, (method, elapsed)
    with capsys.disabled():
        announce(1, "CLI Fibonacci obprod Pell exact under all four methods in < 1 s")


def test_criterion_02():
    """Sylvester determinant of the worked 4x4 matrix."""
    u = Poly([1, -1, -1])
    v = Poly([1, -2, -1])
    m = sylvester(sub_one_minus_y(u), sub_x_over_y(v))
    zero = Poly()
    assert m == [
        [Poly([1]), Poly([-2, 1]), Poly([1, -1, -1]), zero],
        [zero, Poly([1]), Poly([-2, 1]), Poly([1, -1, -1])],
        [Poly([1]), Poly([0, -2]), Poly([0, 0, -1]), zero],
        [zero, Poly([1]), Poly([0, -2]), Poly([0, 0, -1])],
    ]
    assert det_fraction_free(m) == Poly([1, -6, 7, 6, -9])
    announce(2, "worked 4x4 Sylvester determinant equals 1 - 6x + 7x^2 + 6x^3 - 9x^4")


def test_criterion_03():
    """Identity suite (a)-(l) passes exactly in under 30 seconds."""
    start = time.monotonic()
    report = run_identity_suite()
    elapsed = time.monotonic() - start
    assert [c.id for c in report.checks] == identity_ids() == list("abcdefghijkl")
    failures = [c.id for c in report.checks if c.status != "pass"]
    assert report.passed and not failures, failures
    assert elapsed < 30.0, elapsed
    announce(3, f"identity suite (a)-(l) all pass in {elapsed:.2f} s")


def test_criterion_04():
    """Eight-row symmetric-function table for 1-x-x^2 and 1-2x-x^2, n = 0..4."""

    def elementary(den):
        # e_k = (-1)^k [x^k] den for den = prod(1 - alpha_i x)
        return [c if k % 2 == 0 else -c for k, c in enumerate(den.coeffs)]

    ua, vb = Poly([1, -1, -1]), Poly([1, -2, -1])
    assert elementary(ua) == [1, 1, -1]
    assert elementary(vb) == [1, 2, -1]
    pa = power_sums(ua, 4)
    pb = power_sums(vb, 4)
    assert pa.coeffs == (2, 1, 3, 4, 7)
    assert pb.coeffs == (2, 2, 6, 14, 34)
    star = series_hadamard(pa, pb)
    circ = series_binomial(pa, pb)
    assert star.coeffs == (4, 2, 18, 56, 238)
    assert circ.coeffs == (4, 6, 22, 72, 278)
    assert elementary(denominator_from_power_sums(star)) == [1, 2, -7, 2, 1]
    assert elementary(denominator_from_power_sums(circ)) == [1, 6, 7, -6, -9]
    announce(4, "all eight power-sum/elementary rows match the printed table, n = 0..4")


def test_criterion_05():
    """Four-way method agreement on 30 random proper pairs, both products, < 60 s."""
    start = time.monotonic()
    pairs, bprods, hprods = computed_products()
    for idx, (a, b) in enumerate(pairs):
        for method in METHODS:
            assert binomial_product(a, b, method=method) == bprods[idx], (idx, method)
            assert hadamard_product(a, b, method=method) == hprods[idx], (idx, method)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    announce(5, f"30 pairs x 4 methods agree for both products in {elapsed:.2f} s")


def test_criterion_06():
    """Brute-force coefficient oracle for the same 30 pairs to order 25."""
    import math

    order = 25
    pairs, bprods, hprods = computed_products()
    for idx, (a, b) in enumerate(pairs):
        sa = a.expand(order + 1).coeffs
        sb = b.expand(order + 1).coeffs
        binom = tuple(
            sum(math.comb(n, k) * sa[k] * sb[n - k] for k in range(n + 1))
            for n in range(order + 1)
        )
        term = tuple(sa[n] * sb[n] for n in range(order + 1))
        assert bprods[idx].expand(order + 1).coeffs == binom, idx
        assert hprods[idx].expand(order + 1).coeffs == term, idx
    announce(6, "expansions to order 25 match direct binomial and termwise sums")


def test_criterion_07():
    """Improper inputs: the three worked products reproduce their closed forms."""
    # distinct linear factors on both sides
    a = RatFun(Poly.x(), Poly([1, -1]) * Poly([1, -2]))
    b = RatFun(Poly.x(), Poly([1, -3]) * Poly([1, -5]))
    want = RatFun(
        Poly([0, 0, 2, -11]),
        Poly([1, -4]) * Poly([1, -5]) * Poly([1, -6]) * Poly([1, -7]),
    )
    for method in METHODS:
        assert binomial_product(a, b, method=method) == want

    # improper operand: numerator degree exceeds denominator degree
    a = RatFun(Poly.monomial(3), Poly([1, -1]))
    b = RatFun(Poly.one(), Poly([1, -2]))
    want = RatFun(Poly.monomial(3), Poly([1, -2]) ** 3 * Poly([1, -3]))
    for method in METHODS:
        assert binomial_product(a, b, method=method) == want

    # repeated factors; the reduced answer drops one bound factor
    a = RatFun(Poly.monomial(2), Poly([1, -1]) ** 2)
    b = RatFun(Poly.monomial(2), Poly([1, -2]) ** 2)
    want = RatFun(
        Poly([6, -30, 49, -27]).shift(4),
        Poly([1, -1]) ** 2 * Poly([1, -2]) ** 2 * Poly([1, -3]) ** 3,
    )
    for method in METHODS:
        assert binomial_product(a, b, method=method) == want
    announce(7, "three worked improper products reproduce their printed closed forms")


def test_criterion_08():
    """Closed forms agree with the engines: geometric-power grid and termwise law."""
    alpha, beta = Fraction(2, 3), Fraction(-3, 5)
    for j in range(5):
        for k in range(5):
            lhs = closed_form_bprod(j, alpha, k, beta)
            fa = RatFun(Poly.monomial(j), Poly([1, -alpha]) ** (j + 1))
            fb = RatFun(Poly.monomial(k), Poly([1, -beta]) ** (k + 1))
            assert lhs == binomial_product(fa, fb), (j, k)

    rng = random.Random(808)
    done = 0
    while done < 10:
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        if i > m + j or j > n + i:
            continue
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        fa = RatFun(Poly.monomial(i), Poly([1, -a]) ** (m + 1))
        fb = RatFun(Poly.monomial(j), Poly([1, -b]) ** (n + 1))
        assert closed_form_hprod(i, a, m, j, b, n) == hadamard_product(fa, fb)
        done += 1
    announce(8, "closed forms match the engines on the 5x5 grid and 10 random tuples")


def test_criterion_09():
    """Algebraic laws on 20 random triples per product, exact reduced equality."""
    rng = random.Random(909)

    def small():
        while True:
            d = rng.randint(1, 2)
            den = Poly([1] + [rng.randint(-3, 3) for _ in range(d)])
            num = Poly([rng.randint(-3, 3) for _ in range(d)])
            if den.degree == d and num:
                return RatFun(num, den)

    one = RatFun(1)
    unit_star = RatFun.geometric(1)
    for _ in range(20):
        a, b, c = small(), small(), small()
        assert binomial_product(a, b) == binomial_product(b, a)
        assert binomial_product(binomial_product(a, b), c) == binomial_product(
            a, binomial_product(b, c)
        )
        assert binomial_product(a, one) == a
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert (
            binomial_product(RatFun.geometric(alpha), RatFun.geometric(-alpha)) == one
        )

        assert hadamard_product(a, b) == hadamard_product(b, a)
        assert hadamard_product(hadamard_product(a, b), c) == hadamard_product(
            a, hadamard_product(b, c)
        )
        assert hadamard_product(a, unit_star) == a
    announce(9, "commutativity, associativity, units, and geometric inverses hold")


def test_criterion_10():
    """Reconstruction round-trip with exact bounds; one-too-small bounds fail."""
    rng = random.Random(1010)
    done = 0
    while done < 20:
        dd = rng.randint(1, 3)
        nd = rng.randint(0, 3)
        den = Poly([1] + [rng.randint(-4, 4) for _ in range(dd)])
        num = Poly([rng.randint(-4, 4) for _ in range(nd)] + [rng.randint(1, 4)])
        f = RatFun(num, den)
        dd, nd = f.den.degree, f.num.degree
        if dd < 1:
            continue
        series = f.expand(nd + dd + 3)
        assert reconstruct_rational(series, dd, nd) == f
        with pytest.raises(ReconstructionFailed):
            reconstruct_rational(series, dd - 1, nd)
        if nd >= 1:
            with pytest.raises(ReconstructionFailed):
                reconstruct_rational(series, dd, nd - 1)
        done += 1
    announce(10, "20 round-trips recover exactly; short bounds raise ReconstructionFailed")
