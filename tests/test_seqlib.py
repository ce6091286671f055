"""Named generating functions, multisections, and the identity suite."""

import random
from fractions import Fraction

import pytest

from binprod import InvalidInput, Poly, RatFun, named_gf, run_identity_suite
from binprod.seqlib import (
    fib_number,
    fibonacci_multisection,
    identity_ids,
    lucas_multisection,
    lucas_number,
    sequence_names,
)


def recurrence_check(gf: RatFun, terms: int = 30) -> bool:
    # coefficients must satisfy the recurrence the denominator encodes
    coeffs = gf.expand(terms).coeffs
    den = gf.den
    start = max(gf.num.degree + 1, den.degree)
    for n in range(start, terms):
        acc = sum(den[j] * coeffs[n - j] for j in range(den.degree + 1))
        if acc != 0:
            return False
    return True


class TestRegistry:
    def test_all_names_present(self):
        assert sequence_names() == sorted(
            ["fib", "lucas", "pell", "trib", "perrin", "jacobsthal", "q", "r", "g"]
        )

    def test_every_gf_obeys_its_recurrence(self):
        entries = [
            named_gf("fib"),
            named_gf("lucas"),
            named_gf("pell"),
            named_gf("trib"),
            named_gf("trib", (5, -1, 2)),
            named_gf("perrin"),
            named_gf("jacobsthal"),
            named_gf("q", (3,)),
            named_gf("q", (-2,)),
            named_gf("r"),
            named_gf("g", (1, 2)),
            named_gf("g", (Fraction(1, 2), -3)),
        ]
        for entry in entries:
            assert recurrence_check(entry.gf, 30), entry.name

    def test_initial_values(self):
        cases = {
            "fib": [0, 1, 1, 2, 3, 5, 8],
            "lucas": [2, 1, 3, 4, 7, 11, 18],
            "pell": [0, 1, 2, 5, 12, 29, 70],
            "trib": [0, 1, 1, 2, 4, 7, 13],
            "perrin": [3, 0, 2, 3, 2, 5, 5],
            "jacobsthal": [0, 1, 1, 3, 5, 11, 21],
        }
        for name, want in cases.items():
            got = [int(c) for c in named_gf(name).gf.expand(len(want)).coeffs]
            assert got == want, name

    def test_tribonacci_with_initial_values(self):
        gf = named_gf("trib", (2, 3, 10)).gf
        got = [int(c) for c in gf.expand(6).coeffs]
        assert got == [2, 3, 10, 15, 28, 53]

    def test_parametric_families(self):
        q = named_gf("q", (2,)).gf
        assert q == RatFun(Poly([3, 0, -1]), Poly([1, 0, -1, -2]))
        g = named_gf("g", (1, 1)).gf
        assert g == named_gf("lucas").gf
        r = named_gf("r").gf
        assert [int(c) for c in r.expand(6).coeffs] == [1, 0, 0, 6, -4, 0]

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInput):
            named_gf("catalan")

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidInput):
            named_gf("fib", (1,))
        with pytest.raises(InvalidInput):
            named_gf("trib", (1, 2))
        with pytest.raises(InvalidInput):
            named_gf("g", (1,))


class TestSignedIndices:
    def test_forward_values(self):
        assert [fib_number(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
        assert [lucas_number(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]

    def test_negative_extension(self):
        assert [fib_number(n) for n in range(-6, 0)] == [-8, 5, -3, 2, -1, 1]
        assert [lucas_number(n) for n in range(-6, 0)] == [18, -11, 7, -4, 3, -1]

    def test_recurrence_holds_across_zero(self):
        for n in range(-10, 10):
            assert fib_number(n + 1) == fib_number(n) + fib_number(n - 1)
            assert lucas_number(n + 1) == lucas_number(n) + lucas_number(n - 1)


class TestMultisections:
    def test_fibonacci_grid(self):
        for p in range(-3, 5):
            for q in range(-2, 4):
                gf = fibonacci_multisection(p, q)
                got = gf.expand(12).coeffs
                want = tuple(Fraction(fib_number(p * n + q)) for n in range(12))
                assert got == want, (p, q)

    def test_lucas_grid(self):
        for p in range(-3, 5):
            for q in range(-2, 4):
                gf = lucas_multisection(p, q)
                got = gf.expand(12).coeffs
                want = tuple(Fraction(lucas_number(p * n + q)) for n in range(12))
                assert got == want, (p, q)

    def test_known_sections(self):
        assert fibonacci_multisection(1, 0) == named_gf("fib").gf
        assert lucas_multisection(1, 0) == named_gf("lucas").gf
        assert fibonacci_multisection(2, 0) == RatFun(Poly.x(), Poly([1, -3, 1]))
        assert lucas_multisection(2, 0) == RatFun(Poly([2, -3]), Poly([1, -3, 1]))


class TestIdentitySuite:
    def test_full_suite_passes(self):
        report = run_identity_suite()
        assert report.passed
        assert [c.id for c in report.checks] == identity_ids()
        assert identity_ids() == list("abcdefghijkl")

    def test_records_and_text(self):
        report = run_identity_suite(only="a")
        records = report.to_records()
        assert len(records) == 1
        assert records[0]["id"] == "a"
        assert records[0]["status"] == "pass"
        assert records[0]["witness"] == ""
        assert "[PASS] (a)" in report.to_text()

    def test_filter_by_slug_and_id(self):
        report = run_identity_suite(only=["hadamard-second-order", "k"])
        assert [c.id for c in report.checks] == ["j", "k"]
        assert report.passed

    def test_unknown_filter_rejected(self):
        with pytest.raises(InvalidInput):
            run_identity_suite(only="z")

    @pytest.mark.parametrize("only", [[], "", ",", [" ", ""]], ids=repr)
    def test_empty_filter_rejected(self, only):
        with pytest.raises(InvalidInput, match="selects no identity"):
            run_identity_suite(only=only)

    def test_perturbed_lucas_fails_its_identities(self):
        wrong = RatFun(Poly([2, -2]), Poly([1, -1, -1]))
        report = run_identity_suite(overrides={"lucas": wrong})
        by_id = {c.id: c for c in report.checks}
        assert not report.passed
        assert by_id["a"].status == "fail"
        assert by_id["a"].witness != ""
        # Hadamard checks never touch the Lucas series
        assert by_id["j"].status == "pass"
        assert by_id["k"].status == "pass"

    def test_witness_text(self):
        wrong = RatFun(Poly([2, -1]), Poly([1, -1, -2]))
        report = run_identity_suite(only="a", overrides={"lucas": wrong})
        assert report.to_text().splitlines() == [
            "[FAIL] (a) church-bicknell [no parameters]",
            "       binomial self-convolution of Fibonacci equals (2^n L_n - 2)/5",
            "       witness: fib (.) fib vs (L(2x) - 2/(1-x))/5: (2*x^2) / (1 - 3*x - 2*x^2 + 4*x^3)"
            " != (18/5*x^2) / (1 - 3*x - 6*x^2 + 8*x^3)",
            "0/1 identity groups verified exactly",
        ]
        [record] = report.to_records()
        assert list(record) == ["id", "slug", "description", "params", "status", "witness"]
        assert record["status"] == "fail"
        assert record["witness"] == report.checks[0].witness

    def test_perturbed_tribonacci_fails_decomposition_check(self):
        wrong = RatFun(Poly([0, 1, 1]), Poly([1, -1, -1, -1]))
        report = run_identity_suite(only="f", overrides={"trib": wrong})
        assert report.checks[0].status == "fail"

    def test_seed_changes_draws_but_not_verdicts(self):
        a = run_identity_suite(seed="alternative")
        assert a.passed
