"""Expression language and command-line interface."""

import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from binprod import (
    METHODS,
    DivisionByZero,
    InternalInvariantViolation,
    InvalidInput,
    NotAPowerSeries,
    ParseError,
    Poly,
    RatFun,
    binomial_product,
    hadamard_product,
    named_gf,
    run_identity_suite,
)
import binprod.cli as cli
from binprod import convolve, pfrac, ratfun
from binprod.cli import evaluate_text, main, parse_expression, tokenize

FIB = named_gf("fib").gf
PELL = named_gf("pell").gf
LUCAS = named_gf("lucas").gf
X = RatFun(Poly.x())

# expressions exercising every operator, both unicode spellings, implicit
# multiplication, signed exponents, and sequence parameters
CORPUS = [
    "fib obprod pell",
    "x/(1 - x - x^2)",
    "(1 + x)^3/(1 - 2*x)",
    "-x + 2/3*x^3",
    "1/(1 - x)^2",
    "fib hprod (lucas + 1)",
    "g(1/2, -3) obprod trib(1, 0, 2)",
    "2*x^2 - 3*x^3",
    "(fib + lucas) hprod pell - x",
    "-(1 - x)^-1",
    "fib ⊙ pell",
    "fib ∗ pell",
    "2x^2 (1 + x)",
]


class TestTokenizer:
    def test_unicode_operators_are_operator_tokens(self):
        toks = tokenize("fib ⊙ pell")
        assert [(t.kind, t.text) for t in toks[:3]] == [("name", "fib"), ("op", "⊙"), ("name", "pell")]
        toks = tokenize("fib ∗ pell")
        assert (toks[1].kind, toks[1].text) == ("op", "∗")

    def test_positions_recorded(self):
        toks = tokenize("1 + xy")
        assert [(t.text, t.pos) for t in toks[:3]] == [("1", 0), ("+", 2), ("xy", 4)]

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("1 + $")
        assert exc.value.position == 4
        assert "at position 4" in str(exc.value)


class TestParser:
    def test_product_operators_bind_loosest(self):
        assert evaluate_text("fib obprod pell + x") == binomial_product(FIB, PELL + X)
        assert evaluate_text("fib hprod pell * x") == hadamard_product(FIB, PELL * X)

    def test_left_associative_chains(self):
        got = evaluate_text("fib obprod pell hprod lucas")
        assert got == hadamard_product(binomial_product(FIB, PELL), LUCAS)
        assert got != binomial_product(FIB, hadamard_product(PELL, LUCAS))
        assert evaluate_text("1 - x - x^2") == (1 - X) - X**2

    def test_implicit_multiplication(self):
        assert evaluate_text("2x^2") == 2 * X**2
        assert evaluate_text("x(1+x)") == X * (1 + X)
        assert evaluate_text("2 fib") == 2 * FIB

    def test_unary_minus_and_signed_exponent(self):
        assert evaluate_text("-x^2") == -(X**2)
        assert evaluate_text("(1-x)^-1") == (1 - X) ** -1

    def test_sequence_arguments(self):
        assert evaluate_text("g(1/2, -3)") == named_gf("g", [Fraction(1, 2), -3]).gf

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1/(1-x")
        assert exc.value.position == 6
        assert ")" in "".join(exc.value.expected)

    def test_adjacent_numbers_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("2 3")
        assert exc.value.position == 2

    @pytest.mark.parametrize(
        "text, typed, position",
        [("⊙", "⊙", 0), ("fib ⊙ ∗", "∗", 6), ("(∗)", "∗", 1), ("fib obprod hprod", "hprod", 11)],
    )
    def test_product_operator_reported_as_typed(self, capsys, text, typed, position):
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert exc.value.position == position
        kind = "name" if typed.isalpha() else "op"
        message = f"unexpected {kind} {typed!r} at position {position}"
        assert str(exc.value).startswith(message)
        assert main(["eval", text]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {message}")

    def test_trailing_operator_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 +")
        with pytest.raises(ParseError):
            parse_expression("fib obprod")


class TestEvaluation:
    def test_named_and_rational(self):
        assert evaluate_text("fib") == FIB
        assert evaluate_text("x/(1-x-x^2)") == FIB
        assert evaluate_text("(1-x)^-1") == RatFun(Poly.one(), Poly([1, -1]))

    def test_product_keywords_match_library(self):
        assert evaluate_text("fib obprod pell") == binomial_product(FIB, PELL)
        assert evaluate_text("fib ⊙ pell") == binomial_product(FIB, PELL)
        assert evaluate_text("fib hprod pell") == hadamard_product(FIB, PELL)
        assert evaluate_text("fib ∗ pell") == hadamard_product(FIB, PELL)

    def test_sequence_parameters_must_be_constants(self):
        with pytest.raises(InvalidInput):
            evaluate_text("g(x, 1)")

    def test_unknown_sequence(self):
        with pytest.raises(InvalidInput):
            evaluate_text("catalan")

    def test_not_a_power_series(self):
        with pytest.raises(NotAPowerSeries):
            evaluate_text("1/x")

    def test_printed_value_reads_back(self):
        # a reproducer writes operands with str(RatFun), so that must read back
        for text in CORPUS:
            f = evaluate_text(text)
            assert evaluate_text(str(f)) == f, text


class TestMainCommand:
    def test_eval_and_exit_codes(self, capsys):
        assert main(["eval", "fib"]) == 0
        assert capsys.readouterr().out.strip() == "(x) / (1 - x - x^2)"

        assert main(["eval", "1/(1-x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "position" in err

        assert main(["eval", "1/x"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_argparse_errors_return_2(self, capsys):
        assert main([]) == 2
        assert main(["bprod", "fib"]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bare_product_operator_is_a_parse_error(self, capsys):
        assert main(["bprod", "⊙", "fib"]) == 2
        assert capsys.readouterr().err.startswith("parse error: unexpected op '⊙' at position 0")

    def test_eval_json(self, capsys):
        assert main(["eval", "fib/2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"num": ["0", "1/2"], "den": ["1", "-1", "-1"]}

    def test_coeffs(self, capsys):
        assert main(["coeffs", "fib", "-n", "8"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["0", "1", "1", "2", "3", "5", "8", "13"]

        assert main(["coeffs", "fib", "--terms", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"coeffs": ["0", "1", "1", "2"]}

        assert main(["coeffs", "fib", "-n", "-1"]) == 1
        capsys.readouterr()

    def test_coeffs_prints_integers_over_4300_digits(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["coeffs", "1/(1-1000x)", "-n", "1500"]) == 0
        out = capsys.readouterr().out.split()
        assert len(out) == 1500
        assert out[-1] == "1" + "000" * 1499
        assert sys.get_int_max_str_digits() == limit

    def test_eval_of_a_5000_digit_literal(self, capsys):
        limit = sys.get_int_max_str_digits()
        literal = "9" + "0123456789" * 499 + "876543210"
        assert len(literal) == 5000
        assert main(["eval", literal]) == 0
        assert capsys.readouterr().out.strip() == literal
        assert sys.get_int_max_str_digits() == limit

    def test_nesting_over_the_limit_is_a_parse_error(self, capsys):
        deep = "(" * 2000 + "x" + ")" * 2000
        assert main(["eval", deep]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: nesting deeper than 100 levels at position 100")
        assert main(["eval", "--", "-" * 101 + "x"]) == 2
        assert "at position 100" in capsys.readouterr().err
        # a sequence's argument list opens a level too
        assert main(["eval", "g(" * 2000 + "1, 1" + ")" * 2000]) == 2
        assert "at position 201" in capsys.readouterr().err

    def test_nesting_at_the_limit_evaluates(self, capsys):
        assert main(["eval", "(" * 100 + "x" + ")" * 100]) == 0
        assert capsys.readouterr().out.strip() == "x"
        assert main(["eval", "--", "-" * 100 + "x"]) == 0
        assert capsys.readouterr().out.strip() == "x"
        assert main(["eval", "g(" * 100 + "1, 1" + ")" * 100]) == 1
        assert "must be rational constants" in capsys.readouterr().err

    def test_long_flat_sum_evaluates(self, capsys):
        # parses to an Add tree 2999 levels deep
        assert main(["eval", "+".join(["x"] * 3000)]) == 0
        assert capsys.readouterr().out.strip() == "3000*x"
        # sibling groups do not add up to a deeper nesting
        assert main(["eval", "+".join(["(-x)"] * 150)]) == 0
        assert capsys.readouterr().out.strip() == "-150*x"

    def test_bprod_every_method(self, capsys):
        want = "(2*x^2 - 3*x^3) / (1 - 6*x + 7*x^2 + 6*x^3 - 9*x^4)"
        for method in ("resultant", "symfun", "pfrac", "reconstruct"):
            rc = main(["bprod", "fib", "pell", "--method", method])
            assert rc == 0
            assert capsys.readouterr().out.strip() == want

    def test_cross_check_reports_agreement(self, capsys):
        assert main(["hprod", "fib", "pell", "--cross-check"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "methods agree: resultant, symfun, pfrac, reconstruct"

    def test_shared_denominator_keeps_the_full_resultant(self, capsys):
        # the plans use the degree-6 symmetric square for trib (.) trib, but
        # the denominator command still prints the degree-9 resultant
        assert main(["denominator", "trib", "trib", "--kind", "binomial"]) == 0
        want = "1 - 6*x + 8*x^2 + 4*x^3 - 32*x^5 + 4*x^6 + 56*x^7 - 16*x^8 - 32*x^9"
        assert capsys.readouterr().out.strip() == want

    @pytest.mark.parametrize(
        "argv, product",
        [
            (["bprod", "trib", "trib"], "(2*x^2 - 2*x^3 - 2*x^4 - 4*x^5) / (1 - 4*x + 2*x^3 + 12*x^4 - 8*x^5 - 16*x^6)"),
            (["hprod", "fib", "fib"], "(x - x^2) / (1 - 2*x - 2*x^2 + x^3)"),
        ],
        ids=["bprod trib trib", "hprod fib fib"],
    )
    def test_shared_denominator_cross_check(self, capsys, argv, product):
        assert main([*argv, "--cross-check"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [product, "methods agree: resultant, symfun, pfrac, reconstruct"]

    def test_denominator_both_kinds(self, capsys):
        assert main(["denominator", "fib", "pell", "--kind", "binomial"]) == 0
        assert capsys.readouterr().out.strip() == "1 - 6*x + 7*x^2 + 6*x^3 - 9*x^4"
        assert main(["denominator", "fib", "pell", "--kind", "hadamard", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"den": ["1", "-2", "-7", "-2", "1"]}

    def test_reconstruct_round_trip(self, tmp_path, capsys):
        assert main(["coeffs", "fib hprod pell", "-n", "12"]) == 0
        coeffs = capsys.readouterr().out
        path = tmp_path / "series.txt"
        path.write_text(coeffs, encoding="utf-8")
        rc = main(
            ["reconstruct", "--coeffs", str(path), "--den-deg", "4", "--num-deg", "3"]
        )
        assert rc == 0
        want = capsys.readouterr().out.strip()
        main(["hprod", "fib", "pell"])
        assert capsys.readouterr().out.strip() == want

    def test_reconstruct_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 oops", encoding="utf-8")
        rc = main(["reconstruct", "--coeffs", str(path), "--den-deg", "1", "--num-deg", "1"])
        assert rc == 1
        assert "oops" in capsys.readouterr().err

    def test_verify_pass(self, capsys):
        assert main(["verify", "--only", "a"]) == 0
        assert "[PASS] (a)" in capsys.readouterr().out

        assert main(["verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert [c["id"] for c in payload["checks"]] == list("abcdefghijkl")

    @pytest.mark.parametrize("only", ["", ",", " , "], ids=repr)
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_verify_empty_filter_exits_1(self, capsys, only, fmt):
        assert main(["verify", "--only", only, *fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the identity filter selects no identity\n"

    def test_verify_failure_exits_3(self, capsys, monkeypatch):
        wrong = RatFun(Poly([2, -2]), Poly([1, -1, -1]))

        def broken(only=None):
            return run_identity_suite(only=only, overrides={"lucas": wrong})

        monkeypatch.setattr(cli, "run_identity_suite", broken)
        assert main(["verify", "--only", "a"]) == 3
        assert "[FAIL] (a)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "exc",
        [InternalInvariantViolation("tail is nonzero"), KeyError("lost")],
        ids=["invariant", "unexpected"],
    )
    def test_internal_error_exits_4_with_reproducer(self, capsys, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "binomial_product", broken)
        limit = sys.get_int_max_str_digits()
        assert main(["bprod", "fib", "1/(1 - 2x)"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"internal error: {type(exc).__name__}: {exc}",
            "reproduce with: binprod bprod fib '1/(1 - 2x)'",
        ]
        assert sys.get_int_max_str_digits() == limit

    def test_recurrence_human(self, capsys):
        assert main(["recurrence", "fib obprod pell"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "order: 4",
            "c(n) = 6*c(n-1) - 7*c(n-2) - 6*c(n-3) + 9*c(n-4) for n >= 4",
            "initial: 0, 0, 2, 9",
        ]

    @pytest.mark.parametrize(
        "expr, line",
        [
            ("1/(1 - x/2 + x^2)", "c(n) = 1/2*c(n-1) - c(n-2) for n >= 2"),
            ("1/(1+x)", "c(n) = -c(n-1) for n >= 1"),
            ("x/(1 + x/3 - x^2 + 5x^3/7)", "c(n) = -1/3*c(n-1) + c(n-2) - 5/7*c(n-3) for n >= 3"),
            ("1/(1-x^3)", "c(n) = c(n-3) for n >= 3"),
        ],
    )
    def test_recurrence_signs_and_rational_coefficients(self, capsys, expr, line):
        assert main(["recurrence", expr]) == 0
        assert capsys.readouterr().out.splitlines()[1] == line

    def test_recurrence_polynomial(self, capsys):
        assert main(["recurrence", "x^2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["order: 0", "c(n) = 0 for n >= 3", "initial: 0, 0, 1"]

    def test_recurrence_json(self, capsys):
        assert main(["recurrence", "fib", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "order": 2,
            "coefficients": ["1", "1"],
            "valid_from": 2,
            "initial": ["0", "1"],
        }

    def test_sequences_listing(self, capsys):
        assert main(["sequences"]) == 0
        out = capsys.readouterr().out
        for name in ("fib", "lucas", "pell", "trib", "perrin", "jacobsthal"):
            assert f"{name}:" in out


class TestParseBeforeCompute:
    """A command parses every text it is given before it computes anything."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        for name in ("binomial_product", "hadamard_product"):

            def spy(*args, real=getattr(cli, name), **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["bprod", "fib obprod pell", "x +"],
            ["denominator", "fib obprod pell", "x +", "--kind", "binomial"],
            # the left operand alone would fail to evaluate, with exit 1
            ["hprod", "1/x", "x +"],
        ],
        ids=" ".join,
    )
    def test_two_operand_commands_parse_both_first(self, capsys, products, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("parse error: unexpected end of input at position 3")
        assert products == []

    @pytest.mark.parametrize("text", ["fib obprod pell +", "(fib hprod pell"])
    @pytest.mark.parametrize("command", [["eval"], ["coeffs", "-n", "5"], ["recurrence"]], ids=" ".join)
    def test_single_text_commands_parse_first(self, capsys, products, command, text):
        assert main([command[0], text, *command[1:]]) == 2
        assert capsys.readouterr().err.startswith("parse error:")
        assert products == []

    def test_the_spies_see_every_product(self, capsys, products):
        assert main(["bprod", "fib hprod pell", "fib obprod pell"]) == 0
        assert products == ["hadamard_product", "binomial_product", "binomial_product"]
        capsys.readouterr()


def run_in_process(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    # a child process must import the same binprod as this one, also when
    # pytest put src/ on sys.path itself rather than through PYTHONPATH
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_fresh(argv, setup=""):
    # main(argv) in a new process, whose first call builds the parser anew;
    # setup runs before that call
    script = f"import sys\nimport binprod.cli as cli\n{setup}\nsys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60, env=child_env()
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """main keeps one parser per process; no call leaks state into the next."""

    def test_parser_is_built_once(self, capsys):
        main(["sequences"])
        first = cli.build_parser()
        main(["eval", "fib"])
        assert cli.build_parser() is first
        capsys.readouterr()

    def test_json_flag_does_not_stick(self, capsys):
        first = run_in_process(capsys, ["bprod", "fib", "pell", "--json"])
        second = run_in_process(capsys, ["bprod", "fib", "pell"])
        assert json.loads(first[1])["den"] == ["1", "-6", "7", "6", "-9"]
        assert second[1].startswith("(") and not second[1].startswith("{")
        assert first == run_fresh(["bprod", "fib", "pell", "--json"])
        assert second == run_fresh(["bprod", "fib", "pell"])

    def test_method_falls_back_to_the_default(self, capsys, monkeypatch):
        methods = []

        def spy(a, b, method):
            methods.append(method)
            return hadamard_product(a, b, method=method)

        monkeypatch.setattr(cli, "hadamard_product", spy)
        first = run_in_process(capsys, ["hprod", "fib", "pell", "--method", "resultant"])
        second = run_in_process(capsys, ["hprod", "fib", "pell"])
        assert methods == ["resultant", "symfun"]
        assert first == run_fresh(["hprod", "fib", "pell", "--method", "resultant"])
        assert second == run_fresh(["hprod", "fib", "pell"])

    def test_bad_argv_then_good(self, capsys):
        bad = run_in_process(capsys, ["bprod", "fib"])
        good = run_in_process(capsys, ["bprod", "fib", "pell"])
        assert (bad[0], good[0]) == (2, 0)
        assert bad == run_fresh(["bprod", "fib"])
        assert good == run_fresh(["bprod", "fib", "pell"])

    def test_patch_after_an_earlier_call_takes_effect(self, capsys, monkeypatch):
        argv = ["bprod", "fib", "1/(1 - 2x)"]
        assert run_in_process(capsys, argv)[0] == 0

        def broken(*args, **kwargs):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "binomial_product", broken)
        patched = run_in_process(capsys, argv)
        assert patched[0] == 4
        setup = "def broken(*a, **k):\n    raise KeyError('lost')\ncli.binomial_product = broken"
        assert patched == run_fresh(argv, setup)

    def test_handlers_are_looked_up_per_call(self, capsys, monkeypatch):
        main(["sequences"])
        monkeypatch.setattr(cli, "_cmd_sequences", lambda args: 7)
        assert main(["sequences"]) == 7
        capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "binprod", "eval", "fib"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(x) / (1 - x - x^2)"


def random_operand(seed):
    # a proper or improper operand with non-integer coefficients, as text
    rng = random.Random(seed)

    def coeffs(n):
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]

    return str(RatFun(Poly(coeffs(rng.randint(1, 4))), Poly([1, *coeffs(rng.randint(1, 3))])))


# operand pairs for the default-method check: shared denominators (fib and
# lucas, trib and trib(1, 0, 2), cancelling root sums of 1 + 4x^2, a random
# operand over a rational cubic with itself), an improper operand,
# constants, malformed texts and random rational operands
METHOD_PAIRS = [
    ("fib", "lucas"),
    ("trib", "trib(1, 0, 2)"),
    ("x/(1+4x^2)", "x/(1+4x^2)"),
    ("fib", "pell"),
    ("perrin", "g(1/2, -3)"),
    ("(1 + x^3)/(1 - x)", "lucas"),
    ("0", "fib"),
    ("1", "1"),
    ("x +", "fib"),
    ("pell", "1/x"),
    *((random_operand(seed), random_operand(seed + 100)) for seed in range(3)),
    (random_operand(13), random_operand(13)),
]


@pytest.mark.parametrize("command", ["bprod", "hprod"])
@pytest.mark.parametrize("a, b", METHOD_PAIRS, ids=[f"{a} , {b}" for a, b in METHOD_PAIRS])
def test_default_method_prints_what_every_direct_route_prints(capsys, command, a, b):
    # the default moved from resultant to symfun; no printed byte may move
    for json_flag in ([], ["--json"]):
        argv = [command, a, b, *json_flag]
        default = run_in_process(capsys, argv)
        for method in ("resultant", "symfun"):
            assert run_in_process(capsys, [*argv, "--method", method]) == default, method


# one kernel of each route, by method; breaking it breaks that route only
KERNELS = {
    "resultant": (convolve, "_recover_numerator"),
    "symfun": (convolve, "_recover_numerator"),
    "pfrac": (pfrac, "constant_term_split"),
    "reconstruct": (ratfun, "solve_exact"),
}


def _break(monkeypatch, module, name, exc_type):
    def broken(*args, **kwargs):
        raise exc_type("forced failure")

    monkeypatch.setattr(module, name, broken)


class TestReproducer:
    @pytest.mark.parametrize("exc_type", [InternalInvariantViolation, KeyError], ids=["invariant", "unexpected"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("command", ["bprod", "hprod"])
    def test_forced_failure_reproduces_through_main(self, capsys, monkeypatch, command, method, exc_type):
        product = binomial_product if command == "bprod" else hadamard_product
        a, b = FIB, RatFun(Poly([1, Fraction(1, 2)]), Poly([1, Fraction(-1, 3)]))
        _break(monkeypatch, *KERNELS[method], exc_type)
        with pytest.raises(exc_type) as info:
            product(a, b, method=method)
        reproducer = info.value.reproducer
        assert reproducer == shlex.join(["binprod", command, str(a), str(b), "--method", method])
        assert main(shlex.split(reproducer)[1:]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"internal error: {exc_type.__name__}: {info.value}",
            f"reproduce with: {reproducer}",
        ]

    def test_nested_failure_names_the_inner_product(self, capsys, monkeypatch):
        _break(monkeypatch, convolve, "series_hadamard", InternalInvariantViolation)
        assert main(["eval", "fib obprod (2 + pell hprod g(1/2, 3))"]) == 4
        err = capsys.readouterr().err.splitlines()
        # products bind loosest, so the inner product is (2 + pell) hprod g(1/2, 3)
        left, right = evaluate_text("2 + pell"), evaluate_text("g(1/2, 3)")
        inner = shlex.join(["binprod", "hprod", str(left), str(right), "--method", "symfun"])
        assert err == ["internal error: InternalInvariantViolation: forced failure", f"reproduce with: {inner}"]
        assert main(shlex.split(inner)[1:]) == 4
        assert capsys.readouterr().err.splitlines() == err

    def test_the_innermost_reproducer_is_kept(self, monkeypatch):
        exc = InternalInvariantViolation("forced failure")
        exc.reproducer = "binprod hprod 1 1 --method symfun"

        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(convolve, "_recover_numerator", broken)
        with pytest.raises(InternalInvariantViolation) as info:
            binomial_product(FIB, PELL)
        assert info.value is exc and exc.reproducer == "binprod hprod 1 1 --method symfun"

    def test_input_errors_carry_no_reproducer(self, capsys, monkeypatch):
        _break(monkeypatch, convolve, "_recover_numerator", DivisionByZero)
        with pytest.raises(DivisionByZero) as info:
            binomial_product(FIB, PELL)
        assert not hasattr(info.value, "reproducer")
        assert main(["bprod", "fib", "pell"]) == 1
        assert capsys.readouterr().err == "error: forced failure\n"
