"""Byte-identical output: every command of a fixed corpus prints what it printed before.

`golden_cli.jsonl`, beside this module, holds one JSON object per line: the
argv of one `binprod` command, its exit code, and the exact text it printed
to stdout and stderr.  `corpus_argvs` generates the commands from fixed
seeds: grid-recipe operands at d = 2-6, rational coefficients, repeated
roots, reciprocal roots that cancel (alpha + beta = 0), shared and improper
operands, named sequences, and the command line's error cases.  The test
replays every entry through `cli.main` and names the first command whose
output differs.

A deliberate change of printed output regenerates the corpus with
`regenerate()`, e.g. ``PYTHONPATH=src python tests/test_golden.py``, and the
diff of `golden_cli.jsonl` shows each changed line.
"""

import contextlib
import io
import json
import os
import random
import shlex
from fractions import Fraction
from pathlib import Path

from binprod import METHODS, Poly
from binprod.cli import MAX_NESTING, main
from binprod.polycore import poly_gcd

CORPUS = Path(__file__).with_name("golden_cli.jsonl")


# ---------------------------------------------------------------------------
# inputs


def poly_text(coeffs) -> str:
    """A polynomial in the expression language, e.g. ``1 - 2*x + 1/2*x^3``."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
        parts.append(sign + body)
    return "".join(parts) or "0"


def _poly(rng: random.Random, deg: int, rational: bool, constant_one: bool = False) -> list:
    """Coefficients in [-5, 5] (over 1..4 when rational) with a nonzero top one."""

    def coefficient(nonzero):
        while True:
            value = Fraction(rng.randint(-5, 5), rng.randint(1, 4) if rational else 1)
            if value or not nonzero:
                return value

    coeffs = [coefficient(False) for _ in range(deg)] + [coefficient(True)]
    if constant_one:
        coeffs[0] = Fraction(1)
    return coeffs


def grid_operand(rng: random.Random, d: int, rational: bool = False) -> str:
    """The benchmark grid's recipe: a degree d-1 numerator over a degree-d
    denominator with constant term 1, redrawn until the two are coprime."""
    while True:
        den = _poly(rng, d, rational, constant_one=True)
        num = _poly(rng, d - 1, rational)
        if poly_gcd(Poly(num), Poly(den)).degree == 0:
            return f"({poly_text(num)})/({poly_text(den)})"


def _products(left: str, right: str, methods=METHODS, cross_check: bool = True) -> list:
    """bprod and hprod of one pair: the default as text and JSON, each method, --cross-check."""
    argvs = []
    for command in ("bprod", "hprod"):
        base = [command, left, right]
        argvs += [base, [*base, "--json"]]
        argvs += [[*base, "--method", method] for method in methods]
        if cross_check:
            argvs.append([*base, "--cross-check"])
    return argvs


def _denominators(left: str, right: str) -> list:
    return [["denominator", left, right, "--kind", kind] for kind in ("binomial", "hadamard")]


# reconstruct takes about 0.8 s per product at d = 5, so the larger grid
# degrees run the three other methods only
FAST_METHODS = tuple(m for m in METHODS if m != "reconstruct")

PAIRS = {
    "repeated roots": [
        ("1/(1 - x)^2", "1/(1 - 2*x)^3"),
        ("(1 + x)/((1 - x)^2 (1 + 2*x))", "x/(1 - 3*x)^2"),
    ],
    "alpha + beta = 0": [
        ("1/(1 - x)", "1/(1 + x)"),
        ("x/((1 - 2*x)(1 + x))", "1/((1 + 2*x)(1 - 3*x))"),
    ],
    "shared": [
        ("fib", "lucas"),
        ("(1 + x)/(1 - x - x^2)", "(2 - 3*x)/(1 - x - x^2)"),
        ("1/(1 - x - 2*x^2)", "1/(1 - x - 2*x^2)"),
        ("(1 - 2*x)/(1 + x + 3*x^2 - x^3)", "(1 - 2*x)/(1 + x + 3*x^2 - x^3)"),
    ],
    "improper": [
        ("(1 + x + x^3)/(1 - x - x^2)", "pell"),
        ("1 + 2*x + x^2", "fib"),
        ("3", "trib"),
        ("x^2/(1 - x)", "(1 - x^3)/(1 + x)"),
    ],
    "named": [
        ("fib", "pell"),
        ("trib", "pell"),
        ("perrin", "jacobsthal"),
        ("q(2)", "g(1, 2)"),
        ("r", "lucas"),
        ("trib(1, 1, 1)", "g(1/2, -3)"),
    ],
}

EVAL = [
    "fib obprod pell",
    "fib ⊙ pell",
    "fib ∗ pell",
    "g(1/2, -3) obprod trib(1, 0, 2)",
    "(fib + lucas) hprod pell - x",
    "-(1 - x)^-1",
    "2x^2 (1 + x)",
    "x^-2",
    "1/3 - x/7",
    "fib obprod pell hprod lucas",
    "(fib obprod fib) - 2/(1 - 2x)/5",
    "0",
    # a leading "-" would make argparse read an option
    "1 + " + "-" * MAX_NESTING + "x",
    "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
]

COEFFS = [
    ("fib obprod pell", "10"),
    ("trib ∗ perrin", "8"),
    ("1/(1 - x)^3", "6"),
    ("x^3", "2"),
    ("fib", "0"),
    ("1/(1 + 1/2*x)", "7"),
]

RECURRENCE = ["fib obprod pell", "trib hprod lucas", "1 + x", "r", "(1 + x^4)/(1 - 1/2*x)", "5"]

ERRORS = [
    # parse errors (exit 2)
    ["eval", "fib +"],
    ["eval", "(x"],
    ["eval", "x^y"],
    ["eval", "x^²"],
    ["eval", "2²"],
    ["eval", "1 + $"],
    ["eval", "fib("],
    ["eval", "2 3"],
    ["eval", "obprod"],
    ["eval", "x²"],
    ["eval", "fib²"],
    ["eval", "x₂"],
    ["eval", "1 + " + "-" * (MAX_NESTING + 1) + "x"],
    ["eval", "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)],
    ["bprod", "fib", "pell +"],
    ["coeffs", "fib )", "-n", "3"],
    # input errors (exit 1)
    ["eval", "1/0"],
    ["eval", "zeta"],
    ["eval", "fib(1)"],
    ["eval", "q(x)"],
    ["eval", "q(1, 2)"],
    ["bprod", "1/x", "fib"],
    ["hprod", "fib", "1/(x - x^2)"],
    ["denominator", "1/x", "fib", "--kind", "binomial"],
    ["coeffs", "fib", "-n", "-1"],
    ["verify", "--only", "zz"],
    # argument errors (exit 2)
    ["bprod", "fib"],
    ["coeffs", "fib", "-n", "three"],
]


def corpus_argvs() -> list:
    """Every command of the corpus, in order."""
    argvs = []
    for d in range(2, 7):
        rng = random.Random(d)
        a, b = grid_operand(rng, d), grid_operand(rng, d)
        small = d <= 4
        argvs += _products(a, b, METHODS if small else FAST_METHODS, cross_check=small)
        argvs += _denominators(a, b)
    for d in (2, 3):
        rng = random.Random(f"rational {d}")
        a, b = grid_operand(rng, d, rational=True), grid_operand(rng, d, rational=True)
        argvs += _products(a, b) + _denominators(a, b)
    for pairs in PAIRS.values():
        for a, b in pairs:
            argvs += _products(a, b) + _denominators(a, b)
    for text in EVAL:
        argvs += [["eval", text], ["eval", text, "--json"]]
    for text, terms in COEFFS:
        argvs += [["coeffs", text, "-n", terms], ["coeffs", text, "-n", terms, "--json"]]
    for text in RECURRENCE:
        argvs += [["recurrence", text], ["recurrence", text, "--json"]]
    argvs += [["verify"], ["verify", "--json"], ["verify", "--only", "a,church-bicknell"]]
    argvs += [["sequences"], ["sequences", "--json"]]
    return argvs + ERRORS


# ---------------------------------------------------------------------------
# running and recording


def run(argv: list) -> dict:
    """The corpus entry of one command: argv, exit code, stdout and stderr of `main`."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal's width
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> list:
    with CORPUS.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def regenerate() -> None:
    """Run every command of `corpus_argvs` and write `golden_cli.jsonl` anew."""
    lines = [json.dumps(run(argv), ensure_ascii=False) for argv in corpus_argvs()]
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# tests


def test_corpus_holds_the_generated_commands():
    assert [entry["argv"] for entry in load()] == corpus_argvs()


def test_every_command_prints_what_the_corpus_recorded():
    for entry in load():
        got = run(entry["argv"])
        assert got == entry, f"first command whose output differs: binprod {shlex.join(entry['argv'])}"


if __name__ == "__main__":
    regenerate()
