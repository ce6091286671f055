"""Command line interface: an exact expression language over ℚ(x).

Expressions combine integers, the variable x, and named sequences with
``+ - * / ^`` plus two series products: ``obprod`` (the binomial product,
also spelled ⊙) and ``hprod`` (the Hadamard product, also spelled ∗).
The product operators bind loosest, ``^`` binds tightest, and adjacency
is multiplication, so ``2x obprod fib`` means ``(2*x) obprod fib``.

`parse_expression` turns a text into a flat postfix program, and
`evaluate_text` runs that program on one value stack.  A text is parsed
whole before any of it is computed, so a syntax error after an expensive
product costs no product, and every command parses all of its operands
before it evaluates the first.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import shlex
import sys
from fractions import Fraction

from .convolve import (
    METHODS,
    binomial_denominator,
    binomial_product,
    hadamard_denominator,
    hadamard_product,
)
from .errors import BinprodError, InternalInvariantViolation, InvalidInput, ParseError
from .polycore import Poly, _check_int, _signed_sum, format_poly
from .ratfun import RatFun, Series, format_ratfun, reconstruct_rational
from .record import Record
from .seqlib import named_gf, run_identity_suite, sequence_descriptions

# ---------------------------------------------------------------------------
# tokens

_NUMBER = "number"
_NAME = "name"
_OP = "op"
_END = "end"

_OP_CHARS = "+-*/^(),⊙∗"

# deepest nesting of parentheses and unary minus signs that parses; the
# parser recurses once per level
MAX_NESTING = 100


class Token(Record):
    __slots__ = _fields = ("kind", "text", "pos")


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token(_NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(_NAME, text[i:j], i))
            i = j
            continue
        if ch in _OP_CHARS:
            tokens.append(Token(_OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token(_END, "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser

# the four arithmetic operators, and the two series products by word and by
# unicode operator; a product names the function of this module it calls,
# looked up when the program runs
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_PRODUCTS = {
    "obprod": "binomial_product",
    "⊙": "binomial_product",
    "hprod": "hadamard_product",
    "∗": "hadamard_product",
}


class _Parser:
    """Recursive descent from tokens to a postfix program.

    Each parse method appends the instructions of what it parsed to
    ``self.program``; see `parse_expression` for the instructions.
    """

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0
        self.program: list = []

    def open_level(self, tok: Token) -> None:
        """Enter the nesting level that ``tok`` opens; at most MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

    def close_level(self) -> None:
        self.expect_op(")")
        self.depth -= 1

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == _OP and tok.text in texts

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != _OP or tok.text != text:
            raise ParseError(
                f"unexpected {self._describe(tok)}", tok.pos, expected=(f"'{text}'",)
            )
        return self.advance()

    def _describe(self, tok: Token) -> str:
        if tok.kind == _END:
            return "end of input"
        return f"{tok.kind} {tok.text!r}"

    def parse(self) -> list:
        program = self.parse_program()
        tok = self.peek()
        if tok.kind != _END:
            raise ParseError(
                f"unexpected {self._describe(tok)}", tok.pos, expected=("operator", "end of input")
            )
        return program

    def parse_program(self) -> list:
        """Parse one expression into a program of its own."""
        outer, self.program = self.program, []
        self.parse_expr()
        program, self.program = self.program, outer
        return program

    def parse_expr(self) -> None:
        # series products bind loosest and associate to the left
        self.parse_sum()
        while self.peek().text in _PRODUCTS:
            product = _PRODUCTS[self.advance().text]
            self.parse_sum()
            self.program.append(("op", product))

    def parse_sum(self) -> None:
        self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance().text
            self.parse_term()
            self.program.append(("op", op))

    def parse_term(self) -> None:
        self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == _OP and tok.text in ("*", "/"):
                self.advance()
                self.parse_unary()
                self.program.append(("op", tok.text))
            elif (tok.kind == _NAME and tok.text not in _PRODUCTS) or (tok.kind == _OP and tok.text == "("):
                self.parse_power()
                self.program.append(("op", "*"))
            else:
                return

    def parse_unary(self) -> None:
        if self.at_op("-"):
            self.open_level(self.advance())
            self.parse_unary()
            self.program.append(("neg",))
            self.depth -= 1
        else:
            self.parse_power()

    def parse_power(self) -> None:
        self.parse_atom()
        if not self.at_op("^"):
            return
        self.advance()
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != _NUMBER:
            raise ParseError(
                f"unexpected {self._describe(tok)}", tok.pos, expected=("integer exponent",)
            )
        self.advance()
        self.program.append(("pow", sign * int(tok.text)))

    def parse_atom(self) -> None:
        tok = self.peek()
        if tok.kind == _NUMBER:
            self.advance()
            self.program.append(("push", RatFun(int(tok.text))))
        elif tok.kind == _NAME and tok.text not in _PRODUCTS:
            self.advance()
            if tok.text == "x":
                self.program.append(("push", RatFun(Poly.x())))
                return
            args = []
            if self.at_op("("):
                self.open_level(self.advance())
                if not self.at_op(")"):
                    args.append(self.parse_program())
                    while self.at_op(","):
                        self.advance()
                        args.append(self.parse_program())
                self.close_level()
            self.program.append(("seq", tok.text, tuple(args)))
        elif tok.kind == _OP and tok.text == "(":
            self.open_level(self.advance())
            self.parse_expr()
            self.close_level()
        else:
            raise ParseError(
                f"unexpected {self._describe(tok)}", tok.pos, expected=("number", "name", "'('")
            )


def parse_expression(text: str) -> list:
    """Parse the expression language into a postfix program, or raise ParseError.

    The program is a list of instructions for one value stack:
    ``("push", value)``, ``("neg",)``, ``("pow", k)``, ``("op", name)`` for
    the four arithmetic operators and the two products, and
    ``("seq", name, args)`` for a named sequence with one program per
    parameter.  Parentheses and unary minus signs may nest at most
    MAX_NESTING deep; a ParseError carries the position of the token at
    fault.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation


def _constant_param(value: RatFun, name: str) -> Fraction:
    if value.den != Poly.one() or value.num.degree > 0:
        raise InvalidInput(f"parameters of {name} must be rational constants")
    return value.num.constant_term


def _run(program: list) -> RatFun:
    """The value of a program from `parse_expression`, run left to right."""
    stack: list[RatFun] = []
    for instr in program:
        kind = instr[0]
        if kind == "push":
            stack.append(instr[1])
        elif kind == "neg":
            stack.append(-stack.pop())
        elif kind == "pow":
            stack.append(stack.pop() ** instr[1])
        elif kind == "seq":
            _, name, args = instr
            stack.append(named_gf(name, [_constant_param(_run(a), name) for a in args]).gf)
        else:
            name = instr[1]
            right, left = stack.pop(), stack.pop()
            apply = _ARITHMETIC[name] if name in _ARITHMETIC else globals()[name]
            stack.append(apply(left, right))
    return stack[0]


def evaluate_text(text: str) -> RatFun:
    """Parse ``text`` whole, then evaluate it to an exact rational power series.

    >>> print(evaluate_text("fib obprod pell"))
    (2*x^2 - 3*x^3) / (1 - 6*x + 7*x^2 + 6*x^3 - 9*x^4)
    """
    return _run(parse_expression(text))


# ---------------------------------------------------------------------------
# subcommands


def _poly_strings(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs] or ["0"]


def _emit_ratfun(f: RatFun, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"num": _poly_strings(f.num), "den": _poly_strings(f.den)}))
    else:
        print(format_ratfun(f))


def _cmd_eval(args) -> int:
    _emit_ratfun(evaluate_text(args.expr), args.json)
    return 0


def _cmd_coeffs(args) -> int:
    _check_int(args.terms, "-n")
    series = evaluate_text(args.expr).expand(args.terms)
    if args.json:
        print(json.dumps({"coeffs": [str(c) for c in series.coeffs]}))
    else:
        for c in series.coeffs:
            print(c)
    return 0


def _left_and_right(args) -> tuple[RatFun, RatFun]:
    """The values of both operands; both parse before either is computed."""
    left, right = parse_expression(args.left), parse_expression(args.right)
    return _run(left), _run(right)


def _product_command(args, kind: str) -> int:
    a, b = _left_and_right(args)
    compute = binomial_product if kind == "binomial" else hadamard_product
    if args.cross_check:
        results = [(m, compute(a, b, method=m)) for m in METHODS]
        first = results[0][1]
        bad = [m for m, r in results if r != first]
        if bad:
            print(f"error: methods disagree: {', '.join(bad)}", file=sys.stderr)
            return 1
        _emit_ratfun(first, args.json)
        if not args.json:
            print(f"methods agree: {', '.join(METHODS)}")
        return 0
    _emit_ratfun(compute(a, b, method=args.method), args.json)
    return 0


def _cmd_bprod(args) -> int:
    return _product_command(args, "binomial")


def _cmd_hprod(args) -> int:
    return _product_command(args, "hadamard")


def _cmd_denominator(args) -> int:
    a, b = _left_and_right(args)
    compute = binomial_denominator if args.kind == "binomial" else hadamard_denominator
    result = compute(a.den, b.den)
    if args.json:
        print(json.dumps({"den": _poly_strings(result)}))
    else:
        print(format_poly(result))
    return 0


def _read_coefficients(path: str) -> Series:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    values = []
    for token in text.replace(",", " ").split():
        try:
            values.append(Fraction(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad coefficient {token!r} in {path}") from exc
    return Series(tuple(values))


def _cmd_reconstruct(args) -> int:
    series = _read_coefficients(args.coeffs)
    result = reconstruct_rational(series, args.den_deg, args.num_deg)
    _emit_ratfun(result, args.json)
    return 0


def _cmd_verify(args) -> int:
    report = run_identity_suite(only=args.only)
    if args.json:
        print(json.dumps({"passed": report.passed, "checks": report.to_records()}, indent=2))
    else:
        print(report.to_text())
    return 0 if report.passed else 3


def _cmd_recurrence(args) -> int:
    f = evaluate_text(args.expr)
    order = f.den.degree
    start = max(f.num.degree + 1, order)
    initial = f.expand(start).coeffs
    rec = [-c for c in f.den.coeffs[1:]]
    if args.json:
        print(
            json.dumps(
                {
                    "order": order,
                    "coefficients": [str(c) for c in rec],
                    "valid_from": start,
                    "initial": [str(c) for c in initial],
                }
            )
        )
        return 0
    terms = _signed_sum((c, f"c(n-{j})") for j, c in enumerate(rec, start=1))
    print(f"order: {order}")
    print(f"c(n) = {terms} for n >= {start}")
    if initial:
        print("initial: " + ", ".join(str(c) for c in initial))
    return 0


def _cmd_sequences(args) -> int:
    table = sequence_descriptions()
    if args.json:
        print(json.dumps(table, indent=2, sort_keys=True))
    else:
        for name in sorted(table):
            print(f"{name}: {table[name]}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on first use and shared by later calls.

    It holds no handlers: `main` looks up ``_cmd_<command>`` at call time.
    """
    parser = argparse.ArgumentParser(
        prog="binprod",
        description="Exact binomial (obprod) and Hadamard (hprod) products of rational power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to a rational function")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("coeffs", help="print the first N series coefficients")
    p.add_argument("expr")
    p.add_argument("-n", "--terms", type=int, required=True)
    p.add_argument("--json", action="store_true")

    for name, help_text in (
        ("bprod", "binomial product of two expressions"),
        ("hprod", "Hadamard product of two expressions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("--method", choices=METHODS, default="symfun")
        p.add_argument("--cross-check", action="store_true")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("denominator", help="product denominator from the two input denominators")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--kind", choices=("binomial", "hadamard"), required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reconstruct", help="fit a rational function to series coefficients")
    p.add_argument("--coeffs", required=True, metavar="FILE")
    p.add_argument("--den-deg", type=int, required=True)
    p.add_argument("--num-deg", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--only", help="comma-separated identity ids or slugs")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("recurrence", help="linear recurrence satisfied by the coefficients")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sequences", help="list the named sequences")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The argument parser is built once per process, on the first call.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Exact output may need integers beyond CPython's default limit of 4300
    # digits in int <-> str conversions; lift it for this command only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantViolation as exc:
        return _internal_error(exc, argv)
    except BinprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug in binprod, not in the input
        return _internal_error(exc, argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _internal_error(exc: Exception, argv: list[str] | None) -> int:
    """Report a failure of binprod itself, with the command that reproduces it.

    That is the failing product's own command when the exception carries
    one (see `convolve.binomial_product`), and this command's argv otherwise.
    """
    command = getattr(exc, "reproducer", None)
    if command is None:
        command = shlex.join(["binprod", *(sys.argv[1:] if argv is None else argv)])
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    print(f"reproduce with: {command}", file=sys.stderr)
    return 4


def entry() -> None:
    raise SystemExit(main())
