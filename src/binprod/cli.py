"""Command line interface: an exact expression language over ℚ(x).

Expressions combine integers, the variable x, and named sequences with
``+ - * / ^`` plus two series products: ``obprod`` (the binomial product,
also spelled ⊙) and ``hprod`` (the Hadamard product, also spelled ∗).
The product operators bind loosest, ``^`` binds tightest, and adjacency
is multiplication, so ``2x obprod fib`` means ``(2*x) obprod fib``.

The AST nodes (`Num`, `Var`, `Seq`, `Neg`, `Pow` and the binary nodes
`Add`, `Sub`, `Mul`, `Div`, `BProd`, `HProd`) are plain immutable classes
on `record.Record`, all subclasses of `Expr`: a node equals another only
if both have the same type and equal fields.  Importing this module
generates no code for them.
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
from .polycore import Poly, format_poly, _signed_sum
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
# syntax trees


class Expr(Record):
    """Base of the syntax tree nodes; each subclass names its fields in _fields."""

    __slots__ = ()


class Num(Expr):
    __slots__ = _fields = ("value",)


class Var(Expr):
    __slots__ = ()


class Seq(Expr):
    __slots__ = _fields = ("name", "args")
    _defaults = {"args": ()}


class Neg(Expr):
    __slots__ = _fields = ("operand",)


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class BProd(_Binary):
    __slots__ = ()


class HProd(_Binary):
    __slots__ = ()


# the concrete node classes, the only values `evaluate` accepts
_NODES = frozenset((Num, Var, Seq, Neg, Pow, Add, Sub, Mul, Div, BProd, HProd))


# ---------------------------------------------------------------------------
# parser


# the two series products, by word and by unicode operator
_PRODUCTS = {"obprod": BProd, "hprod": HProd, "⊙": BProd, "∗": HProd}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0

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

    def parse(self) -> Expr:
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind != _END:
            raise ParseError(
                f"unexpected {self._describe(tok)}", tok.pos, expected=("operator", "end of input")
            )
        return node

    def parse_expr(self) -> Expr:
        # series products bind loosest and associate to the left
        node = self.parse_sum()
        while self.peek().text in _PRODUCTS:
            product = _PRODUCTS[self.advance().text]
            node = product(node, self.parse_sum())
        return node

    def parse_sum(self) -> Expr:
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == _OP and tok.text in ("*", "/"):
                self.advance()
                rhs = self.parse_unary()
                node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
            elif tok.kind == _NAME and tok.text not in _PRODUCTS:
                node = Mul(node, self.parse_power())
            elif tok.kind == _OP and tok.text == "(":
                node = Mul(node, self.parse_power())
            else:
                return node

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.open_level(self.advance())
            node = Neg(self.parse_unary())
            self.depth -= 1
            return node
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if not self.at_op("^"):
            return base
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
        return Pow(base, sign * int(tok.text))

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == _NUMBER:
            self.advance()
            return Num(int(tok.text))
        if tok.kind == _NAME and tok.text not in _PRODUCTS:
            self.advance()
            if tok.text == "x":
                return Var()
            if self.at_op("("):
                self.open_level(self.advance())
                args = []
                if not self.at_op(")"):
                    args.append(self.parse_expr())
                    while self.at_op(","):
                        self.advance()
                        args.append(self.parse_expr())
                self.close_level()
                return Seq(tok.text, tuple(args))
            return Seq(tok.text)
        if tok.kind == _OP and tok.text == "(":
            self.open_level(self.advance())
            node = self.parse_expr()
            self.close_level()
            return node
        raise ParseError(
            f"unexpected {self._describe(tok)}", tok.pos, expected=("number", "name", "'('")
        )


def parse_expression(text: str) -> Expr:
    """Parse the expression language; raises ParseError with a position.

    Parentheses and unary minus signs may nest at most MAX_NESTING deep.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation


def _constant_param(value: RatFun, name: str) -> Fraction:
    if value.den != Poly.one() or value.num.degree > 0:
        raise InvalidInput(f"parameters of {name} must be rational constants")
    return value.num.constant_term


def _operands(e: Expr) -> list[Expr]:
    """The fields of node e that are nodes, in order.

    A sequence's arguments are a tuple, not nodes: it evaluates them itself,
    and they nest at most MAX_NESTING deep.
    """
    if type(e) not in _NODES:
        raise InvalidInput(f"not an expression node: {e!r}")
    return [v for name in e._fields if isinstance(v := getattr(e, name), Expr)]


_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _apply(e: Expr, values: list[RatFun]) -> RatFun:
    """The value of node e, given the values of its operands in order."""
    if isinstance(e, Num):
        return RatFun(e.value)
    if isinstance(e, Var):
        return RatFun(Poly.x())
    if isinstance(e, Seq):
        params = [_constant_param(evaluate(a), e.name) for a in e.args]
        return named_gf(e.name, params).gf
    if isinstance(e, Neg):
        return -values[0]
    if isinstance(e, Pow):
        return values[0] ** e.exponent
    if isinstance(e, BProd):
        return binomial_product(*values)
    if isinstance(e, HProd):
        return hadamard_product(*values)
    return _ARITHMETIC[type(e)](*values)


def evaluate(e: Expr) -> RatFun:
    """Evaluate an AST to an exact rational power series.

    Operands are evaluated left to right, with an explicit stack: a flat sum
    of n terms parses to a tree n deep.
    """
    values: list[RatFun] = []
    todo = [(e, False)]
    while todo:
        node, ready = todo.pop()
        operands = _operands(node)
        if operands and not ready:
            todo.append((node, True))
            todo.extend((o, False) for o in reversed(operands))
            continue
        split = len(values) - len(operands)
        result = _apply(node, values[split:])
        del values[split:]
        values.append(result)
    return values[0]


def evaluate_text(text: str) -> RatFun:
    return evaluate(parse_expression(text))


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
    if args.terms < 0:
        raise InvalidInput("-n must be nonnegative")
    series = evaluate_text(args.expr).expand(args.terms)
    if args.json:
        print(json.dumps({"coeffs": [str(c) for c in series.coeffs]}))
    else:
        for c in series.coeffs:
            print(c)
    return 0


def _product_command(args, kind: str) -> int:
    a = evaluate_text(args.left)
    b = evaluate_text(args.right)
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
    a = evaluate_text(args.left)
    b = evaluate_text(args.right)
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
        p.add_argument("--method", choices=METHODS, default="resultant")
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
