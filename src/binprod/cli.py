"""Command line interface: an exact expression language over ℚ(x).

Expressions combine integers, the variable x, and named sequences with
``+ - * / ^`` plus two series products: ``obprod`` (the binomial product,
also spelled ⊙) and ``hprod`` (the Hadamard product, also spelled ∗).
The product operators bind loosest, ``^`` binds tightest, and adjacency
is multiplication, so ``2x obprod fib`` means ``(2*x) obprod fib``.

`to_text` prints an AST back into this language; parsing its output
returns the identical AST, so the printed form is canonical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .convolve import (
    METHODS,
    binomial_denominator,
    binomial_product,
    hadamard_denominator,
    hadamard_product,
)
from .errors import BinprodError, InvalidInput, ParseError
from .polycore import Poly, format_poly
from .ratfun import RatFun, Series, format_ratfun, reconstruct_rational
from .seqlib import named_gf, run_identity_suite, sequence_descriptions

# ---------------------------------------------------------------------------
# tokens

_NUMBER = "number"
_NAME = "name"
_OP = "op"
_END = "end"

# unicode spellings of the two series products
_UNICODE_OPS = {"⊙": "obprod", "∗": "hprod"}
_PRODUCT_WORDS = ("obprod", "hprod")
_OP_CHARS = "+-*/^(),"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> List[Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _UNICODE_OPS:
            tokens.append(Token(_NAME, _UNICODE_OPS[ch], i))
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


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Seq:
    name: str
    args: Tuple["Expr", ...] = ()


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class BProd:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class HProd:
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Seq, Neg, Add, Sub, Mul, Div, Pow, BProd, HProd]


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0

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

    @staticmethod
    def _describe(tok: Token) -> str:
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
        while self.peek().kind == _NAME and self.peek().text in _PRODUCT_WORDS:
            word = self.advance().text
            rhs = self.parse_sum()
            node = BProd(node, rhs) if word == "obprod" else HProd(node, rhs)
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
            elif tok.kind == _NAME and tok.text not in _PRODUCT_WORDS:
                node = Mul(node, self.parse_power())
            elif tok.kind == _OP and tok.text == "(":
                node = Mul(node, self.parse_power())
            else:
                return node

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.parse_unary())
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
        if tok.kind == _NAME and tok.text not in _PRODUCT_WORDS:
            self.advance()
            if tok.text == "x":
                return Var()
            if self.at_op("("):
                self.advance()
                args: Tuple[Expr, ...] = ()
                if not self.at_op(")"):
                    items = [self.parse_expr()]
                    while self.at_op(","):
                        self.advance()
                        items.append(self.parse_expr())
                    args = tuple(items)
                self.expect_op(")")
                return Seq(tok.text, args)
            return Seq(tok.text)
        if tok.kind == _OP and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(
            f"unexpected {self._describe(tok)}", tok.pos, expected=("number", "name", "'('")
        )


def parse_expression(text: str) -> Expr:
    """Parse the expression language; raises ParseError with a position."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

_LEVELS = {
    BProd: 1,
    HProd: 1,
    Add: 2,
    Sub: 2,
    Mul: 3,
    Div: 3,
    Neg: 4,
    Pow: 5,
    Num: 6,
    Var: 6,
    Seq: 6,
}


def _level(e: Expr) -> int:
    return _LEVELS[type(e)]


def _wrap(e: Expr, minimum: int) -> str:
    text = to_text(e)
    return f"({text})" if _level(e) < minimum else text


def to_text(e: Expr) -> str:
    """Canonical text form; parse_expression(to_text(e)) == e."""
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Seq):
        if not e.args:
            return e.name
        return f"{e.name}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, Neg):
        return f"-{_wrap(e.operand, 4)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, 6)}^{e.exponent}"
    if isinstance(e, Add):
        return f"{_wrap(e.left, 2)} + {_wrap(e.right, 3)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, 2)} - {_wrap(e.right, 3)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, 3)}*{_wrap(e.right, 4)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, 3)}/{_wrap(e.right, 4)}"
    if isinstance(e, BProd):
        return f"{_wrap(e.left, 1)} obprod {_wrap(e.right, 2)}"
    if isinstance(e, HProd):
        return f"{_wrap(e.left, 1)} hprod {_wrap(e.right, 2)}"
    raise InvalidInput(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation


def _constant_param(value: RatFun, name: str) -> Fraction:
    if value.den != Poly.one() or value.num.degree > 0:
        raise InvalidInput(f"parameters of {name} must be rational constants")
    return value.num.constant_term


def evaluate(e: Expr) -> RatFun:
    """Evaluate an AST to an exact rational power series."""
    if isinstance(e, Num):
        return RatFun.constant(e.value)
    if isinstance(e, Var):
        return RatFun.from_poly(Poly.x())
    if isinstance(e, Seq):
        params = [_constant_param(evaluate(a), e.name) for a in e.args]
        return named_gf(e.name, params).gf
    if isinstance(e, Neg):
        return -evaluate(e.operand)
    if isinstance(e, Add):
        return evaluate(e.left) + evaluate(e.right)
    if isinstance(e, Sub):
        return evaluate(e.left) - evaluate(e.right)
    if isinstance(e, Mul):
        return evaluate(e.left) * evaluate(e.right)
    if isinstance(e, Div):
        return evaluate(e.left) / evaluate(e.right)
    if isinstance(e, Pow):
        return evaluate(e.base) ** e.exponent
    if isinstance(e, BProd):
        return binomial_product(evaluate(e.left), evaluate(e.right))
    if isinstance(e, HProd):
        return hadamard_product(evaluate(e.left), evaluate(e.right))
    raise InvalidInput(f"not an expression node: {e!r}")


def evaluate_text(text: str) -> RatFun:
    return evaluate(parse_expression(text))


# ---------------------------------------------------------------------------
# subcommands


def _poly_strings(p: Poly) -> List[str]:
    return [str(c) for c in p.coeffs] or ["0"]


def _emit_ratfun(f: RatFun, as_json: bool, extra: Optional[dict] = None) -> None:
    if as_json:
        payload = {"num": _poly_strings(f.num), "den": _poly_strings(f.den)}
        if extra:
            payload.update(extra)
        print(json.dumps(payload))
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
    print(f"order: {order}")
    if order == 0:
        print(f"c(n) = 0 for n >= {start}")
    else:
        print(f"c(n) = {_format_recurrence(rec)} for n >= {start}")
    if initial:
        print("initial: " + ", ".join(str(c) for c in initial))
    return 0


def _format_recurrence(rec: List[Fraction]) -> str:
    parts = []
    for j, c in enumerate(rec, start=1):
        if c == 0:
            continue
        term = f"c(n-{j})" if abs(c) == 1 else f"{abs(c)}*c(n-{j})"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    if not parts:
        return "0"
    return " ".join(parts)


def _cmd_sequences(args) -> int:
    table = sequence_descriptions()
    if args.json:
        print(json.dumps(table, indent=2, sort_keys=True))
    else:
        for name in sorted(table):
            print(f"{name}: {table[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binprod",
        description="Exact binomial (obprod) and Hadamard (hprod) products of rational power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to a rational function")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("coeffs", help="print the first N series coefficients")
    p.add_argument("expr")
    p.add_argument("-n", "--terms", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_coeffs)

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
        p.set_defaults(handler=_cmd_bprod if name == "bprod" else _cmd_hprod)

    p = sub.add_parser("denominator", help="product denominator from the two input denominators")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--kind", choices=("binomial", "hadamard"), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_denominator)

    p = sub.add_parser("reconstruct", help="fit a rational function to series coefficients")
    p.add_argument("--coeffs", required=True, metavar="FILE")
    p.add_argument("--den-deg", type=int, required=True)
    p.add_argument("--num-deg", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--only", help="comma-separated identity ids or slugs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("recurrence", help="linear recurrence satisfied by the coefficients")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_recurrence)

    p = sub.add_parser("sequences", help="list the named sequences")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_sequences)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Exact output may need integers beyond CPython's default limit of 4300
    # digits in int <-> str conversions; lift it for this command only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BinprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


def entry() -> None:
    raise SystemExit(main())
