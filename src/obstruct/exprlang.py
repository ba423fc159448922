"""A small expression language for scalar fields on a chart.

Metric and Poisson components in config files are written in this
grammar: real literals, coordinate names, named scalar parameters, unary
minus, binary ``+ - * / ^`` (``^`` binds tightest and is
right-associative), parentheses, and the calls ``exp log sin cos sqrt``.
Implicit multiplication is not supported ("2x" is a syntax error).

Parsed trees are immutable and evaluate either to plain floats
(:func:`eval_real`) or to degree-2 jets (:func:`eval_jet`), which carry
exact gradients and Hessians.  :func:`differentiate` produces the exact
symbolic partial derivative, which is how differentials of scalar fields
become component fields with full jet data of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import jets
from .jets import Jet2

__all__ = [
    "Expr", "Num", "Coord", "Param", "Neg", "BinOp", "Call",
    "ExprError", "ExprSyntaxError", "UnknownIdentifier",
    "parse", "pretty", "eval_jet", "eval_real", "differentiate",
]


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(ExprError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r} (at position {position})")
        self.name = name
        self.position = position


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    name: str
    index: int


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str  # one of exp log sin cos sqrt
    arg: "Expr"


Expr = Union[Num, Coord, Param, Neg, BinOp, Call]

_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")

# binding powers; ^ > unary - > * / > + -
_LEFT_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30


# -- tokenizer ---------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str   # num | ident | op | lparen | rparen | comma | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            out.append(_Token("op", c, i))
            i += 1
            continue
        if c == "(":
            out.append(_Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            out.append(_Token("rparen", c, i))
            i += 1
            continue
        if c == ",":
            out.append(_Token("comma", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], coords: list[str], params: list[str]):
        self.tokens = tokens
        self.i = 0
        self.coords = {name: k for k, name in enumerate(coords)}
        self.params = set(params)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}", tok.pos)
        return tok

    def parse_expr(self, min_bp: int) -> Expr:
        left = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            bp = _LEFT_BP[tok.text]
            if bp < min_bp:
                break
            self.advance()
            # ^ is right-associative, the rest left-associative
            right = self.parse_expr(bp if tok.text == "^" else bp + 1)
            left = BinOp(tok.text, left, right)
        return left

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "-":
            return Neg(self.parse_expr(_UNARY_BP))
        if tok.kind == "lparen":
            inner = self.parse_expr(0)
            self.expect("rparen", "')'")
            return inner
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.parse_expr(0)
                self.expect("rparen", "')'")
                return Call(tok.text, arg)
            if tok.text in self.coords:
                return Coord(tok.text, self.coords[tok.text])
            if tok.text in self.params:
                return Param(tok.text)
            raise UnknownIdentifier(tok.text, tok.pos)
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.pos)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str, coords: list[str] | tuple[str, ...],
          params: list[str] | tuple[str, ...] = ()) -> Expr:
    """Parse ``text`` over the given coordinate and parameter names.

    Raises :class:`ExprSyntaxError` with a position on malformed input and
    :class:`UnknownIdentifier` for names that are neither coordinates nor
    parameters.
    """
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(_tokenize(text), list(coords), list(params))
    tree = p.parse_expr(0)
    tail = p.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return tree


# -- printing ----------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _LEFT_BP[e.op]
    if isinstance(e, Neg):
        return _UNARY_BP
    return 100


def pretty(e: Expr) -> str:
    """Render a tree back to source with minimal parentheses.

    ``parse(pretty(t))`` reproduces ``t``; pretty-printed text is the
    canonical form used for scene digests.
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Coord, Param)):
        return e.name
    if isinstance(e, Neg):
        inner = pretty(e.operand)
        if _prec(e.operand) < _UNARY_BP:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({pretty(e.arg)})"
    if isinstance(e, BinOp):
        bp = _LEFT_BP[e.op]
        left = pretty(e.left)
        right = pretty(e.right)
        # parenthesize the operand on the non-associating side at equal
        # precedence so the parsed tree reproduces this one exactly
        lp, rp = _prec(e.left), _prec(e.right)
        if lp < bp or (e.op == "^" and lp == bp):
            left = f"({left})"
        if rp < bp or (e.op != "^" and rp == bp):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluation --------------------------------------------------------------

def eval_jet(e: Expr, point, params: dict[str, float] | None = None) -> Jet2:
    """Evaluate to a degree-2 jet at ``point`` (coordinates lifted as
    coordinate jets, parameters as constants).

    ``point`` has shape ``(..., n)``: leading axes index a block of points,
    and the jet's value, gradient and Hessian broadcast to them in front of
    their own axes (a constant tree gives a constant jet).

    Domain errors (division by zero, log/sqrt outside their domain) at any
    point propagate as :class:`~obstruct.jets.JetDomainError`.
    """
    params = params or {}
    point = np.asarray(point, dtype=float)
    dim = point.shape[-1]

    def go(node: Expr) -> Jet2:
        if isinstance(node, Num):
            return jets.lift(node.value, dim=dim)
        if isinstance(node, Coord):
            return jets.lift(np.array(point[..., node.index]), node.index, dim)
        if isinstance(node, Param):
            return jets.lift(params[node.name], dim=dim)
        if isinstance(node, Neg):
            return jets.apply("neg", [go(node.operand)])
        if isinstance(node, BinOp):
            return jets.apply(node.op, [go(node.left), go(node.right)])
        if isinstance(node, Call):
            return jets.apply(node.fn, [go(node.arg)])
        raise TypeError(f"not an expression node: {node!r}")

    return go(e)


_REAL_FN = {"exp": math.exp, "log": math.log, "sin": math.sin,
            "cos": math.cos, "sqrt": math.sqrt}


def eval_real(e: Expr, point, params: dict[str, float] | None = None) -> float:
    """Evaluate the value channel only, with plain float arithmetic."""
    params = params or {}
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Coord):
        return float(point[e.index])
    if isinstance(e, Param):
        return float(params[e.name])
    if isinstance(e, Neg):
        return -eval_real(e.operand, point, params)
    if isinstance(e, BinOp):
        a = eval_real(e.left, point, params)
        b = eval_real(e.right, point, params)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        return a ** b
    if isinstance(e, Call):
        return _REAL_FN[e.fn](eval_real(e.arg, point, params))
    raise TypeError(f"not an expression node: {e!r}")


# -- symbolic derivative -----------------------------------------------------

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    return BinOp("/", a, b)


def differentiate(e: Expr, index: int) -> Expr:
    """Exact partial derivative with respect to coordinate ``index``.

    The result is an ordinary tree in the same grammar, so it can be
    evaluated through jets like any hand-written component (this is what
    makes differentials of scalars full-fledged component fields).
    """
    if isinstance(e, (Num, Param)):
        return _ZERO
    if isinstance(e, Coord):
        return _ONE if e.index == index else _ZERO
    if isinstance(e, Neg):
        d = differentiate(e.operand, index)
        return _ZERO if _is_zero(d) else Neg(d)
    if isinstance(e, BinOp):
        da = differentiate(e.left, index)
        db = differentiate(e.right, index)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.right), _mul(e.left, db))
        if e.op == "/":
            # (a/b)' = a'/b - a b'/b^2
            return _sub(_div(da, e.right),
                        _div(_mul(e.left, db), BinOp("^", e.right, Num(2.0))))
        # power: general case via b^e = exp(e log b); constant exponent
        # stays in power form (valid for non-positive bases too)
        if isinstance(e.right, Num) and _is_zero(db):
            p = e.right.value
            return _mul(_mul(Num(p), BinOp("^", e.left, Num(p - 1.0))), da)
        return _mul(BinOp("^", e.left, e.right),
                    _add(_mul(db, Call("log", e.left)),
                         _div(_mul(e.right, da), e.left)))
    if isinstance(e, Call):
        da = differentiate(e.arg, index)
        if _is_zero(da):
            return _ZERO
        if e.fn == "exp":
            return _mul(Call("exp", e.arg), da)
        if e.fn == "log":
            return _div(da, e.arg)
        if e.fn == "sin":
            return _mul(Call("cos", e.arg), da)
        if e.fn == "cos":
            return Neg(_mul(Call("sin", e.arg), da))
        if e.fn == "sqrt":
            return _div(da, _mul(Num(2.0), Call("sqrt", e.arg)))
    raise TypeError(f"not an expression node: {e!r}")
