"""A small expression language for scalar fields on a chart.

Metric and Poisson components in config files are written in this
grammar: real literals, coordinate names, named scalar parameters, unary
minus, binary ``+ - * / ^`` (``^`` binds tightest and is
right-associative), parentheses, and the calls ``exp log sin cos sqrt``.
Implicit multiplication is not supported ("2x" is a syntax error), and a
tree deeper than :data:`MAX_DEPTH` is rejected.

Parsed trees are immutable.  :func:`compile_jets` turns several trees
into one straight-line :class:`JetProgram` that evaluates each shared
subtree once, either to degree-2 jets, which carry exact gradients and
Hessians, or to plain floats; it is the only evaluator, and
:func:`eval_jet` and :func:`eval_real` run one-tree programs.  A power
whose exponent reads no coordinate is a real power; any other is
``exp(e log b)``.  :func:`differentiate` produces the exact symbolic
partial derivative, which is how differentials of scalar fields become
component fields with full jet data of their own.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from . import jets
from .jets import Jet2
from .record import Record

__all__ = [
    "Expr", "Num", "Coord", "Param", "Neg", "BinOp", "Call",
    "ExprError", "ExprSyntaxError", "UnknownIdentifier",
    "parse", "pretty", "eval_jet", "eval_real", "differentiate", "linear",
    "JetProgram", "compile_jets", "MAX_DEPTH",
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


class Num(Record):
    value: float


class Coord(Record):
    name: str
    index: int


class Param(Record):
    name: str


class Neg(Record):
    operand: "Expr"


class BinOp(Record):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


class Call(Record):
    fn: str  # one of exp log sin cos sqrt
    arg: "Expr"


Expr = Union[Num, Coord, Param, Neg, BinOp, Call]

_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")

# binding powers; ^ > unary - > * / > + -
_LEFT_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30

# the deepest tree parse accepts (a leaf has depth 1; nesting that counts
# parentheses may go twice as deep, as printing may add them): two rounds
# of differentiate, recursing per level, stay within the recursion limit
MAX_DEPTH = 150


# -- tokenizer ---------------------------------------------------------------

class _Token(Record):
    kind: str   # num | ident | op | lparen | rparen | comma | end
    text: str
    pos: int


_PUNCTUATION = {"(": "lparen", ")": "rparen", ",": "comma",
                **dict.fromkeys("+-*/^", "op")}


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
        if c in _PUNCTUATION:
            out.append(_Token(_PUNCTUATION[c], c, i))
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

    def parse_expr(self, min_bp: int, level: int) -> tuple[Expr, int]:
        """The expression here binding at least ``min_bp``, and its depth;
        ``level`` counts the operators and parentheses it is nested in."""
        if level > 2 * MAX_DEPTH:
            raise _too_deep(self.peek().pos)
        left, depth = self.parse_atom(level)
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            bp = _LEFT_BP[tok.text]
            if bp < min_bp:
                break
            self.advance()
            # ^ is right-associative, the rest left-associative
            right, right_depth = self.parse_expr(
                bp if tok.text == "^" else bp + 1, level + 1)
            left, depth = _nest(BinOp(tok.text, left, right),
                                max(depth, right_depth), tok.pos)
        return left, depth

    def parse_atom(self, level: int) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text)), 1
        if tok.kind == "op" and tok.text == "-":
            operand, depth = self.parse_expr(_UNARY_BP, level + 1)
            return _nest(Neg(operand), depth, tok.pos)
        if tok.kind == "lparen":
            inner = self.parse_expr(0, level + 1)
            self.expect("rparen", "')'")
            return inner
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg, depth = self.parse_expr(0, level + 1)
                self.expect("rparen", "')'")
                return _nest(Call(tok.text, arg), depth, tok.pos)
            if tok.text in self.coords:
                return Coord(tok.text, self.coords[tok.text]), 1
            if tok.text in self.params:
                return Param(tok.text), 1
            raise UnknownIdentifier(tok.text, tok.pos)
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.pos)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)


def _too_deep(position: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                           position)


def _nest(node: Expr, depth: int, position: int) -> tuple[Expr, int]:
    """``node`` with its depth, one more than its deepest operand's."""
    if depth >= MAX_DEPTH:
        raise _too_deep(position)
    return node, depth + 1


def parse(text: str, coords: list[str] | tuple[str, ...],
          params: list[str] | tuple[str, ...] = ()) -> Expr:
    """Parse ``text`` over the given coordinate and parameter names.

    Raises :class:`ExprSyntaxError` with a position on malformed input or
    a tree deeper than :data:`MAX_DEPTH`, and :class:`UnknownIdentifier`
    for names that are neither coordinates nor parameters.
    """
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(_tokenize(text), list(coords), list(params))
    tree, _ = p.parse_expr(0, 0)
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

_LEAVES = ("num", "coord", "param")

# plain floats: the jets' operators (``operator.add`` ...) and ``math``
_REAL = {**jets.OPERATIONS, **{fn: getattr(math, fn) for fn in _FUNCTIONS}}


class JetProgram:
    """Several trees compiled into one straight-line program.

    ``code`` holds one instruction per slot: a leaf ``("num", value)``,
    ``("coord", index)`` or ``("param", name)``, or an operation of
    :data:`~obstruct.jets.OPERATIONS` on earlier slots, ``(op, *slots)``.
    Equal subtrees share one slot and are evaluated once.  Slots come in
    the order in which a post-order, left-before-right walk of the trees,
    one after the other, first reaches them, so the program fails at the
    same operation, with the same error, as evaluating each tree in turn.
    ``outputs`` is the slot of each tree; ``free[k]`` lists the slots that
    instruction ``k`` reads for the last time, which are dropped after it,
    so a block holds only the jets still to be read (about 1 MB less peak
    memory on a 4-D scene of 10-operation entries).  ``constant[k]`` marks
    the slots that read no coordinate: a power is real where its exponent
    slot is constant, ``exp(e log b)`` elsewhere.
    """

    def __init__(self, code: tuple[tuple, ...], outputs: tuple[int, ...],
                 free: tuple[tuple[int, ...], ...], constant: tuple[bool, ...]):
        self.code, self.outputs, self.free = code, outputs, free
        self.constant = constant

    def run(self, point, params: dict[str, float]) -> list[Jet2]:
        """The jet of each tree at ``point``, of shape ``(..., n)``: its
        leading axes index a block of points and trail every jet channel
        (a constant tree gives a constant jet)."""
        point = np.asarray(point, dtype=float)
        dim, lead = point.shape[-1], point.ndim - 1
        slots: list = [None] * len(self.code)
        for k, (op, *args) in enumerate(self.code):
            if op == "coord":
                slots[k] = jets.coordinate(np.array(point[..., args[0]]),
                                           args[0], dim)
            elif op in _LEAVES:
                slots[k] = jets.constant(
                    params[args[0]] if op == "param" else args[0], dim, lead)
            elif op == "^" and self.constant[args[1]]:
                slots[k] = slots[args[0]] ** float(slots[args[1]].value)
            else:
                slots[k] = jets.OPERATIONS[op](*[slots[a] for a in args])
            for a in self.free[k]:
                slots[a] = None
        return [slots[k] for k in self.outputs]

    def values(self, point, params: dict[str, float]) -> list[float]:
        """The plain value of each tree at one point, as a Python float."""
        v: list = []
        for ins in self.code:
            op = ins[0]
            if op == "num":
                v.append(ins[1])
            elif op == "coord":
                v.append(float(point[ins[1]]))
            elif op == "param":
                v.append(float(params[ins[1]]))
            elif len(ins) == 3:
                v.append(_REAL[op](v[ins[1]], v[ins[2]]))
            else:
                v.append(_REAL[op](v[ins[1]]))
        return [v[k] for k in self.outputs]


def compile_jets(trees) -> JetProgram:
    """Compile ``trees`` into one :class:`JetProgram`.

    Subtrees are merged by structure; literals by their bits, so ``0.0``
    and ``-0.0`` stay apart although they compare equal.
    """
    code: list[tuple] = []
    slot_of: dict[tuple, int] = {}

    def emit(key: tuple, instruction: tuple) -> int:
        if key not in slot_of:
            slot_of[key] = len(code)
            code.append(instruction)
        return slot_of[key]

    def go(node: Expr) -> int:
        if isinstance(node, Num):
            return emit(("num", node.value.hex()), ("num", node.value))
        if isinstance(node, Coord):
            instruction = ("coord", node.index)
        elif isinstance(node, Param):
            instruction = ("param", node.name)
        elif isinstance(node, Neg):
            instruction = ("neg", go(node.operand))
        elif isinstance(node, BinOp):
            instruction = (node.op, go(node.left), go(node.right))
        elif isinstance(node, Call):
            instruction = (node.fn, go(node.arg))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        return emit(instruction, instruction)

    outputs = tuple(go(tree) for tree in trees)
    last_read = {a: k for k, (op, *args) in enumerate(code)
                 if op not in _LEAVES for a in args}
    constant: list[bool] = []
    for op, *args in code:
        constant.append(op != "coord" and (
            op in _LEAVES or all(constant[a] for a in args)))
    free: list[list[int]] = [[] for _ in code]
    for a, k in last_read.items():
        if a not in outputs:
            free[k].append(a)
    return JetProgram(tuple(code), outputs, tuple(map(tuple, free)),
                      tuple(constant))


def eval_jet(e: Expr, point, params: dict[str, float] | None = None) -> Jet2:
    """Evaluate to a degree-2 jet at ``point`` (coordinates lifted as
    coordinate jets, parameters as constants).

    ``point`` has shape ``(..., n)``: leading axes index a block of points
    and trail the jet's value, gradient and Hessian (a constant tree gives
    a constant jet).

    Domain errors (division by zero, log/sqrt outside their domain) at any
    point propagate as :class:`~obstruct.jets.JetDomainError`.
    """
    return compile_jets([e]).run(point, params or {})[0]


def eval_real(e: Expr, point, params: dict[str, float] | None = None) -> float:
    """Evaluate the value channel only, with plain float arithmetic."""
    return compile_jets([e]).values(point, params or {})[0]


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


def linear(coeffs, terms) -> Expr:
    """``0 + c0*t0 + c1*t1 + ...`` over the nonzero coefficients."""
    out: Expr = _ZERO
    for c, term in zip(coeffs, terms):
        if c != 0.0:
            out = BinOp("+", out, BinOp("*", Num(float(c)), term))
    return out


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
