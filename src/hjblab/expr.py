"""Arithmetic expression trees for coefficient definitions.

Drift, diffusion factor and running cost of a control problem are written
as closed-form expressions in the coordinates ``x1``, ``x2`` and the
boundary distance ``d``.  The grammar is

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-' number) | ('-' factor) | power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

``^`` associates to the right and binds tighter than unary minus.  A
``'-'`` directly followed by a number is a negative literal, unless
that number is followed by ``^``: ``-2`` is ``Num(-2.0)``, ``2^-3`` is
``2^Num(-3.0)``, but ``-2^2`` is ``-(2^2)``.  The printer writes the
negation of a non-negative literal as ``-(2.0)``, so every tree has one
spelling.  A literal that overflows a double, such as ``1e999``, is
refused with :class:`ExprParseError`.
Available calls: exp, log, sin, cos, abs (unary), min, max, pow (binary).
There is no implicit multiplication and no user-defined functions.

Trees are immutable.  :func:`evaluate` walks a tree once over arrays of
bindings with numpy ufuncs, so a coefficient is evaluated at every point
of a grid or a sample set in one pass.  The bindings are first laid out
(:func:`lay_out`): broadcast to one shape, one contiguous row per
variable, copied unless the binding is such a row already.  A caller
that evaluates several trees at the same points, such as a control's
coefficients on a block of collar samples, lays them out once and
passes the :class:`Layout` to each call.  Float bindings are evaluated
as 1-element arrays: the value at a point is bit-identical whether the
point is evaluated alone or inside any array (a numpy *scalar* would
take a different power routine and differ in the last ulp).  Evaluation
never returns a silent NaN: a domain fault anywhere in the array raises
:class:`DomainFaultError` naming the sub-expression and the first bad
point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ArityError,
    DomainFaultError,
    ExprParseError,
    UnboundVariableError,
    UnknownIdentifierError,
)

VARIABLES = ("x1", "x2", "d")

FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Num | Var | Neg | Bin | Call


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace that the regex may have stopped on
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ExprParseError(
                f"unexpected character {source[len(source) - len(stripped)]!r}",
                len(source) - len(stripped),
            )
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


def _literal(text: str, pos: int) -> float:
    value = float(text)
    if math.isinf(value):
        raise ExprParseError(f"literal {text} overflows a double", pos)
    return value


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected {text!r}", pos)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            kind, text, pos = self.peek()
            # a number token is never last, so the lookahead stays in range
            if kind == "num" and self.tokens[self.i + 1][:2] != ("op", "^"):
                self.advance()
                return Num(-_literal(text, pos))
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # exponent parses as a factor: right associative, may be negated
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(_literal(text, pos))
        if kind == "ident":
            k, t, _ = self.peek()
            if k == "op" and t == "(":
                return self.call(text, pos)
            if text not in VARIABLES:
                raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def call(self, name: str, pos: int) -> Expr:
        if name not in FUNCTIONS:
            raise UnknownIdentifierError(f"unknown function {name!r}", pos)
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if len(args) != FUNCTIONS[name]:
            raise ArityError(
                f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}", pos
            )
        return Call(name, tuple(args))


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    Raises :class:`ExprParseError` (with character offset), also for a
    literal that overflows a double such as ``1e999``,
    :class:`UnknownIdentifierError` or :class:`ArityError`.
    """
    return _Parser(source).parse()


def free_vars(e: Expr) -> set[str]:
    """Exact set of variable names occurring in ``e``."""
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Bin):
        return free_vars(e.lhs) | free_vars(e.rhs)
    return set().union(*(free_vars(a) for a in e.args))


class Layout(NamedTuple):
    """Bindings laid out for :func:`evaluate`: each variable one
    contiguous, read-only float row of the common size, and the common
    shape of the bindings (``()`` for float bindings only)."""

    rows: dict
    shape: tuple


def lay_out(bindings) -> Layout:
    """``bindings`` broadcast to their common shape and flattened, each
    variable into one contiguous read-only row: a read-only view of a
    binding that is a contiguous float array of that shape, and a copy of
    any other.  A :class:`Layout` is returned as it is."""
    if isinstance(bindings, Layout):
        return bindings
    values = {name: np.asarray(v, dtype=float) for name, v in bindings.items()}
    shape = np.broadcast_shapes(*(v.shape for v in values.values()))
    rows = {}
    for name, v in values.items():
        rows[name] = np.ascontiguousarray(np.broadcast_to(v, shape)).reshape(-1)
        rows[name].flags.writeable = False
    return Layout(rows, shape)


def evaluate(e: Expr, bindings):
    """Evaluate ``e`` under ``bindings`` with numpy ufuncs.

    ``bindings`` maps each variable to a float or an array; arrays
    broadcast against each other and the result is an array of their
    common shape.  With float bindings only, the result is a float.  A
    caller that evaluates several trees under one set of bindings lays
    them out once with :func:`lay_out` and passes the :class:`Layout`:
    the values are the same bits, and only the layout is saved.  The
    result is a new array either way, also for a bare variable, and
    shares no memory with the bindings.  Domain faults (division by
    zero, 0^negative, a non-integer power of a negative base, log of a
    nonpositive value, overflow, NaN) are checked over the whole array
    and raise :class:`DomainFaultError` naming the offending
    sub-expression and the first point where it occurs.
    """
    env, shape = lay_out(bindings)
    size = math.prod(shape)
    with np.errstate(all="ignore"):
        result = _eval(e, env, size)
        _check(np.isnan(result), "evaluation produced NaN", e, env)
    if isinstance(e, Var):
        result = result.copy()  # a laid-out row is shared and read-only
    return float(result[0]) if shape == () else result.reshape(shape)


def _check(bad: np.ndarray, message: str, node: Expr, env: dict) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainFaultError(message, pretty(node), {k: float(v[i]) for k, v in env.items()})


def _power(base: np.ndarray, exponent: np.ndarray, node: Expr, env: dict) -> np.ndarray:
    integral = np.isfinite(exponent) & (np.floor(exponent) == exponent)
    _check((base < 0.0) & ~integral, "non-integer power of a negative base", node, env)
    _check((base == 0.0) & (exponent < 0.0), "zero raised to a negative power", node, env)
    r = np.power(base, exponent)
    _check(np.isinf(r) & np.isfinite(base) & np.isfinite(exponent), "power overflow", node, env)
    return r


_UNARY = {"log": np.log, "sin": np.sin, "cos": np.cos, "abs": np.abs}


def _eval(e: Expr, env: dict, size: int) -> np.ndarray:
    if isinstance(e, Num):
        # a full array, never a numpy scalar: see the module docstring
        return np.full(size, e.value)
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(f"variable {e.name!r} is not bound") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, env, size)
    if isinstance(e, Bin):
        a = _eval(e.lhs, env, size)
        b = _eval(e.rhs, env, size)
        if e.op == "+":
            r = a + b
        elif e.op == "-":
            r = a - b
        elif e.op == "*":
            r = a * b
        elif e.op == "/":
            _check(b == 0.0, "division by zero", e, env)
            r = a / b
        else:
            r = _power(a, b, e, env)
        _check(np.isinf(r), "overflow", e, env)
        return r
    # Call
    args = [_eval(a, env, size) for a in e.args]
    if e.fn == "exp":
        r = np.exp(args[0])
        _check(np.isinf(r) & np.isfinite(args[0]), "exp overflow", e, env)
        return r
    if e.fn == "log":
        _check(args[0] <= 0.0, "log of a nonpositive value", e, env)
    if e.fn in _UNARY:
        return _UNARY[e.fn](args[0])
    if e.fn == "min":
        return np.minimum(args[0], args[1])
    if e.fn == "max":
        return np.maximum(args[0], args[1])
    return _power(args[0], args[1], e, env)


# precedence levels used by the printer; atoms sit above everything
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[e.op]
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and math.copysign(1.0, e.value) < 0:
        return _PREC_NEG
    return _PREC_ATOM


def pretty(e: Expr) -> str:
    """Render ``e`` so that ``parse(pretty(e))`` is structurally identical."""
    return _render(e, 0)


def _render(e: Expr, context: int) -> str:
    p = _prec(e)
    if isinstance(e, Num):
        body = repr(e.value)
    elif isinstance(e, Var):
        body = e.name
    elif isinstance(e, Neg):
        if isinstance(e.arg, Num) and math.copysign(1.0, e.arg.value) > 0:
            body = "-(" + repr(e.arg.value) + ")"  # "-2.0" would parse as Num(-2.0)
        else:
            body = "-" + _render(e.arg, _PREC_NEG)
    elif isinstance(e, Bin):
        if e.op == "^":
            body = _render(e.lhs, _PREC_ATOM) + "^" + _render(e.rhs, _PREC_NEG)
        else:
            body = _render(e.lhs, p) + e.op + _render(e.rhs, p + 1)
    else:
        body = e.fn + "(" + ",".join(_render(a, 0) for a in e.args) + ")"
    if p < context:
        return "(" + body + ")"
    return body
