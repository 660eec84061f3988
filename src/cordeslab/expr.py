"""Scalar expression language used to ingest coefficient data.

The grammar covers numeric literals, the variables ``x1 .. xN`` and ``t``,
the binary operators ``+ - * / ^`` (with ``^`` binding tightest and
right-associative), unary minus, and the functions ``sin``, ``cos``,
``exp``, ``sqrt``, ``abs``, ``sign``, ``step``, ``min``, ``max``.

Conventions fixed here so that discontinuous coefficients are reproducible
from their textual form alone:

* ``step(u)`` is 1.0 for ``u >= 0`` and 0.0 otherwise (right-continuous),
* ``sign(0) = 0``,
* division by zero and square roots of negative numbers are evaluation
  errors, never parse errors.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "Bin", "Call",
    "parse_expression", "ExprSyntaxError", "ExprEvalError",
]


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ExprEvalError(ArithmeticError):
    """Raised when an expression cannot be evaluated at the given point."""


def _exp(u):
    r = np.exp(u)
    if not np.all(np.isfinite(r)):
        raise ExprEvalError("exp overflow")
    return r


def _sqrt(u):
    if np.any(np.asarray(u) < 0):
        raise ExprEvalError("sqrt of a negative number")
    return np.sqrt(u)


# name -> (min arity, max arity or None for unbounded, evaluation)
FUNCTIONS = {
    "sin": (1, 1, np.sin), "cos": (1, 1, np.cos), "exp": (1, 1, _exp),
    "sqrt": (1, 1, _sqrt), "abs": (1, 1, np.abs),
    "sign": (1, 1, lambda u: np.sign(np.asarray(u, dtype=float))),
    "step": (1, 1, lambda u: np.where(np.asarray(u, dtype=float) >= 0,
                                      1.0, 0.0)),
    "min": (2, None, lambda *a: np.minimum.reduce(np.broadcast_arrays(*a))),
    "max": (2, None, lambda *a: np.maximum.reduce(np.broadcast_arrays(*a))),
}

_SUM, _TERM, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


class Expr:
    """Base class for syntax-tree nodes."""

    _prec = _ATOM

    @functools.cached_property
    def program(self) -> "Program":
        """This tree compiled once into its distinct subtrees."""
        return Program.compile(self)

    def evaluate(self, env: dict):
        """The value at ``env``, a map from variable names to scalars or
        arrays of one length."""
        return self.program.run(env)[0]

    def variables(self) -> set:
        return set()

    def uses_t(self) -> bool:
        return "t" in self.variables()

    def max_x_index(self) -> int:
        idx = [int(v[1:]) for v in self.variables() if v != "t"]
        return max(idx) if idx else 0

    def _fmt(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._fmt()

    def _child(self, node: "Expr", min_prec: int) -> str:
        s = node._fmt()
        return f"({s})" if node._prec < min_prec else s


@dataclass(frozen=True)
class Num(Expr):
    """Nonnegative numeric literal (the sign lives in ``Neg``)."""

    value: float
    _prec = _ATOM

    def _fmt(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str
    _prec = _ATOM

    def variables(self):
        return {self.name}

    def _fmt(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    _prec = _UNARY

    def variables(self):
        return self.arg.variables()

    def _fmt(self):
        return "-" + self._child(self.arg, _UNARY)


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    @property
    def _prec(self):  # type: ignore[override]
        return {"+": _SUM, "-": _SUM, "*": _TERM, "/": _TERM, "^": _POW}[self.op]

    def variables(self):
        return self.lhs.variables() | self.rhs.variables()

    def _fmt(self):
        if self.op == "^":
            # right-associative; any non-atom base needs parentheses
            return f"{self._child(self.lhs, _ATOM)} ^ {self._child(self.rhs, _UNARY)}"
        lp = self._prec
        return f"{self._child(self.lhs, lp)} {self.op} {self._child(self.rhs, lp + 1)}"


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple
    _prec = _ATOM

    def variables(self):
        out: set = set()
        for a in self.args:
            out |= a.variables()
        return out

    def _fmt(self):
        return f"{self.fn}({', '.join(a._fmt() for a in self.args)})"


# ----------------------------------------------------------------------------
# evaluation


def _divide(a, b):
    if np.any(b == 0):
        raise ExprEvalError("division by zero")
    return a / b


def _power(a, b):
    # guard domain faults such as 0^-1 and (-2)^0.5
    with np.errstate(all="ignore"):
        r = np.power(np.asarray(a, dtype=float), b)
    if not np.all(np.isfinite(r)):
        raise ExprEvalError("power evaluation left the real domain")
    return r


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _divide, "^": _power}


def _apply(op, data, args, vals, env):
    """One program entry, its operands read from ``vals`` by slot."""
    if op == "num":
        return data
    if op == "var":
        try:
            return env[data]
        except KeyError:
            raise ExprEvalError(
                f"variable {data!r} is not defined in this evaluation "
                f"context (dimension too small?)") from None
    operands = [vals[i] for i in args]
    if op == "call":
        return FUNCTIONS[data][2](*operands)
    if op == "neg":
        return -operands[0]
    return _BINARY[op](*operands)


@dataclass(frozen=True)
class Program:
    """The distinct subtrees of one tree in post-order, the root last.

    Entry ``(op, data, args)`` is a literal (``op = "num"``, ``data`` its
    value), a variable (``"var"``, its name), a negation (``"neg"``), a
    binary operator (``op`` its symbol) or a call (``"call"``, the
    function name); ``args`` are the slots of its operands.  Subtrees of
    equal structure share one slot (literals are compared by their bits),
    so a run evaluates each once, in the order a tree walk first reaches
    it; the first fault a run meets is the one the walk would meet.
    """

    ops: tuple
    timed: tuple      # slots of the entries that read t
    frontier: tuple   # time-free slots read by timed entries; the root
                      # alone when the whole tree is time-free

    @classmethod
    def compile(cls, tree: Expr) -> "Program":
        slots: dict = {}
        ops: list = []
        reads_t: list = []

        def visit(node) -> int:
            if isinstance(node, Num):
                key = ("num", struct.pack("<d", node.value))
                entry, timed = ("num", node.value, ()), False
            elif isinstance(node, Var):
                key = entry = ("var", node.name, ())
                timed = node.name == "t"
            else:
                if isinstance(node, Neg):
                    op, data, children = "neg", None, (node.arg,)
                elif isinstance(node, Bin):
                    op, data, children = node.op, None, (node.lhs, node.rhs)
                else:
                    op, data, children = "call", node.fn, node.args
                args = tuple(visit(c) for c in children)
                key = entry = (op, data, args)
                timed = any(reads_t[a] for a in args)
            if key not in slots:
                slots[key] = len(ops)
                ops.append(entry)
                reads_t.append(timed)
            return slots[key]

        root = visit(tree)
        timed = tuple(i for i, flag in enumerate(reads_t) if flag)
        frontier = (tuple(sorted({a for i in timed for a in ops[i][2]
                                  if not reads_t[a]}))
                    if reads_t[root] else (root,))
        return cls(tuple(ops), timed, frontier)

    def run(self, env: dict, held: tuple | None = None) -> tuple:
        """``(root value, frontier values)`` at ``env``.  Given ``held``,
        the frontier values of an earlier run at the same points, only the
        timed entries are evaluated."""
        vals: list = [None] * len(self.ops)
        if held is None:
            todo = range(len(self.ops))
        else:
            for slot, value in zip(self.frontier, held):
                vals[slot] = value
            todo = self.timed
        for i in todo:
            vals[i] = _apply(*self.ops[i], vals, env)
        return vals[-1], tuple(vals[slot] for slot in self.frontier)


# ----------------------------------------------------------------------------
# tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | lparen | rparen | comma | end
    text: str
    offset: int


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
        elif c == ",":
            tokens.append(_Token("comma", c, i))
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


def _is_variable_name(name: str) -> bool:
    if name == "t":
        return True
    return (len(name) >= 2 and name[0] == "x" and name[1:].isdigit()
            and name[1] != "0")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ExprSyntaxError(
                f"expected {text or kind}, found {tok.text or 'end of input'!r}",
                tok.offset)
        return self.advance()

    def parse(self) -> Expr:
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.offset)
        return node

    def sum(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        if self.peek().kind == "op" and self.peek().text == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            # exponent may carry its own unary minus / chained powers
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.sum()
            self.expect("rparen")
            return node
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.offset)
                self.advance()
                args = [self.sum()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.sum())
                self.expect("rparen")
                lo, hi, _ = FUNCTIONS[tok.text]
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise ExprSyntaxError(
                        f"{tok.text} takes {lo}{'+' if hi is None else ''} "
                        f"argument(s), got {len(args)}", tok.offset)
                return Call(tok.text, tuple(args))
            if not _is_variable_name(tok.text):
                raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.offset)
            return Var(tok.text)
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.offset)


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into a syntax tree.

    Raises ``ExprSyntaxError`` (with byte offset) on malformed input or
    unknown identifiers.  Printing the result with ``str`` and re-parsing
    reproduces the identical tree.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()
