"""Scalar expression language used to ingest coefficient data.

The grammar covers numeric literals, the variables ``x1 .. xN`` and ``t``,
the binary operators ``+ - * / ^`` (with ``^`` binding tightest and
right-associative), unary minus, and the functions ``sin``, ``cos``,
``exp``, ``sqrt``, ``abs``, ``sign``, ``step``, ``min``, ``max``.

Tokens are separated by optional white space.  A number is decimal digits
with at most one point, or a point and digits, then an optional exponent
(``e`` or ``E``, an optional sign, digits); a name starts with a letter or
an underscore and goes on with letters, digits and underscores; any other
non-space character besides ``+ - * / ^ ( ) ,`` is an error at its offset.
A tree deeper than ``MAX_DEPTH`` levels, a bracket or a sign counted as a
level, is an error at the token that crosses the bound.

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
import re
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

# the deepest tree the parser accepts; brackets and signs count as levels
MAX_DEPTH = 100


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
        """The names of the variables this tree reads."""
        return {data for op, data, _ in self.program.ops if op == "var"}

    def uses_t(self) -> bool:
        return bool(self.program.timed)

    def max_x_index(self) -> int:
        return max((int(v[1:]) for v in self.variables() if v != "t"),
                   default=0)

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

    def _fmt(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    _prec = _UNARY

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


# after optional white space: a number, a name, an operator or bracket, or
# any other non-space character, which is an error
_TOKEN = re.compile(r"""\s*(?:
      (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<name>[^\W\d]\w*)
    | (?P<op>[-+*/^(),])
    | (?P<bad>\S))""", re.VERBOSE)


def _tokenize(text: str) -> list:
    """``(kind, text, offset)`` of each token, then ``("end", "", len(text))``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok, at = m[kind], m.start(kind)
        # a name starts with a letter or "_": "\w" also holds the digits
        # and numerals that "\d" does not, such as "²" and "½"
        if kind == "bad" or kind == "name" and not (tok[0].isalpha()
                                                    or tok[0] == "_"):
            raise ExprSyntaxError(f"unexpected character {tok[0]!r}", at)
        tokens.append((kind, tok, at))
    return tokens + [("end", "", len(text))]


def _is_variable_name(name: str) -> bool:
    if name == "t":
        return True
    return (len(name) >= 2 and name[0] == "x" and name[1:].isdecimal()
            and name[1] != "0")


class _Parser:
    """Recursive descent that tracks the depth of the tree it builds (a
    bracket counts as one level), so no tree deeper than ``MAX_DEPTH``
    reaches the recursive walks of ``Program.compile``, ``str`` and the
    dataclass methods."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def take(self, ops: str) -> str | None:
        """The next token, consumed, if it is one of the operators or
        brackets in ``ops``."""
        kind, text, _ = self.tokens[self.pos]
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return None

    def expect(self, op: str):
        if not self.take(op):
            _, text, at = self.tokens[self.pos]
            raise ExprSyntaxError(
                f"expected {op!r}, found {text or 'end of input'!r}", at)

    def limit(self, depth: int, at: int | None = None):
        """Refuse a tree whose deepest level, at ``depth`` (the root is at
        1), passes ``MAX_DEPTH``; ``at`` is the offset of the token that
        crosses it, the next token by default."""
        if depth > MAX_DEPTH:
            at = self.tokens[self.pos][2] if at is None else at
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", at)

    def parse(self) -> Expr:
        node, _ = self.chain(1)
        kind, text, at = self.tokens[self.pos]
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {text!r}", at)
        return node

    # Each rule below parses a subtree whose root sits at ``depth`` and
    # returns it with its height.  An operator that takes a parsed subtree
    # as its left operand moves the subtree one level down.

    def chain(self, depth: int, levels=("+-", "*/")) -> tuple:
        """A left-associative chain of the operators ``levels[0]`` between
        operands of the tighter levels after it, ``unary`` the tightest."""
        operand = ((lambda d: self.chain(d, levels[1:])) if levels[1:]
                   else self.unary)
        node, height = operand(depth)
        while op := self.take(levels[0]):
            height += 1
            self.limit(depth + height - 1, self.tokens[self.pos - 1][2])
            rhs, rhs_height = operand(depth + 1)
            node, height = Bin(op, node, rhs), max(height, rhs_height + 1)
        return node, height

    def unary(self, depth: int) -> tuple:
        self.limit(depth)
        if sign := self.take("+-"):
            # a sign counts as a level, as a bracket does
            arg, height = self.unary(depth + 1)
            return (Neg(arg) if sign == "-" else arg), height + 1
        base, height = self.atom(depth)
        if not self.take("^"):
            return base, height
        # the exponent may carry its own sign and chained powers
        self.limit(depth + height, self.tokens[self.pos - 1][2])
        exponent, exp_height = self.unary(depth + 1)
        return Bin("^", base, exponent), max(height, exp_height) + 1

    def atom(self, depth: int) -> tuple:
        kind, text, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return Num(float(text)), 1
        if kind == "op" and text == "(":
            node, height = self.chain(depth + 1)
            self.expect(")")
            return node, height + 1
        if kind != "name":
            raise ExprSyntaxError(
                f"expected a value, found {text or 'end of input'!r}", at)
        if not self.take("("):
            if not _is_variable_name(text):
                raise ExprSyntaxError(f"unknown identifier {text!r}", at)
            return Var(text), 1
        if text not in FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {text!r}", at)
        args = [self.chain(depth + 1)]
        while self.take(","):
            args.append(self.chain(depth + 1))
        self.expect(")")
        lo, hi, _ = FUNCTIONS[text]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ExprSyntaxError(
                f"{text} takes {lo}{'+' if hi is None else ''} "
                f"argument(s), got {len(args)}", at)
        return (Call(text, tuple(node for node, _ in args)),
                max(height for _, height in args) + 1)


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into a syntax tree.

    Raises ``ExprSyntaxError`` (with byte offset) on malformed input or
    unknown identifiers.  Printing the result with ``str`` and re-parsing
    reproduces the identical tree.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()
