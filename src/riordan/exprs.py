"""Recursive-descent parser for generating-function expressions.

Grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' uint)?
    atom   := uint | 'z' | name | '(' expr ')' | 'sqrt' '(' expr ')'

'^' takes a nonnegative integer exponent and binds tighter than unary
minus, so -z^2 means -(z^2).  Names resolve against the named generating
function registry at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from . import constructions
from .errors import ExprSyntaxError, UnknownNameError
from .series import TruncSeries

GFExpr = Union["IntLit", "Var", "NameRef", "Neg", "BinOp", "Pow", "Sqrt"]

# brackets may nest this deep; each level costs the recursive-descent parser
# four stack frames, so deeper input would exhaust the interpreter's stack
MAX_DEPTH = 100


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class Neg:
    child: GFExpr


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: GFExpr
    right: GFExpr


@dataclass(frozen=True)
class Pow:
    base: GFExpr
    exponent: int


@dataclass(frozen=True)
class Sqrt:
    child: GFExpr


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", "op", "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            out.append(_Token("op", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], names: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.offset)
        self.take()

    def bracketed(self) -> GFExpr:
        tok = self.peek()
        self.expect_op("(")
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"brackets nested deeper than {MAX_DEPTH} levels",
                                  tok.offset)
        inner = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return inner

    def expr(self) -> GFExpr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> GFExpr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> GFExpr:
        negated = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            negated = True
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "int":
                raise ExprSyntaxError("exponent must be a nonnegative integer", tok.offset)
            self.take()
            node = Pow(node, int(tok.text))
        return Neg(node) if negated else node

    def atom(self) -> GFExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return IntLit(int(tok.text))
        if tok.kind == "name":
            self.take()
            if tok.text == "z":
                return Var()
            if tok.text == "sqrt":
                return Sqrt(self.bracketed())
            if tok.text not in self.names:
                raise UnknownNameError(f"unknown series name {tok.text!r}", tok.offset)
            return NameRef(tok.text)
        if tok.kind == "op" and tok.text == "(":
            return self.bracketed()
        raise ExprSyntaxError("expected an expression", tok.offset)


def parse(text: str, names: Iterable[str] | None = None) -> GFExpr:
    """Parse to a syntax tree; offsets in errors index into ``text``."""
    known = frozenset(constructions.gf_names() if names is None else names)
    parser = _Parser(_tokenize(text), known)
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError("unexpected trailing input", tok.offset)
    return node


def eval_series(node: GFExpr, order: int) -> TruncSeries:
    """Bottom-up evaluation at the requested truncation order."""
    if isinstance(node, IntLit):
        return TruncSeries.constant(node.value, order)
    if isinstance(node, Var):
        return TruncSeries.z(order)
    if isinstance(node, NameRef):
        return constructions.named_series(node.name, order)
    if isinstance(node, Neg):
        return -eval_series(node.child, order)
    if isinstance(node, Pow):
        return eval_series(node.base, order) ** node.exponent
    if isinstance(node, Sqrt):
        return eval_series(node.child, order).sqrt()
    left = eval_series(node.left, order)
    right = eval_series(node.right, order)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return left / right


def series_from_text(text: str, order: int, names: Iterable[str] | None = None) -> TruncSeries:
    return eval_series(parse(text, names), order)


def to_text(node: GFExpr) -> str:
    """Canonical rendering that reparses to an equal tree."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Var):
        return "z"
    if isinstance(node, NameRef):
        return node.name
    if isinstance(node, Sqrt):
        return f"sqrt({to_text(node.child)})"
    if isinstance(node, Neg):
        return f"-{_atom_text(node.child)}"
    if isinstance(node, Pow):
        return f"{_atom_text(node.base)}^{node.exponent}"
    return f"({to_text(node.left)} {node.op} {to_text(node.right)})"


def _atom_text(node: GFExpr) -> str:
    # wrap anything the atom rule cannot carry on its own
    if isinstance(node, (IntLit, Var, NameRef, Sqrt)):
        return to_text(node)
    return f"({to_text(node)})"
