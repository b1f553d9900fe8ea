"""Recursive-descent parser for generating-function expressions.

Grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' uint)?
    atom   := uint | 'z' | name | '(' expr ')' | 'sqrt' '(' expr ')'

'^' takes a nonnegative integer exponent and binds tighter than unary
minus, so -z^2 means -(z^2).  Names resolve against the named generating
function registry at parse time.

``parse`` returns a flat postfix program, a tuple of ``(op, arg)`` steps.
``("int", n)``, ``("z", None)`` and ``("name", name)`` push a series;
``("neg", None)``, ``("^", k)`` and ``("sqrt", None)`` map the top one;
``("+" | "-" | "*" | "/", None)`` combine the top two.  ``eval_series`` runs
it in one loop, so only brackets, bounded by ``MAX_DEPTH``, cost recursion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any

from . import constructions
from .errors import ExprSyntaxError, UnknownNameError
from .series import TruncSeries

Program = tuple[tuple[str, Any], ...]

# brackets may nest this deep; each level costs the recursive-descent parser
# five frames (bracketed, expr, term, factor, atom) of the interpreter's stack
MAX_DEPTH = 100

_BINARY = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}


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
    """Appends the postfix steps of each rule to ``out`` as it parses."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.out: list[tuple[str, Any]] = []

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

    def bracketed(self) -> None:
        tok = self.peek()
        self.expect_op("(")
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"brackets nested deeper than {MAX_DEPTH} levels",
                                  tok.offset)
        self.expr()
        self.expect_op(")")
        self.depth -= 1

    def expr(self) -> None:
        self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            self.term()
            self.out.append((op, None))

    def term(self) -> None:
        self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            self.factor()
            self.out.append((op, None))

    def factor(self) -> None:
        negated = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            negated = True
        self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "int":
                raise ExprSyntaxError("exponent must be a nonnegative integer", tok.offset)
            self.take()
            self.out.append(("^", int(tok.text)))
        if negated:
            self.out.append(("neg", None))

    def atom(self) -> None:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            self.out.append(("int", int(tok.text)))
        elif tok.kind == "name":
            self.take()
            if tok.text == "z":
                self.out.append(("z", None))
            elif tok.text == "sqrt":
                self.bracketed()
                self.out.append(("sqrt", None))
            elif tok.text in constructions.gf_names():
                self.out.append(("name", tok.text))
            else:
                raise UnknownNameError(f"unknown series name {tok.text!r}", tok.offset)
        elif tok.kind == "op" and tok.text == "(":
            self.bracketed()
        else:
            raise ExprSyntaxError("expected an expression", tok.offset)


def parse(text: str) -> Program:
    """Parse to a postfix program; offsets in errors index into ``text``."""
    parser = _Parser(_tokenize(text))
    parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError("unexpected trailing input", tok.offset)
    return tuple(parser.out)


def eval_series(program: Program, order: int) -> TruncSeries:
    """Run the postfix program on a stack at the requested truncation order."""
    stack: list[TruncSeries] = []
    for op, arg in program:
        if op == "int":
            stack.append(TruncSeries.constant(arg, order))
        elif op == "z":
            stack.append(TruncSeries.z(order))
        elif op == "name":
            stack.append(constructions.named_series(arg, order))
        elif op == "neg":
            stack.append(-stack.pop())
        elif op == "^":
            stack.append(stack.pop() ** arg)
        elif op == "sqrt":
            stack.append(stack.pop().sqrt())
        else:
            right = stack.pop()
            stack.append(_BINARY[op](stack.pop(), right))
    (result,) = stack
    return result


def series_from_text(text: str, order: int) -> TruncSeries:
    return eval_series(parse(text), order)
