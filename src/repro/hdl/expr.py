"""Arithmetic expressions over macro parameters.

SCALD macro definitions size their signals with expressions such as
``SIZE-1`` in ``I<0:SIZE-1>`` (Figure 3-5).  This module provides a small,
safe evaluator for integer/float arithmetic over named parameters —
no ``eval``, no attribute access, just ``+ - * / ( )`` and names.

A design repeats a handful of expression texts across thousands of macro
instances, so each text is parsed once into a small tuple tree (cached per
text) and every use only walks that tree against its parameters.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Mapping

Number = int | float

#: A compiled expression: a number, a parameter name, ``("neg", operand)``
#: or ``(op, lhs, rhs)`` with ``op`` one of ``+ - * /``.
Tree = Number | str | tuple


class ExpressionError(ValueError):
    """Raised for malformed expressions or unknown parameter names."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"bad character in expression {text!r} at {pos}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))  # type: ignore[arg-type]
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for ``expr := term (('+'|'-') term)*``.

    Builds a :data:`Tree`; nothing is evaluated here, so the same tree
    serves every parameter binding.
    """

    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        if self.pos >= len(self.tokens):
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expr(self) -> Tree:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[1]
            node = (op, node, self.term())
        return node

    def term(self) -> Tree:
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[1]
            node = (op, node, self.unary())
        return node

    def unary(self) -> Tree:
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        return self.atom()

    def atom(self) -> Tree:
        kind, tok = self.take()
        if tok == "(":
            node = self.expr()
            if self.take()[1] != ")":
                raise ExpressionError("missing closing parenthesis")
            return node
        if kind == "num":
            return float(tok) if "." in tok else int(tok)
        if kind == "name":
            return tok
        raise ExpressionError(f"unexpected token {tok!r}")


@lru_cache(maxsize=1024)
def compile_expr(text: str) -> Tree:
    """Parse ``text`` into a :data:`Tree`, once per distinct text.

    The cache is bounded: ``scald-serve`` feeds it client-supplied text.
    """
    parser = _Parser(_tokenize(text))
    tree = parser.expr()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input in expression {text!r}")
    return tree


def _walk(node: Tree, env: Mapping[str, Number]) -> Number:
    if type(node) is str:
        try:
            return env[node]
        except KeyError:
            raise ExpressionError(f"unknown parameter {node!r}") from None
    if type(node) is not tuple:
        return node  # type: ignore[return-value]
    if node[0] == "neg":
        return -_walk(node[1], env)
    op, lhs, rhs = node
    a = _walk(lhs, env)
    b = _walk(rhs, env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise ExpressionError("division by zero in expression")
    value = a / b
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return value


def evaluate(text: str, env: Mapping[str, Number] | None = None) -> Number:
    """Evaluate an arithmetic expression with parameters from ``env``.

    >>> evaluate("SIZE-1", {"SIZE": 32})
    31
    """
    return _walk(compile_expr(text), env or {})


def evaluate_int(text: str, env: Mapping[str, Number] | None = None) -> int:
    """Evaluate and require an integral result (for widths and counts)."""
    value = evaluate(text, env)
    if isinstance(value, float):
        if not value.is_integer():
            raise ExpressionError(f"expression {text!r} is not an integer")
        value = int(value)
    return value
