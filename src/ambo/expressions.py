"""A minimal arithmetic-expression grammar for spatially varying inputs.

Supported: ``+ - * /``, unary minus, parentheses, numeric literals, the
coordinates ``x1 .. x3`` and the functions ``sin``, ``cos``, ``exp``.
Expressions are parsed once into a small AST and evaluated vectorised
over numpy coordinate arrays.  No ``eval`` and no other names — unknown
identifiers are rejected at parse time with a pointer to the offending
token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression"]


class ExpressionError(ValueError):
    """Raised for syntax errors or unknown names in an expression."""


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExpressionError(
                f"unexpected character {rest[0]!r} at position {pos} in {text!r}"
            )
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        elif m.group("op") is not None:
            tokens.append(("op", m.group("op")))
    return tokens


@dataclass(frozen=True)
class Expression:
    """A parsed expression; call with a tuple of coordinate arrays."""

    source: str
    _ast: tuple

    def __call__(self, coords: tuple) -> np.ndarray:
        """Evaluate over broadcastable coordinate arrays (x1, ..., xd)."""
        return _eval_node(self._ast, coords)

    @property
    def max_coordinate(self) -> int:
        """Highest coordinate index used (0 if constant)."""
        return _max_coord(self._ast)


def parse_expression(text) -> Expression:
    """Parse ``text`` (or pass through numbers) into an :class:`Expression`."""
    if isinstance(text, Expression):
        return text
    if isinstance(text, (int, float)):
        return Expression(source=repr(text), _ast=("num", float(text)))
    if not isinstance(text, str):
        raise ExpressionError(f"cannot parse expression from {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    parser = _Parser(tokens, text)
    ast = parser.parse_expr()
    parser.expect_end()
    return Expression(source=text, _ast=ast)


class _Parser:
    def __init__(self, tokens: list, text: str) -> None:
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_end(self) -> None:
        if self.i != len(self.tokens):
            raise ExpressionError(
                f"trailing input {self.tokens[self.i]!r} in {self.text!r}"
            )

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.advance()
            node = (op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.advance()
            node = (op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek() == ("op", "-"):
            self.advance()
            return ("neg", self.parse_unary())
        if self.peek() == ("op", "+"):
            self.advance()
            return self.parse_unary()
        return self.parse_atom()

    def parse_atom(self):
        kind, val = self.advance()
        if kind == "num":
            return ("num", val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            if self.advance() != ("op", ")"):
                raise ExpressionError(f"missing ')' in {self.text!r}")
            return node
        if kind == "name":
            if val in _FUNCTIONS:
                if self.advance() != ("op", "("):
                    raise ExpressionError(
                        f"function {val!r} needs parentheses in {self.text!r}"
                    )
                node = self.parse_expr()
                if self.advance() != ("op", ")"):
                    raise ExpressionError(f"missing ')' in {self.text!r}")
                return ("call", val, node)
            m = re.fullmatch(r"x([123])", val)
            if m:
                return ("coord", int(m.group(1)))
            raise ExpressionError(
                f"unknown name {val!r} in {self.text!r}; allowed: "
                f"x1..x3, {', '.join(sorted(_FUNCTIONS))}"
            )
        raise ExpressionError(f"unexpected token in {self.text!r}")


def _eval_node(node: tuple, coords: tuple):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "coord":
        idx = node[1]
        if idx > len(coords):
            raise ExpressionError(
                f"expression uses x{idx} but only {len(coords)} coordinates exist"
            )
        return coords[idx - 1]
    if kind == "neg":
        return -_eval_node(node[1], coords)
    if kind == "call":
        return _FUNCTIONS[node[1]](_eval_node(node[2], coords))
    a = _eval_node(node[1], coords)
    b = _eval_node(node[2], coords)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    raise ExpressionError(f"corrupt AST node {node!r}")


def _max_coord(node: tuple) -> int:
    kind = node[0]
    if kind == "coord":
        return node[1]
    if kind in ("num",):
        return 0
    if kind == "neg":
        return _max_coord(node[1])
    if kind == "call":
        return _max_coord(node[2])
    return max(_max_coord(node[1]), _max_coord(node[2]))
