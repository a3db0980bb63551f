"""A minimal arithmetic-expression grammar for spatially varying inputs.

Supported: ``+ - * /``, unary ``-`` and ``+``, parentheses, decimal
number literals, the coordinates ``x1 .. x3`` and the functions ``sin``,
``cos``, ``exp`` of one argument.  Python's :mod:`ast` parses an
expression once, :func:`_check` refuses every form outside the grammar,
and :func:`_evaluate` walks the tree vectorised over numpy coordinate
arrays.  Nothing is handed to ``eval`` or ``compile``; each rejection
names the offending part.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression"]


class ExpressionError(ValueError):
    """Raised for syntax errors or unknown names in an expression."""


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_COORDINATES = ("x1", "x2", "x3")
_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}
# A character outside the grammar: Python would skip a comment ("1 # c")
# and accept a trailing comma ("sin(x1,)").
_STRAY = re.compile(r"[^0-9A-Za-z_.+\-*/()\s]")
# The decimal literals; Python's others (0x10, 1_000, 1j) are refused by
# their text.
_NUMBER = re.compile(r"[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?")
# Python refuses leading zeros on an integer (007); the grammar reads 7.
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=[0-9])")


@dataclass(frozen=True)
class Expression:
    """A parsed expression; call with a tuple of coordinate arrays.  Two
    expressions are equal when their sources are."""

    source: str
    max_coordinate: int = field(compare=False)  # highest index used, 0 if constant
    _tree: ast.expr = field(compare=False, repr=False)

    def __call__(self, coords: tuple) -> np.ndarray:
        """Evaluate over broadcastable coordinate arrays (x1, ..., xd)."""
        return _evaluate(self._tree, coords)


def parse_expression(text) -> Expression:
    """Parse ``text`` (or pass through numbers) into an :class:`Expression`."""
    if isinstance(text, Expression):
        return text
    if isinstance(text, (int, float)):
        return Expression(repr(text), 0, ast.Constant(float(text)))
    if not isinstance(text, str):
        raise ExpressionError(f"cannot parse expression from {type(text).__name__}")
    stray = _STRAY.search(text)
    if stray:
        raise ExpressionError(
            f"unexpected character {stray.group()!r} at position {stray.start()} in {text!r}"
        )
    # Each run of whitespace, a newline or a tab too, reads as one space.
    source = _LEADING_ZEROS.sub("", " ".join(text.split()))
    if not source:
        raise ExpressionError("empty expression")
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as err:
        raise ExpressionError(f"{err.msg} in {text!r}") from None
    return Expression(text, _check(tree, source), tree)


def _check(node: ast.expr, source: str) -> int:
    """The highest coordinate index ``node`` uses; refuses every form
    outside the grammar, and sets each literal to the float its text reads."""
    part = ast.get_source_segment(source, node)
    match node:
        case ast.Constant() if _NUMBER.fullmatch(part):
            node.value = float(part)
            return 0
        case ast.Name(id=name) if name in _COORDINATES:
            return int(name[1])
        case ast.UnaryOp(op=ast.UAdd() | ast.USub(), operand=operand):
            return _check(operand, source)
        case ast.BinOp(op=op, left=left, right=right) if type(op) in _BINARY:
            return max(_check(left, source), _check(right, source))
        case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if name in _FUNCTIONS:
            return _check(arg, source)
    raise ExpressionError(
        f"{part!r} in {source!r} is outside the grammar: decimal numbers, "
        "x1..x3, + - * / and sin, cos, exp of one argument"
    )


def _evaluate(node: ast.expr, coords: tuple):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        index = int(node.id[1])
        if index > len(coords):
            raise ExpressionError(
                f"expression uses x{index} but only {len(coords)} coordinates exist"
            )
        return coords[index - 1]
    if isinstance(node, ast.UnaryOp):
        value = _evaluate(node.operand, coords)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], coords))
    return _BINARY[type(node.op)](_evaluate(node.left, coords), _evaluate(node.right, coords))
