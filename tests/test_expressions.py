"""Tests for the small analytic-expression grammar used in config files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambo.expressions import ExpressionError, parse_expression


def _eval(source, *coords):
    return parse_expression(source)(tuple(np.asarray(c, dtype=float) for c in coords))


def test_literal_and_arithmetic():
    assert _eval("3", 0.0) == pytest.approx(3.0)
    assert _eval("1 + 2*3", 0.0) == pytest.approx(7.0)
    assert _eval("(1 + 2) * 3", 0.0) == pytest.approx(9.0)
    assert _eval("7 / 2", 0.0) == pytest.approx(3.5)
    assert _eval("-4 + 1", 0.0) == pytest.approx(-3.0)
    assert _eval("2e-3", 0.0) == pytest.approx(0.002)
    # Leading zeros read as decimals; a constant is a Python float.
    assert _eval("007 + .5", 0.0) == 7.5
    assert type(parse_expression("3")(())) is float


def test_coordinates_broadcast():
    x = np.linspace(0.0, 1.0, 11)
    y = np.full_like(x, 0.5)
    out = _eval("x1 + 10*x2", x, y)
    assert out == pytest.approx(x + 5.0)
    # A newline or a tab reads as a space.
    assert _eval("1\n+ x1", x).tobytes() == _eval("1 + x1", x).tobytes()
    assert _eval("\t2 *\n3 ", 0.0) == 6.0


def test_functions():
    assert _eval("sin(0)", 0.0) == pytest.approx(0.0)
    assert _eval("cos(0)", 0.0) == pytest.approx(1.0)
    assert _eval("exp(1)", 0.0) == pytest.approx(math.e)
    assert _eval("sin(x1)*sin(x1) + cos(x1)*cos(x1)", 0.37) == pytest.approx(1.0)


def test_unary_minus_binds_tighter_than_addition():
    assert _eval("-x1 + 1", 0.25) == pytest.approx(0.75)
    assert _eval("2 - -3", 0.0) == pytest.approx(5.0)


def test_max_coordinate_and_is_constant():
    e = parse_expression("1 + 0.2*x1")
    assert e.max_coordinate == 1
    assert parse_expression("3*2 + sin(1)").max_coordinate == 0
    assert parse_expression("x3").max_coordinate == 3
    assert parse_expression("sin(x2)").max_coordinate == 2
    assert parse_expression("-x3").max_coordinate == 3
    assert parse_expression("1\n+ x1").max_coordinate == 1


def test_malformed_expressions_rejected():
    for bad in (
        "1 +", "x4", "foo(1)", "2 ** 3", "(1", "x1 x2", "", "1..2",
        # Python's grammar has these forms; the expression grammar does not.
        "0x10", "1_000", "1j", "True", "x1 % 2", "x1 < 2", "sin(x1, 2)", "sin(x=1)",
        "x1.real", "__import__('os')", "1 if 1 else 2", "1 # note", "sin(x1,)", "sin()",
        "not x1",
    ):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_parse_passes_through_numbers_and_expressions():
    e = parse_expression(2.5)
    assert e.max_coordinate == 0
    assert e((np.zeros(3),)) == pytest.approx(2.5)
    again = parse_expression(e)
    assert again is e


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-100, 100), b=st.floats(-100, 100))
def test_addition_round_trip(a, b):
    got = _eval(f"{a!r} + {b!r}", 0.0)
    assert got == pytest.approx(a + b, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.0, 1.0))
def test_composed_expression_matches_numpy(x):
    got = _eval("exp(-x1) * sin(2*x1) + cos(x1/3)", x)
    assert got == pytest.approx(
        math.exp(-x) * math.sin(2 * x) + math.cos(x / 3), rel=1e-12, abs=1e-12
    )
