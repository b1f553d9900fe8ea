"""Expression grammar: parse trees, error offsets, evaluation, printing."""

import random
from fractions import Fraction

import pytest

from riordan import (
    ExprSyntaxError,
    UnknownNameError,
    ValuationError,
    eval_series,
    parse,
    series_from_text,
    to_text,
)
from riordan.exprs import BinOp, IntLit, NameRef, Neg, Pow, Sqrt, Var


# ---- grammar smoke ----

def test_parse_fibonacci_form():
    tree = parse("1/(1-z-z^2)")
    assert tree == BinOp("/", IntLit(1),
                         BinOp("-", BinOp("-", IntLit(1), Var()), Pow(Var(), 2)))


def test_parse_modified_lucas_form():
    assert parse("(1+z^2)/(1-z-z^2)") is not None


def test_unbalanced_sqrt_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sqrt(")
    assert err.value.offset == 5


def test_unknown_name_offset():
    with pytest.raises(UnknownNameError) as err:
        parse("1 + mystery")
    assert err.value.offset == 4


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2z")
    assert err.value.offset == 1


def test_negative_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("z^-1")


def test_illegal_character():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + $")
    assert err.value.offset == 4


def test_empty_input():
    with pytest.raises(ExprSyntaxError) as err:
        parse("   ")
    assert err.value.offset == 3


def test_missing_close_paren():
    with pytest.raises(ExprSyntaxError):
        parse("(1+z")


def test_fifty_nested_levels_parse():
    assert parse("(" * 50 + "z" + ")" * 50) == Var()
    root = series_from_text("sqrt(" * 50 + "1+4*z" + ")" * 50, 4)
    assert root.coeffs[:2] == (1, Fraction(4, 2**50))


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels") as err:
        parse("(" * 3000 + "1" + ")" * 3000)
    assert err.value.offset == 100


# ---- precedence ----

def test_unary_minus_binds_looser_than_power():
    assert parse("-z^2") == Neg(Pow(Var(), 2))


def test_subtraction_left_associative():
    assert parse("1-z-z^2") == BinOp("-", BinOp("-", IntLit(1), Var()), Pow(Var(), 2))


def test_precedence_against_explicit_parens():
    assert series_from_text("1-z-z^2", 6) == series_from_text("(1-z)-(z^2)", 6)
    assert series_from_text("2*z^3", 6) == series_from_text("2*(z^3)", 6)
    assert series_from_text("-z^2", 6) == series_from_text("-(z^2)", 6)


# ---- evaluation ----

def test_eval_fibonacci():
    s = series_from_text("1/(1-z-z^2)", 8)
    assert [int(c) for c in s.coeffs] == [1, 1, 2, 3, 5, 8, 13, 21]


def test_eval_z():
    s = series_from_text("z", 4)
    assert [int(c) for c in s.coeffs] == [0, 1, 0, 0]


def test_eval_fibonacci_f_closed_form():
    s = series_from_text("(1-z-z^2-sqrt(5*z^4+10*z^3-z^2-6*z+1))/(2-2*z-2*z^2)", 8)
    assert [int(c) for c in s.coeffs] == [0, 1, 3, 9, 32, 126, 538, 2429]


def test_eval_named_reference():
    assert series_from_text("lucas", 7) == series_from_text("(1+z^2)/(1-z-z^2)", 7)


def test_eval_rational_literal_via_division():
    s = series_from_text("3/4", 3)
    assert s.coeffs[0] == Fraction(3, 4)


def test_eval_propagates_series_errors():
    with pytest.raises(ValuationError):
        series_from_text("1/z", 8)


def test_eval_order_monotone():
    forms = [
        "1/(1-z-z^2)",
        "(1+z^2)/(1-z-z^2)",
        "sqrt(1+4*z)",
        "-z^2 + (2-z)*(3+z)",
        "fib*lucas - cfib2",
        "(1-z-z^2-sqrt(z^4+10*z^3-13*z^2-10*z+1))/(4-2*z)",
    ]
    for text in forms:
        wide = series_from_text(text, 16)
        for k in (1, 4, 9):
            assert wide.truncate(k) == series_from_text(text, k)


# ---- canonical printing ----

_NAMES = ("fib", "lucas")


def random_tree(rng: random.Random, depth: int):
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return IntLit(rng.randint(0, 9))
        if kind == 1:
            return Var()
        return NameRef(rng.choice(_NAMES))
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(random_tree(rng, depth - 1))
    if kind == 1:
        return Pow(random_tree(rng, depth - 1), rng.randint(0, 4))
    if kind == 2:
        return Sqrt(random_tree(rng, depth - 1))
    op = rng.choice("+-*/")
    return BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_print_parse_idempotent_on_random_trees():
    rng = random.Random(41)
    for _ in range(100):
        tree = random_tree(rng, rng.randint(1, 4))
        text = to_text(tree)
        reparsed = parse(text)
        assert reparsed == tree
        assert parse(to_text(reparsed)) == reparsed


def test_print_parse_on_reference_forms():
    for text in ("1/(1-z-z^2)", "(1+z^2)/(1-z-z^2)", "-z^2", "2*z^3",
                 "sqrt(5*z^2+10*z+1)"):
        tree = parse(text)
        assert parse(to_text(tree)) == tree
