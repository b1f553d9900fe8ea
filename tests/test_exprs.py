"""Expression grammar: postfix programs, error offsets, evaluation."""

import random
from fractions import Fraction

import pytest

from riordan import (
    ExprSyntaxError,
    RiordanError,
    TruncSeries,
    UnknownNameError,
    ValuationError,
    named_series,
    parse,
    series_from_text,
)


# ---- grammar smoke ----

def test_parse_fibonacci_form():
    assert parse("1/(1-z-z^2)") == (
        ("int", 1), ("int", 1), ("z", None), ("-", None),
        ("z", None), ("^", 2), ("-", None), ("/", None),
    )


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
    assert parse("(" * 50 + "z" + ")" * 50) == (("z", None),)
    root = series_from_text("sqrt(" * 50 + "1+4*z" + ")" * 50, 4)
    assert root.coeffs[:2] == (1, Fraction(4, 2**50))


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels") as err:
        parse("(" * 3000 + "1" + ")" * 3000)
    assert err.value.offset == 100


# ---- precedence ----

def test_unary_minus_binds_looser_than_power():
    assert parse("-z^2") == (("z", None), ("^", 2), ("neg", None))


def test_subtraction_left_associative():
    assert parse("1-z-z^2") == (
        ("int", 1), ("z", None), ("-", None), ("z", None), ("^", 2), ("-", None),
    )


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


def test_flat_chains_evaluate_without_recursion():
    assert series_from_text("*".join(["z"] * 3000), 4) == TruncSeries.zero(4)
    assert series_from_text("-".join(["1"] * 3000), 3) == TruncSeries.constant(-2998, 3)


# ---- random trees against the parser and evaluator ----

_NAMES = ("fib", "lucas")


def random_tree(rng: random.Random, depth: int):
    """A tuple tree: (leaf, value), (unary, child[, exponent]) or (op, left, right)."""
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return ("int", rng.randint(0, 9))
        if kind == 1:
            return ("z", None)
        return ("name", rng.choice(_NAMES))
    kind = rng.randrange(5)
    if kind == 0:
        return ("neg", random_tree(rng, depth - 1))
    if kind == 1:
        return ("^", random_tree(rng, depth - 1), rng.randint(0, 4))
    if kind == 2:
        return ("sqrt", random_tree(rng, depth - 1))
    return (rng.choice("+-*/"), random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def render(tree) -> str:
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "z":
        return "z"
    if kind == "name":
        return tree[1]
    if kind == "sqrt":
        return f"sqrt({render(tree[1])})"
    if kind == "neg":
        return f"-{render_atom(tree[1])}"
    if kind == "^":
        return f"{render_atom(tree[1])}^{tree[2]}"
    return f"({render(tree[1])} {kind} {render(tree[2])})"


def render_atom(tree) -> str:
    # wrap anything the atom rule cannot carry on its own
    text = render(tree)
    return text if tree[0] in ("int", "z", "name", "sqrt") else f"({text})"


def post_order(tree) -> tuple:
    kind = tree[0]
    if kind in ("int", "z", "name"):
        return (tree,)
    if kind in ("neg", "sqrt"):
        return post_order(tree[1]) + ((kind, None),)
    if kind == "^":
        return post_order(tree[1]) + (("^", tree[2]),)
    return post_order(tree[1]) + post_order(tree[2]) + ((kind, None),)


def evaluate(tree, n: int) -> TruncSeries:
    kind = tree[0]
    if kind == "int":
        return TruncSeries.constant(tree[1], n)
    if kind == "z":
        return TruncSeries.z(n)
    if kind == "name":
        return named_series(tree[1], n)
    if kind == "neg":
        return -evaluate(tree[1], n)
    if kind == "sqrt":
        return evaluate(tree[1], n).sqrt()
    if kind == "^":
        return evaluate(tree[1], n) ** tree[2]
    left, right = evaluate(tree[1], n), evaluate(tree[2], n)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    return left / right


def outcome(compute):
    """The result, or the type of the RiordanError raised instead."""
    try:
        return compute()
    except RiordanError as e:
        return type(e)


def test_random_trees_parse_to_post_order_and_evaluate():
    rng = random.Random(41)
    for _ in range(100):
        tree = random_tree(rng, rng.randint(1, 4))
        text = render(tree)
        assert parse(text) == post_order(tree), text
        assert outcome(lambda: series_from_text(text, 6)) == outcome(lambda: evaluate(tree, 6)), text
