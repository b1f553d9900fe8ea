"""Stochastic arrays, pseudo-involution builders, named series registry."""

import random
from fractions import Fraction

import pytest

from riordan import (
    OrderError,
    OrderTwoError,
    PairInvariantError,
    PreconditionError,
    RiordanPair,
    TruncSeries,
    family_from_f,
    g_subgroup_inv,
    g_subgroup_mul,
    gf_names,
    has_comp_order_two,
    named_series,
    power_pseudo,
    pseudo_from_g,
    stochastic_from_g,
)

from conftest import convolve, random_series

N = 32


def poly(coeffs, order=N):
    return TruncSeries.polynomial(coeffs, order)


def as_ints(rows):
    return [[int(c) for c in row] for row in rows]


# ---- named generating functions ----

def test_named_fib():
    assert [int(c) for c in named_series("fib", 7).coeffs] == [1, 1, 2, 3, 5, 8, 13]


def test_named_lucas():
    assert [int(c) for c in named_series("lucas", 7).coeffs] == [1, 1, 3, 4, 7, 11, 18]


def test_named_cfib_is_power_of_fib():
    assert named_series("cfib2", 10) == named_series("fib", 10) ** 2
    assert named_series("cfib3", 10) == named_series("fib", 10) ** 3


def test_registry_contents():
    names = gf_names()
    for required in ("fib", "lucas", "cfib2"):
        assert required in names
    with pytest.raises(KeyError):
        named_series("nope", 8)


# ---- stochastic arrays ----

def test_stochastic_lucas_array_rows():
    pair = stochastic_from_g(named_series("lucas", N))
    expected_f = poly([0, 0, -2, 1]) / poly([1, -1, -1])
    assert pair.f == expected_f
    assert as_ints(pair.expand(5).rows)[4] == [7, -10, 4, 0, 0]
    assert not pair.proper


def test_stochastic_lucas_matrix_row2():
    g = poly([1, 2]) / poly([1, -1, -1])
    assert as_ints(stochastic_from_g(g).expand(3).rows)[2] == [4, -7, 4]


def test_stochastic_fib():
    pair = stochastic_from_g(named_series("fib", N))
    assert pair.f == poly([0, 0, -1]) / poly([1, -1, -1])
    assert all(s == 1 for s in pair.expand(16).row_sums())


def test_stochastic_geometric_collapses_f():
    pair = stochastic_from_g(1 / (TruncSeries.one(N) - TruncSeries.z(N)))
    assert pair.f.is_zero
    for n, row in enumerate(pair.expand(6).rows):
        assert [int(c) for c in row] == [1] + [0] * n


def test_stochastic_constant_one_gives_identity():
    pair = stochastic_from_g(TruncSeries.one(N))
    assert pair.f == TruncSeries.z(N)
    assert all(s == 1 for s in pair.expand(6).row_sums())


def test_stochastic_row_sums_for_random_g():
    rng = random.Random(31)
    for _ in range(25):
        coeffs = [1] + [rng.randint(-3, 3) for _ in range(15)]
        pair = stochastic_from_g(TruncSeries(coeffs))
        assert all(s == 1 for s in pair.expand(12).row_sums())


def test_stochastic_preconditions():
    with pytest.raises(PairInvariantError):
        stochastic_from_g(TruncSeries.z(8))
    # the formula only yields a valid pair for g(0) = 1
    with pytest.raises(PairInvariantError):
        stochastic_from_g(TruncSeries.constant(2, 8))


@pytest.mark.parametrize("g0, shown", ((0, "0"), (2, "2"), (Fraction(1, 2), "1/2"),
                                       (Fraction(-3, 4), "-3/4")))
def test_stochastic_names_the_constant_term_it_needs(g0, shown):
    g = TruncSeries([g0, 1, Fraction(1, 3)])
    with pytest.raises(PairInvariantError, match=f"needs g\\(0\\) = 1, got g\\(0\\) = {shown}$"):
        stochastic_from_g(g)


# ---- pseudo-involutions from g ----

def test_pseudo_from_g_recovers_pascal():
    one = TruncSeries.one(N)
    z = TruncSeries.z(N)
    pair = pseudo_from_g(1 / (one - z))
    assert pair.f == z / (one - z)


def test_pseudo_from_g_lucas_rows():
    pair = pseudo_from_g(named_series("lucas", N))
    assert as_ints(pair.expand(4).rows)[3] == [4, 33, 11, 1]
    assert pair.is_pseudo_involution(16)


def test_pseudo_from_g_fib_closed_form():
    pair = pseudo_from_g(named_series("fib", N))
    closed = (poly([1, -1, -1]) - poly([1, -6, -1, 10, 5]).sqrt()) / poly([2, -2, -2])
    assert pair.f == closed


def test_pseudo_from_g_preconditions():
    with pytest.raises(PreconditionError):
        pseudo_from_g(TruncSeries.constant(2, 8))
    with pytest.raises(PreconditionError):
        pseudo_from_g(poly([1, 0, 1], 8))


def test_pseudo_from_g_at_order_one_names_the_order():
    # g'(0) is not known at order 1, so the precondition on it cannot fail
    with pytest.raises(OrderError, match="needs order at least 2, got 1"):
        pseudo_from_g(TruncSeries.polynomial([1, 1], 1))


def test_pseudo_from_g_uniqueness_spot_checks():
    one = TruncSeries.one(16)
    z = TruncSeries.z(16)
    seeds = (1 / (one - z), named_series("lucas", 16), named_series("fib", 16))
    for g in seeds:
        pair = pseudo_from_g(g)
        for position in range(1, 16):
            bumped = list(pair.f.coeffs)
            bumped[position] += 1
            perturbed = RiordanPair(pair.g, TruncSeries(bumped))
            assert not perturbed.is_pseudo_involution(16)


# ---- powers ----

def test_power_one_is_unchanged():
    pair = pseudo_from_g(named_series("fib", N))
    assert power_pseudo(pair, 1) == pair


def test_power_two_gives_convolved_fibonacci():
    pair = power_pseudo(pseudo_from_g(named_series("fib", N)), 2)
    tri = pair.expand(9)
    assert as_ints(tri.rows)[3] == [10, 20, 8, 1]
    assert [int(c) for c in tri.column(0)] == [1, 2, 5, 10, 20, 38, 71, 130, 235]


def test_power_three():
    base = pseudo_from_g(named_series("fib", N))
    cubed = power_pseudo(base, 3)
    assert cubed.is_pseudo_involution(16)
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    oracle = convolve(convolve(fib, fib), fib)[:9]
    assert list(cubed.expand(9).column(0)) == oracle
    assert cubed.g == base.g ** 3
    assert cubed.f == base.f


def test_power_preconditions():
    pair = pseudo_from_g(named_series("fib", N))
    with pytest.raises(PreconditionError):
        power_pseudo(pair, 0)
    not_pseudo = RiordanPair(named_series("fib", N), TruncSeries.z(N))
    with pytest.raises(PreconditionError):
        power_pseudo(not_pseudo, 2)


# ---- families sharing an f ----

def test_family_fib_f_rows():
    f = pseudo_from_g(named_series("fib", N)).f
    assoc, bell, deriv, hit = family_from_f(f)
    assert as_ints(assoc.expand(5).rows)[4] == [0, 32, 27, 9, 1]
    assert as_ints(bell.expand(4).rows)[3] == [32, 27, 9, 1]
    assert as_ints(deriv.expand(4).rows)[3] == [128, 54, 12, 1]
    assert as_ints(hit.expand(4).rows)[3] == [42, 27, 9, 1]
    for member in (assoc, bell, deriv, hit):
        assert member.is_pseudo_involution(16)


def test_family_trivial_seed():
    # all four members collapse to (1, z); division by z trims the order
    for member in family_from_f(TruncSeries.z(8)):
        assert member.g.matches(TruncSeries.one(8))
        assert member.f.matches(TruncSeries.z(8))


def test_family_rejects_bad_seed():
    with pytest.raises(OrderTwoError):
        family_from_f(poly([0, 1, 1], 16))


def test_has_comp_order_two():
    f = pseudo_from_g(named_series("fib", 16)).f
    assert has_comp_order_two(-f)
    assert has_comp_order_two(TruncSeries.z(8))
    assert not has_comp_order_two(poly([0, 1, 1], 8))
    assert not has_comp_order_two(TruncSeries.one(8))


# ---- the g-side subgroup ----

def test_g_subgroup_mul_square_of_bell():
    f = pseudo_from_g(named_series("fib", N)).f
    bell_g = f / TruncSeries.z(f.order)
    squared = g_subgroup_mul(bell_g, bell_g, f.truncate(bell_g.order))
    assert squared.is_pseudo_involution(16)


def test_g_subgroup_inv_of_bell():
    f = pseudo_from_g(named_series("fib", N)).f
    bell_g = f / TruncSeries.z(f.order)
    inverted = g_subgroup_inv(bell_g, f.truncate(bell_g.order))
    assert inverted.g == TruncSeries.z(f.order) / f
    assert inverted.is_pseudo_involution(16)


def test_g_subgroup_mul_identity():
    f = pseudo_from_g(named_series("fib", N)).f
    one = TruncSeries.one(f.order)
    assert g_subgroup_mul(one, one, f).g == one


def test_g_subgroup_rejects_non_member():
    # lucas pairs with its own unique f, not the Fibonacci one
    f = pseudo_from_g(named_series("fib", N)).f
    bad_g = named_series("lucas", f.order)
    with pytest.raises(PreconditionError):
        g_subgroup_mul(bad_g, bad_g, f)
    with pytest.raises(PreconditionError):
        g_subgroup_inv(bad_g, f)
