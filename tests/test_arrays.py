"""Riordan pairs: expansion, group law, inverses, involution predicates."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from riordan import (
    OrderError,
    PairInvariantError,
    ProprietyError,
    RiordanPair,
    TriMatrix,
    TruncSeries,
    named_series,
    pseudo_from_g,
    series,
    subgroup_element,
)

from conftest import expand_naive, mat_vec, random_proper_pair, tri_product

N = 32


def poly(coeffs, order=N):
    return TruncSeries.polynomial(coeffs, order)


def pascal(order=N):
    one = TruncSeries.one(order)
    z = TruncSeries.z(order)
    return RiordanPair(1 / (one - z), z / (one - z))


def lucas_pi(order=N):
    # modified Lucas g with its unique pseudo-involution partner f, in closed form
    g = poly([1, 0, 1], order) / poly([1, -1, -1], order)
    f = (poly([1, -1, -1], order) - poly([1, -10, -13, 10, 1], order).sqrt()) \
        / poly([4, -2], order)
    return RiordanPair(g, f)


def stretched_lucas(order=N):
    den = poly([1, -1, -1], order)
    return RiordanPair(poly([1, 0, 1], order) / den, poly([0, 0, -2, 1], order) / den)


def as_ints(rows):
    return [[int(c) for c in row] for row in rows]


# ---- pair invariants ----

def test_pair_rejects_zero_g0():
    with pytest.raises(PairInvariantError):
        RiordanPair(TruncSeries.z(4), TruncSeries.z(4))


def test_pair_rejects_nonzero_f0():
    with pytest.raises(PairInvariantError):
        RiordanPair(TruncSeries.one(4), TruncSeries.one(4))


def test_proper_flag():
    assert pascal().proper
    assert not stretched_lucas().proper
    zero_f = RiordanPair(TruncSeries.one(6), TruncSeries.zero(6))
    assert not zero_f.proper


# ---- expansion ----

def test_expand_pascal_is_binomial_triangle():
    rows = pascal().expand(8).rows
    for n, row in enumerate(rows):
        assert [int(c) for c in row] == [math.comb(n, k) for k in range(n + 1)]


def test_expand_lucas_pi_row4():
    assert as_ints(lucas_pi().expand(5).rows)[4] == [7, 214, 88, 16, 1]


def test_expand_identity():
    rows = RiordanPair.identity(6).expand(6).rows
    for n, row in enumerate(rows):
        assert [int(c) for c in row] == [0] * n + [1]


def test_expand_stretched_pair():
    assert as_ints(stretched_lucas().expand(5).rows)[4] == [7, -10, 4, 0, 0]


def test_expand_requires_enough_order():
    with pytest.raises(OrderError):
        pascal(8).expand(9)
    with pytest.raises(OrderError):
        pascal().expand(0)


# ---- the packed column chain behind expand ----

def _expands_like_naive(g, f, rows):
    tri = RiordanPair(TruncSeries(g), TruncSeries(f)).expand(rows)
    assert [list(row) for row in tri.rows] == expand_naive(g, f, rows)
    for col in tri.columns:
        assert col.order == rows and col.den > 0 and math.gcd(col.den, *col.nums) == 1
    return tri


def _recorded_pack_widths(monkeypatch):
    widths = []
    pack = series._pack

    def recording(xs, width):
        widths.append(width)
        return pack(xs, width)

    monkeypatch.setattr(series, "_pack", recording)
    return widths


def test_column_chain_slot_widths_grow_then_shrink(monkeypatch):
    # f = z*(1 + 2^40 z): entry j of column k is C(k, j) * 2^(40j), kept for
    # j < n - k, so the widest kept entry grows until k is about n/2 and
    # then shrinks; each width change repacks the column
    n = 16
    for g in ([1] + [0] * (n - 1), [Fraction(3, 2), -1, 5] + [0] * (n - 3)):
        widths = _recorded_pack_widths(monkeypatch)
        _expands_like_naive(g, [0, 1, 2 ** 40] + [0] * (n - 3), n)
        top = widths.index(max(widths))
        assert 0 < top < len(widths) - 1 and widths[-1] < widths[top] - 10


def test_column_chain_packs_twice_when_the_width_cannot_change(monkeypatch):
    widths = _recorded_pack_widths(monkeypatch)
    tri = RiordanPair.identity(40).expand(40)
    assert len(widths) == 2
    assert tri == TriMatrix([[int(n == k) for k in range(n + 1)] for n in range(40)])


@pytest.mark.parametrize("v", (2, 3))
def test_column_chain_with_stretched_f(v):
    rng = random.Random(f"stretched/{v}")
    n = 13
    for rows in (1, 2, 3, v, v + 1, 2 * v + 1, n):
        for _ in range(4):
            g = [rng.choice((1, -2, Fraction(1, 3)))] + \
                [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n - 1)]
            f = [0] * v + [rng.choice((1, -1, Fraction(2, 5)))] + \
                [Fraction(rng.randint(-9, 9), rng.choice((1, 5))) for _ in range(n - v - 1)]
            _expands_like_naive(g, f, rows)


def test_column_chain_with_zero_f_and_f_past_the_rows():
    g = [2, Fraction(1, 2), -3, 0, 7]
    for f in ([0] * 5, [0, 0, 0, 0, 5]):
        for rows in (1, 2, 3, 4, 5):
            tri = _expands_like_naive(g, f, rows)
            assert tri.columns[0] == TruncSeries(g[:rows])
            zeros = len(f) - 1 if f[-1] else 1
            assert all(col.is_zero and col.den == 1 for col in tri.columns[zeros:])


@pytest.mark.parametrize("rows", (1, 2, 3))
def test_column_chain_at_one_to_three_rows(rows):
    rng = random.Random(f"few rows/{rows}")
    for _ in range(30):
        g = [Fraction(rng.choice((1, -1, 3)), rng.choice((1, 2, 4)))] + \
            [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(rows - 1)]
        f = [0, Fraction(rng.randint(-5, 5), rng.choice((1, 3)))] + \
            [Fraction(rng.randint(-5, 5), rng.choice((1, 7))) for _ in range(rows - 2)]
        _expands_like_naive(g, f[:max(rows, 2)], rows)


def test_column_chain_when_the_gcd_reduces_a_column():
    # f = 2z(1 + z) against g over 2^12: column k is 2^k (1+z)^k g / 2^12,
    # so the reduction fires on every column up to 12, and the binomials
    # grow slowly enough that most products keep their slot width and
    # read the reduced column from its packed form
    n = 18
    g = [Fraction(c, 2 ** 12) for c in (1, 3, -5, 7, 9, -11)] + [0] * (n - 6)
    tri = _expands_like_naive(g, [0, 2, 2] + [0] * (n - 3), n)
    dens = [col.den for col in tri.columns]
    assert dens[:13] == [2 ** (12 - k) for k in range(13)]
    # random rationals whose numerators share factors with the denominators
    rng = random.Random("gcd")
    fired = 0
    for _ in range(40):
        rows = rng.randint(4, 12)
        g = [Fraction(rng.choice((1, 3, 5)), rng.choice((4, 6, 36)))] + \
            [Fraction(6 * rng.randint(-4, 4), rng.choice((1, 4, 9))) for _ in range(rows - 1)]
        f = [0, Fraction(rng.choice((2, 3, 6, -6)))] + \
            [Fraction(6 * rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rows - 2)]
        tri = _expands_like_naive(g, f, rows)
        df = TruncSeries(f).den
        fired += any(b.den < a.den * df for a, b in zip(tri.columns[:-2], tri.columns[1:-1]))
    assert fired > 20


@pytest.mark.parametrize("rows", (3, 5, 8))
def test_column_chain_at_the_signed_slot_boundary(rows):
    # entries +-(2^k - 1); for some k a column's widest entry has bit
    # length 8j - 1, filling half a slot of j bytes exactly
    at_byte_edge = 0
    for k in range(1, 48):
        m = (1 << k) - 1
        for g0, signs in itertools.product((m, -m), ("+", "-", "alternating")):
            f = [0] + [{"+": m, "-": -m, "alternating": (-1) ** j * m}[signs]
                       for j in range(rows - 1)]
            tri = _expands_like_naive([g0] * rows, f, rows)
            widest = max(abs(x) for col in tri.columns for x in col.nums)
            at_byte_edge += widest.bit_length() % 8 == 7
    assert at_byte_edge


# ---- group law ----

def test_mul_identity_element():
    p = pascal()
    assert p * RiordanPair.identity(N) == p


def test_mul_pascal_squared_closed_form():
    one = TruncSeries.one(N)
    z = TruncSeries.z(N)
    squared = pascal() * pascal()
    assert squared.g == 1 / (one - 2 * z)
    assert squared.f == z / (one - 2 * z)


def test_mul_matches_matrix_product_oracle():
    rng = random.Random(7)
    for _ in range(10):
        left = random_proper_pair(rng, 16)
        right = random_proper_pair(rng, 16)
        direct = (left * right).expand(8).rows
        oracle = tri_product(left.expand(8).rows, right.expand(8).rows)
        assert [list(r) for r in direct] == oracle


def test_pseudo_order_two_via_checkerboard():
    # L*(1,-z) squares to the identity exactly when L is a pseudo-involution
    M = RiordanPair(TruncSeries.one(N), -TruncSeries.z(N))
    lm = lucas_pi() * M
    square = lm * lm
    assert square.g == TruncSeries.one(N)
    assert square.f == TruncSeries.z(N)


def test_mul_rejects_stretched():
    with pytest.raises(ProprietyError):
        stretched_lucas() * pascal()
    with pytest.raises(ProprietyError):
        pascal() * stretched_lucas()


# ---- inverse ----

def test_inverse_pascal_row3():
    assert as_ints(pascal().inverse().expand(4).rows)[3] == [-1, 3, -3, 1]


def test_inverse_identity():
    assert RiordanPair.identity(8).inverse() == RiordanPair.identity(8)


def test_inverse_involutes():
    rng = random.Random(11)
    for _ in range(10):
        pair = random_proper_pair(rng, 12)
        assert pair.inverse().inverse() == pair


def test_inverse_law():
    rng = random.Random(13)
    for _ in range(10):
        pair = random_proper_pair(rng, 12)
        for prod in (pair * pair.inverse(), pair.inverse() * pair):
            assert prod == RiordanPair.identity(12)


def test_inverse_rejects_stretched():
    with pytest.raises(ProprietyError):
        stretched_lucas().inverse()


# ---- fundamental action ----

def test_apply_is_matrix_vector_product():
    rng = random.Random(17)
    for _ in range(10):
        pair = random_proper_pair(rng, 12)
        h = TruncSeries(rng.randint(-3, 3) for _ in range(12))
        out = pair.apply(h)
        oracle = mat_vec(pair.expand(8).rows, list(h.coeffs))
        assert list(out.coeffs[:8]) == oracle


def test_apply_one_gives_g():
    p = pascal()
    assert p.apply(TruncSeries.one(N)) == p.g


def test_apply_row_sums_pascal():
    out = pascal().apply(1 / (TruncSeries.one(N) - TruncSeries.z(N)))
    assert [int(c) for c in out.coeffs[:8]] == [2 ** k for k in range(8)]


def test_apply_row_sums_of_stochastic_array_are_one():
    geom = 1 / (TruncSeries.one(N) - TruncSeries.z(N))
    assert stretched_lucas().apply(geom) == geom


# ---- involution predicates ----

def test_minus_z_is_involution():
    M = RiordanPair(TruncSeries.one(N), -TruncSeries.z(N))
    assert M.is_involution(16)


def test_pascal_is_pseudo_but_not_involution():
    p = pascal()
    assert not p.is_involution(16)
    assert p.is_pseudo_involution(16)


def test_negated_f_pair_is_involution():
    # (g, -f) is an involution for any pseudo-involution (g, f)
    f = pseudo_from_g(named_series("fib", N)).f
    bell = subgroup_element("bell", f)
    assert RiordanPair(bell.g, -bell.f).is_involution(16)


def test_lucas_pi_is_pseudo_involution():
    assert lucas_pi().is_pseudo_involution(16)


def test_appell_geometric_is_not_pseudo_involution():
    one = TruncSeries.one(N)
    pair = RiordanPair(1 / (one - TruncSeries.z(N)), TruncSeries.z(N))
    assert not pair.is_pseudo_involution(16)
    assert pair.pseudo_involution_failure(16) == 2


@pytest.mark.parametrize("check", ["involution_failure", "pseudo_involution_failure",
                                   "is_involution", "is_pseudo_involution"])
def test_involution_checks_reject_stretched(check):
    with pytest.raises(ProprietyError, match="check requires a proper pair"):
        getattr(stretched_lucas(), check)()
    # f = 0 at order 1 has no linear term to read
    with pytest.raises(ProprietyError):
        getattr(RiordanPair(TruncSeries.one(1), TruncSeries.zero(1)), check)()


def test_check_order_exceeding_available():
    with pytest.raises(OrderError):
        pascal(8).is_pseudo_involution(9)


# ---- subgroup constructors ----

def fib_f(order=N):
    return pseudo_from_g(named_series("fib", order)).f


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_appell_example_is_pseudo_involution(k):
    g = poly([1, k]) / poly([1, -k])
    assert subgroup_element("appell", g).is_pseudo_involution(16)


def test_bell_row3():
    assert as_ints(subgroup_element("bell", fib_f()).expand(4).rows)[3] == [32, 27, 9, 1]


def test_hitting_time_row3():
    pair = subgroup_element("hitting_time", fib_f())
    assert as_ints(pair.expand(4).rows)[3] == [42, 27, 9, 1]


def test_derivative_pair_components():
    f = fib_f()
    pair = subgroup_element("derivative", f)
    assert pair.g == f.derivative()
    assert pair.f == f


def test_associated_pair_has_unit_g():
    pair = subgroup_element("associated", fib_f())
    assert pair.g == TruncSeries.one(N)


def test_subgroup_seed_validation():
    with pytest.raises(ProprietyError):
        subgroup_element("appell", TruncSeries.z(8))
    with pytest.raises(ProprietyError):
        subgroup_element("bell", TruncSeries.one(8))
    with pytest.raises(ProprietyError):
        subgroup_element("hitting_time", poly([0, 0, 1], 8))
    with pytest.raises(ValueError):
        subgroup_element("nonsense", TruncSeries.z(8))


# ---- MAM conjugation ----

def test_mam_pascal_equals_inverse():
    p = pascal()
    mam = p.mam_conjugate()
    inv = p.inverse()
    assert mam.g.matches(inv.g)
    assert mam.f.matches(inv.f)


def test_mam_identity():
    assert RiordanPair.identity(8).mam_conjugate() == RiordanPair.identity(8)


def test_mam_lucas_pi_equals_inverse():
    pair = lucas_pi()
    mam = pair.mam_conjugate()
    inv = pair.inverse()
    assert mam.g.matches(inv.g)
    assert mam.f.matches(inv.f)


def test_mam_differs_from_inverse_when_not_pseudo():
    # the converse direction: MAM = inverse only for pseudo-involutions
    one = TruncSeries.one(N)
    pair = RiordanPair(1 / (one - TruncSeries.z(N)), TruncSeries.z(N))
    assert not pair.mam_conjugate().g.matches(pair.inverse().g)


def test_pseudo_involutions_closed_under_inverse():
    inv = lucas_pi().inverse()
    assert inv.is_pseudo_involution(16)


# ---- TriMatrix ----

def test_trimatrix_entry_above_diagonal_is_zero():
    tri = pascal().expand(4)
    assert tri.entry(1, 3) == 0
    assert tri.entry(3, 3) == 1


def test_trimatrix_shape_validation():
    with pytest.raises(ValueError):
        TriMatrix(((Fraction(1), Fraction(2)),))


def test_row_sums():
    assert [int(s) for s in pascal().expand(5).row_sums()] == [1, 2, 4, 8, 16]


def test_trimatrix_survives_pickle_and_copy():
    tri = lucas_pi().expand(6)
    for clone in (pickle.loads(pickle.dumps(tri)), copy.copy(tri), copy.deepcopy(tri)):
        assert clone == tri and hash(clone) == hash(tri)
        assert clone.rows == tri.rows


def test_rows_and_row_sums_with_mixed_denominators():
    rng = random.Random("mixed denominators")

    def rational(prime):
        return Fraction(rng.randint(-9, 9), prime ** rng.randint(0, 2))

    for rows in (1, 2, 7, 12):
        for _ in range(5):
            g = [Fraction(rng.choice((1, -1)), rng.choice((1, 2, 4)))] + \
                [rational(rng.choice((2, 3))) for _ in range(rows - 1)]
            f = [Fraction(0), Fraction(rng.choice((1, 2, 3)), rng.choice((1, 5)))] + \
                [rational(5) for _ in range(rows - 2)]
            tri = RiordanPair(TruncSeries(g), TruncSeries(f[:max(rows, 2)])).expand(rows)
            oracle = expand_naive(g, f, rows)
            assert [list(row) for row in tri.rows] == oracle
            assert all(type(c) is Fraction for row in tri.rows for c in row)
            sums = [sum(row, Fraction(0)) for row in oracle]
            assert list(tri.row_sums()) == sums
            assert all(type(s) is Fraction for s in tri.row_sums())
            rebuilt = TriMatrix(oracle)
            assert rebuilt == tri and list(rebuilt.row_sums()) == sums
            for col in tri.columns:
                assert col.den > 0 and math.gcd(col.den, *col.nums) == 1
