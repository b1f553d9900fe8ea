"""Truncated power series arithmetic: worked examples, errors, ring laws."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import (
    CompositionError,
    DivisionByZeroSeries,
    InexactScalarError,
    OrderError,
    ReversionError,
    RiordanError,
    SqrtError,
    TruncSeries,
    ValuationError,
    named_series,
)
from riordan import series
from riordan.series import _int_mul, compose_many

from conftest import compose_naive, convolve, longdiv

N = 16


def poly(coeffs, order=N):
    return TruncSeries.polynomial(coeffs, order)


def ints(s, count=None):
    coeffs = s.coeffs if count is None else s.coeffs[:count]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


FIB_DEN = [1, -1, -1]


# The kernels work on the integer form, numerators over one denominator;
# these adapters let the kernel tests state operands and results as
# Fraction lists.

def _integer_form(xs):
    d = lcm(*(Fraction(x).denominator for x in xs))
    return [int(Fraction(x) * d) for x in xs], d


def _lowest_terms(nums, d):
    assert d > 0 and gcd(d, *nums) == 1
    return [Fraction(x, d) for x in nums]


def _mul(a, b, n):
    (A, da), (B, db) = _integer_form(a), _integer_form(b)
    return [Fraction(x, da * db) for x in _int_mul(A, B, n)]


def _div(a, b, n):
    return _lowest_terms(*series._div(*_integer_form(a), *_integer_form(b), n))


def _compose_many(outers, inner, n):
    return [_lowest_terms(*r) for r in series._compose_many(
        [_integer_form(o) for o in outers], _integer_form(inner), n)]


# ---- addition ----

def test_add_cancellation():
    assert poly([1, 1]) + poly([1, -1]) == poly([2])


def test_add_identity():
    fib = 1 / poly(FIB_DEN)
    assert fib + TruncSeries.zero(N) == fib


def test_add_shifted_fib_gives_modified_lucas():
    # (1 + z^2) * F(z) expanded two ways
    fib = 1 / poly(FIB_DEN)
    lhs = fib + poly([0, 0, 1]) * fib
    assert lhs.coeffs[:6] == tuple(longdiv([1, 0, 1], FIB_DEN, 6))
    assert ints(lhs, 6) == [1, 1, 3, 4, 7, 11]


def test_add_truncates_to_min_order():
    a = TruncSeries.polynomial([1, 2, 3], 8)
    b = TruncSeries.polynomial([1], 5)
    assert (a + b).order == 5
    assert (b - a).order == 5


# ---- multiplication ----

def test_mul_difference_of_squares():
    assert poly([1, 1]) * poly([1, -1]) == poly([1, 0, -1])


def test_mul_fib_by_denominator_is_one():
    fib = 1 / poly(FIB_DEN)
    assert fib * poly(FIB_DEN) == TruncSeries.one(N)


def test_mul_fib_squared_is_convolved_fib():
    fib = 1 / poly(FIB_DEN)
    assert ints(fib * fib, 6) == [1, 2, 5, 10, 20, 38]


# ---- division ----

def test_div_fibonacci():
    assert ints(1 / poly(FIB_DEN), 7) == [1, 1, 2, 3, 5, 8, 13]


def test_div_modified_lucas():
    assert ints(poly([1, 0, 1]) / poly(FIB_DEN), 7) == [1, 1, 3, 4, 7, 11, 18]


def test_div_valuation_cancellation():
    q = poly([0, 0, 1]) / poly([0, 1])
    assert q == TruncSeries.z(N - 1)
    assert q.order == N - 1


def test_div_by_zero_series():
    with pytest.raises(DivisionByZeroSeries):
        poly([1]) / TruncSeries.zero(N)


def test_div_valuation_error():
    with pytest.raises(ValuationError):
        poly([0, 1]) / poly([0, 0, 1])


def test_div_zero_numerator_by_z():
    assert (TruncSeries.zero(N) / poly([0, 1])).is_zero


# ---- composition ----

def test_compose_identity_substitution():
    fib = 1 / poly(FIB_DEN)
    assert fib.compose(TruncSeries.z(N)) == fib


def test_compose_mobius_pair_is_z():
    one = TruncSeries.one(N)
    f = TruncSeries.z(N) / (one - TruncSeries.z(N))
    g = TruncSeries.z(N) / (one + TruncSeries.z(N))
    assert f.compose(g) == TruncSeries.z(N)


def test_compose_pascal_row_sums():
    # h(f) alone is (1-z)/(1-2z); scaling by g = 1/(1-z) gives the Pascal
    # row-sum series 1/(1-2z)
    one = TruncSeries.one(N)
    z = TruncSeries.z(N)
    g = 1 / (one - z)
    composed = g.compose(z / (one - z))
    assert composed == (one - z) / (one - 2 * z)
    assert ints(g * composed) == [2 ** k for k in range(N)]


def test_compose_rejects_nonzero_constant():
    with pytest.raises(CompositionError):
        poly([1]).compose(poly([1, 1]))


# ---- reversion ----

def test_reverse_z():
    assert TruncSeries.z(N).reverse() == TruncSeries.z(N)


def test_reverse_mobius():
    one = TruncSeries.one(N)
    z = TruncSeries.z(N)
    assert (z / (one - z)).reverse() == z / (one + z)


def test_reverse_lucas_numerator_matches_closed_form():
    # closed form: (-(1+z) + sqrt(5z^2+10z+1)) / (2(2+z))
    g = poly([0, 1, 2]) / poly(FIB_DEN)
    gbar = g.reverse()
    closed = (-poly([1, 1]) + poly([1, 10, 5]).sqrt()) / poly([4, 2])
    assert gbar == closed
    assert g.compose(gbar) == TruncSeries.z(N)
    assert gbar.compose(g) == TruncSeries.z(N)


@pytest.mark.parametrize("bad", [[1, 1], [0, 0, 1], [0]])
def test_reverse_preconditions(bad):
    with pytest.raises(ReversionError):
        poly(bad).reverse()


# ---- square root ----

def test_sqrt_one():
    assert TruncSeries.one(N).sqrt() == TruncSeries.one(N)


def test_sqrt_perfect_square_polynomial():
    assert poly([1, -2, 1]).sqrt() == poly([1, -1])


def test_sqrt_in_fibonacci_f_closed_form():
    root = poly([1, -6, -1, 10, 5]).sqrt()
    f = (poly(FIB_DEN) - root) / poly([2, -2, -2])
    assert ints(f, 7) == [0, 1, 3, 9, 32, 126, 538]


def test_sqrt_rejects_non_square():
    with pytest.raises(SqrtError):
        poly([2]).sqrt()


def test_sqrt_rejects_zero_constant():
    with pytest.raises(SqrtError):
        poly([0, 1]).sqrt()


# ---- derivative ----

def test_derivative_of_z():
    assert TruncSeries.z(3).derivative() == TruncSeries.polynomial([1], 2)


def test_derivative_example_values():
    d = TruncSeries.polynomial([0, 1, 3, 9, 32], 5).derivative()
    assert ints(d) == [1, 6, 27, 128]


def test_derivative_of_constant_is_zero():
    assert TruncSeries.polynomial([7], 4).derivative().is_zero


def test_derivative_drops_order_by_one():
    assert poly([1, 2, 3]).derivative().order == N - 1
    assert TruncSeries([5]).derivative() == TruncSeries([0])


# ---- misc structure ----

def test_getitem_beyond_order():
    with pytest.raises(OrderError):
        poly([1], 4)[4]


def test_truncate_bounds():
    with pytest.raises(OrderError):
        poly([1], 4).truncate(5)


def test_alternate():
    assert poly([1, 2, 3, 4]).alternate() == poly([1, -2, 3, -4])


def test_pow_zero_is_one():
    assert poly([3, 1]) ** 0 == TruncSeries.one(N)


# ---- properties ----

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def series_st(min_order=1, max_order=16):
    return st.lists(small_fracs, min_size=min_order, max_size=max_order).map(TruncSeries)


def zero_const_st(max_order=12):
    return st.lists(small_fracs, min_size=1, max_size=max_order - 1).map(
        lambda tail: TruncSeries([Fraction(0), *tail])
    )


@given(series_st(), series_st())
def test_add_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(series_st(), series_st(), series_st())
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series_st(min_order=2), series_st(min_order=2))
def test_div_mul_round_trip(a, b):
    bv = b.valuation()
    av = a.valuation()
    if bv is None or (av is not None and av < bv):
        return
    n = min(a.order, b.order) - bv
    if n < 1:
        return
    q = a / b
    assert q * b == a.truncate(n) * TruncSeries.one(b.order)


@given(series_st(), zero_const_st(), zero_const_st())
def test_compose_associativity(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=100)
@given(zero_const_st(max_order=14))
def test_reverse_round_trips(f):
    if f.order < 2 or f.coeffs[1] == 0:
        return
    fbar = f.reverse()
    z = TruncSeries.z(f.order)
    assert f.compose(fbar) == z
    assert fbar.compose(f) == z


@given(series_st(min_order=2))
def test_sqrt_squares_back(t):
    if t.coeffs[0] == 0:
        return
    s = t * t
    r = s.sqrt()
    assert r * r == s
    assert r.coeffs[0] > 0


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=12),
       st.lists(st.integers(-5, 5), min_size=1, max_size=12))
def test_integer_coefficients_closed_under_ring_ops(a, b):
    sa, sb = TruncSeries(a), TruncSeries(b)
    for result in (sa + sb, sa - sb, sa * sb):
        assert all(c.denominator == 1 for c in result.coeffs)


# ---- composition kernel against the oracle ----

# on, just below and just above the baby-step/giant-step block boundaries k^2
KERNEL_ORDERS = (1, 2, 3, 4, 5, 15, 16, 17, 48)


def _outer(rng, length):
    # denominators 2^a, coprime to the inner's 3^b
    return [Fraction(rng.randint(-4, 4), 2 ** rng.randint(0, 3)) for _ in range(length)]


def _inner(rng, length, valuation=1):
    tail = [Fraction(rng.randint(-4, 4), 3 ** rng.randint(0, 2))
            for _ in range(max(length - valuation, 0))]
    if tail:
        tail[0] = tail[0] or Fraction(1, 3)
    return ([Fraction(0)] * valuation + tail)[:length]


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_compose_many_matches_naive(n):
    rng = random.Random(n)
    for valuation in (1, 2, 3):
        inner = _inner(rng, n, valuation)
        # one outer longer than n, one of exactly n, one shorter
        outers = [_outer(rng, length) for length in (n + 3, n, max(n // 2, 1))]
        expected = [compose_naive(o, inner, n) for o in outers]
        for count in (1, 2, 3):
            assert _compose_many(outers[:count], inner, n) == expected[:count]
        assert _compose_many(outers[::-1], inner, n) == expected[::-1]


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_compose_many_zero_inner_keeps_constant_term(n):
    rng = random.Random(100 + n)
    outers = [_outer(rng, n), _outer(rng, 1)]
    zero = [Fraction(0)] * n
    expected = [[o[0]] + [Fraction(0)] * (n - 1) for o in outers]
    assert _compose_many(outers, zero, n) == expected
    assert [compose_naive(o, zero, n) for o in outers] == expected


def test_baby_step_table_packs_the_inner_once_per_slot_width(monkeypatch):
    # the powers inner^0..inner^k are the columns of the array (1, inner),
    # so the inner is packed once per slot width, not once per power; the
    # first power is the inner itself, and the chain may pack it once more
    # as its left operand when the width changes at the second product
    n = 48
    inner = [Fraction(0), Fraction(3)] + [Fraction(0)] * 9 + [Fraction(1, 2)]
    H = [6] + [0] * 9 + [1]  # the inner over its denominator 2, less its z
    outer = _outer(random.Random("table"), n)
    packs = []
    pack = series._pack

    def recording(xs, width):
        packs.append((list(xs), width))
        return pack(xs, width)

    monkeypatch.setattr(series, "_pack", recording)
    assert _compose_many([outer], inner, n) == [compose_naive(outer, inner, n)]
    widths = [w for xs, w in packs if len(xs) > 1 and xs == H[:len(xs)]]
    assert len(set(widths)) > 1
    assert len(widths) <= len(set(widths)) + 1


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_compose_matches_naive_with_mixed_orders(n):
    rng = random.Random(200 + n)
    for outer_order, inner_order in ((n, n), (n, n + 2), (n + 2, n), (max(n - 3, 1), n)):
        outer = TruncSeries(_outer(rng, outer_order))
        inner = TruncSeries(_inner(rng, inner_order, 1 + inner_order % 2))
        m = min(outer_order, inner_order)
        assert outer.compose(inner).coeffs == tuple(compose_naive(outer.coeffs, inner.coeffs, m))


def test_compose_many_keeps_each_min_order():
    rng = random.Random(7)
    inner = TruncSeries(_inner(rng, 16))
    outers = [TruncSeries(_outer(rng, order)) for order in (5, 16, 20)]
    got = compose_many(outers, inner)
    assert [s.order for s in got] == [5, 16, 16]
    assert got == [o.compose(inner) for o in outers]
    for o, s in zip(outers, got):
        assert list(s.coeffs) == compose_naive(o.coeffs, inner.coeffs, s.order)


def test_compose_many_rejects_nonzero_constant():
    with pytest.raises(CompositionError):
        compose_many([poly([1, 1]), poly([0, 1])], poly([1, 1]))


@pytest.mark.parametrize("n", KERNEL_ORDERS[1:])
def test_reverse_matches_naive_composition(n):
    rng = random.Random(300 + n)
    f = TruncSeries(_inner(rng, n))
    fbar = f.reverse()
    z = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2)
    assert compose_naive(f.coeffs, fbar.coeffs, n) == z
    assert compose_naive(fbar.coeffs, f.coeffs, n) == z


# ---- powers ----

@pytest.mark.parametrize("n", (5, 16))
def test_pow_matches_repeated_product(n):
    rng = random.Random(400 + n)
    s = TruncSeries(_outer(rng, n))
    expected = TruncSeries.one(n)
    for k in range(12):
        assert s ** k == expected
        expected = expected * s


def test_pow_past_the_order_is_zero():
    assert TruncSeries.z(N) ** N == TruncSeries.zero(N)
    assert poly([0, 0, 1, 1]) ** (N // 2) == TruncSeries.zero(N)
    assert poly([0, 0, 1, 1]) ** (N // 2 - 1) == poly([0] * (N - 2) + [1, 7])
    assert TruncSeries.zero(N) ** 3 == TruncSeries.zero(N)
    assert TruncSeries.zero(N) ** 0 == TruncSeries.one(N)


# ---- exact inputs only ----

@pytest.mark.parametrize("build", [
    lambda: TruncSeries([0.1]),
    lambda: TruncSeries([1, Fraction(1, 2), 2.0]),
    lambda: TruncSeries.polynomial([1, 0.5], 4),
    lambda: TruncSeries.constant(0.5, 4),
    lambda: poly([1, 1]) * 0.5,
    lambda: 0.5 + poly([1, 1]),
    lambda: 1.0 - poly([1, 1]),
    lambda: poly([1, 1]) / 2.0,
])
def test_floats_are_rejected(build):
    with pytest.raises(InexactScalarError, match="not exact"):
        build()
    assert issubclass(InexactScalarError, RiordanError)


# ---- integer kernels against the oracles ----

KERNEL_SIZES = (1, 2, 3, 7, 16, 33)


def _rationals(rng, length, prime, bits=4):
    """Signed p/prime^e with p of up to ``bits`` bits and about a fifth zero;
    operands drawn on different primes share no denominator factor."""
    out = []
    for _ in range(length):
        p = rng.getrandbits(bits) * rng.choice((1, -1)) if rng.random() > 0.2 else 0
        out.append(Fraction(p, prime ** rng.randint(0, 3)))
    return out


def _truncated_product(a, b, n):
    return (convolve(a, b) + [Fraction(0)] * n)[:n]


def _exact_list(xs):
    return all(type(x) is Fraction for x in xs)


@pytest.mark.parametrize("n", KERNEL_SIZES)
@pytest.mark.parametrize("bits", (4, 320))
def test_mul_matches_convolve(n, bits):
    rng = random.Random(f"mul/{n}/{bits}")
    for pa, pb in ((2, 3), (5, 7), (3, 3)):
        # equal lengths, one operand shorter than n, one longer
        for la, lb in ((n, n), (n, max(n // 2, 1)), (1, n), (n + 3, n)):
            a, b = _rationals(rng, la, pa, bits), _rationals(rng, lb, pb, bits)
            got = _mul(a, b, n)
            assert got == _truncated_product(a, b, n)
            assert len(got) == n and _exact_list(got)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_mul_by_zero_operands(n):
    rng = random.Random(f"mulzero/{n}")
    a = _rationals(rng, n, 5)
    zero = [Fraction(0)] * n
    assert _mul(zero, a, n) == zero
    assert _mul(a, zero[:1], n) == zero
    assert _mul(zero, zero, n) == zero
    # valuations whose sum reaches n leave nothing below z^n
    shifted = [Fraction(0)] * (n - 1) + [Fraction(3)]
    assert _mul(shifted, [Fraction(0), Fraction(1)], n) == zero


@pytest.mark.parametrize("n", KERNEL_SIZES)
@pytest.mark.parametrize("bits", (4, 320))
def test_div_matches_longdiv(n, bits):
    rng = random.Random(f"div/{n}/{bits}")
    for pa, pb in ((2, 3), (5, 7), (3, 3)):
        for la, lb in ((n, n), (max(n // 2, 1), n), (n, 1), (n, max(n // 3, 1))):
            a, b = _rationals(rng, la, pa, bits), _rationals(rng, lb, pb, bits)
            b[0] = b[0] or Fraction(-3, pb)
            got = _div(a, b, n)
            # the oracle reads num past every term of den it subtracts
            assert got == longdiv(a + [0] * (n - la), b[:n], n)
            assert len(got) == n and _exact_list(got)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_div_of_zero_and_by_a_constant(n):
    rng = random.Random(f"divzero/{n}")
    b = _rationals(rng, n, 7)
    b[0] = Fraction(-5, 7)
    zero = [Fraction(0)] * n
    assert _div(zero, b, n) == zero
    a = _rationals(rng, n, 2)
    assert _div(a, [Fraction(-5, 7)], n) == [c * Fraction(-7, 5) for c in a]


@pytest.mark.parametrize("n", KERNEL_SIZES)
@pytest.mark.parametrize("bits", (4, 320))
def test_sqrt_inverts_squaring(n, bits):
    rng = random.Random(f"sqrt/{n}/{bits}")
    for prime in (2, 3, 5):
        s = _rationals(rng, n, prime, bits)
        s[0] = Fraction(rng.getrandbits(bits) + 1, prime ** rng.randint(0, 3))
        square = TruncSeries(_truncated_product(s, s, n))
        root = square.sqrt()
        assert list(root.coeffs) == s
        assert _exact_list(root.coeffs)
    # a constant square has a constant root
    assert TruncSeries.polynomial([Fraction(9, 49)], n).sqrt() == \
        TruncSeries.polynomial([Fraction(3, 7)], n)


def test_kernels_at_order_one():
    a, b = [Fraction(-3, 4)], [Fraction(5, 9)]
    assert _mul(a, b, 1) == [Fraction(-5, 12)]
    assert _div(a, b, 1) == [Fraction(-27, 20)]
    assert _mul(a + [Fraction(7)], b + [Fraction(1)], 1) == [Fraction(-5, 12)]
    assert TruncSeries([Fraction(4, 9)]).sqrt() == TruncSeries([Fraction(2, 3)])


@pytest.mark.parametrize("length", (1, 2, 3, 5))
def test_products_at_the_signed_slot_boundary(length):
    # every coefficient is +-(2^k - 1), so the largest product coefficient
    # equals length * (2^k - 1)^2, the bound the slot width is chosen from;
    # for some k that bound's bit length is 8j - 1 or 8j, where one bit
    # less of slot would drop the sign
    at_byte_edge = 0
    for k in range(1, 70):
        m = (1 << k) - 1
        at_byte_edge += (length * m * m).bit_length() % 8 in (0, 7)
        for sa in (1, -1):
            for signs in ((1,) * length, (-1,) * length,
                          tuple((-1) ** i for i in range(length))):
                a = [sa * m] * length
                b = [s * m for s in signs]
                n = 2 * length - 1
                expected = [int(c) for c in convolve(a, b)]
                assert _int_mul(a, b, n) == expected
                assert _mul([Fraction(x) for x in a], [Fraction(x) for x in b], n) == expected
    assert at_byte_edge


# ---- the slot bound of truncated products ----

def _int_product(a, b, n):
    return ([int(c) for c in convolve(a, b)] + [0] * n)[:n]


@pytest.mark.parametrize("length", (2, 3, 8, 17))
@pytest.mark.parametrize("ratio", (3, 2 ** 16 + 1, 2 ** 40 - 3))
def test_truncated_products_with_geometric_growth(length, ratio):
    # |a_i| and |b_j| grow like ratio^i, so every kept coefficient c_k is
    # about (k+1)*ratio^k, and the discarded ones above z^n are far wider
    # than the slot sized for the kept ones: their carries and borrows must
    # stay above the kept slots
    rng = random.Random(f"geometric/{length}/{ratio}")
    for signs in ("+", "-", "alternating", "random"):
        def sign(i):
            return {"+": 1, "-": -1, "alternating": (-1) ** i,
                    "random": rng.choice((1, -1))}[signs]
        a = [sign(i) * ratio ** i for i in range(length)]
        b = [sign(j) * (ratio ** j + rng.randint(0, ratio - 1)) for j in range(length)]
        full = 2 * length - 1
        # truncated on and just above the operand length, and untruncated
        for n in (length, length + 1, full - 1, full, full + 2):
            assert _int_mul(a, b, n) == _int_product(a, b, n), n
            assert _int_mul(b, a, n) == _int_product(a, b, n), n
        # growth that only one operand has: b_0 is the prefix maximum of b
        rev = b[::-1]
        for n in (length, full - 1):
            assert _int_mul(a, rev, n) == _int_product(a, rev, n), n
            assert _int_mul(rev, a, n) == _int_product(a, rev, n), n


@pytest.mark.parametrize("length", (1, 2, 3, 5))
def test_truncated_products_at_the_signed_slot_boundary(length):
    # cut at n = length, the kept coefficient c_(n-1) is a sum of length
    # terms (2^k - 1)^2, exactly the bound the slot width is chosen from;
    # for some k its bit length is 8j - 1 or 8j, where one bit less of slot
    # would drop the sign
    at_byte_edge = 0
    n = length
    for k in range(1, 70):
        m = (1 << k) - 1
        at_byte_edge += (length * m * m).bit_length() % 8 in (0, 7)
        for sa in (1, -1):
            for signs in ((1,) * length, (-1,) * length,
                          tuple((-1) ** i for i in range(length))):
                a = [sa * m] * length
                b = [s * m for s in signs]
                assert _int_mul(a, b, n) == _int_product(a, b, n)
                # a zero tail in one operand leaves the other one longer
                short = b[:max(length // 2, 1)]
                assert _int_mul(a, short, n) == _int_product(a, short, n)
    assert at_byte_edge


def test_products_of_operands_with_valuations_and_unequal_lengths():
    rng = random.Random("valuations")
    for _ in range(300):
        a = [0] * rng.randint(0, 4) + [rng.randint(-99, 99) for _ in range(rng.randint(0, 9))]
        b = [0] * rng.randint(0, 4) + [rng.randint(-99, 99) for _ in range(rng.randint(1, 9))]
        for n in (1, 2, max(len(a), 1), len(b), len(a) + len(b), rng.randint(1, 20)):
            assert _int_mul(a, b, n) == _int_product(a, b, n), (a, b, n)


@pytest.mark.parametrize("count", (1, 2, 5, 12))
def test_columns_of_a_unit_f(count):
    # f(0) != 0: every column keeps all n coefficients, so each product
    # reads the previous one at the same m; f's entries grow, so the slot
    # width changes along the chain
    rng = random.Random(f"unit f/{count}")
    n = 9
    for _ in range(10):
        g = [0] * rng.randint(0, 2) + [Fraction(rng.randint(-9, 9), rng.choice((1, 4)))
                                       for _ in range(n)]
        f = [Fraction(rng.choice((1, -2, 7)), rng.choice((1, 3)))] + \
            [Fraction(rng.randint(-2 ** 20, 2 ** 20), 3) for _ in range(rng.randint(0, n))]
        (G, dg), (F, df) = _integer_form(g), _integer_form(f)
        cols = series._columns(G, dg, F, df, n, count)
        power = [Fraction(c) for c in g]
        for nums, d in cols:
            assert len(nums) == n
            assert _lowest_terms(nums, d) == (power + [Fraction(0)] * n)[:n]
            power = convolve(power, f)[:n]


# ---- the integer form ----

def _assert_canonical(s):
    assert isinstance(s.nums, tuple) and all(type(x) is int for x in s.nums)
    assert type(s.den) is int and s.den > 0
    assert gcd(s.den, *s.nums) == 1
    assert all(type(c) is Fraction for c in s.coeffs)
    assert s.coeffs == tuple(Fraction(x, s.den) for x in s.nums)


def test_every_kernel_returns_lowest_terms():
    rng = random.Random("canonical")
    for _ in range(20):
        n = rng.randint(2, 12)
        a = TruncSeries(_rationals(rng, n, 2))
        b = TruncSeries(_rationals(rng, n, 3))
        unit = TruncSeries([Fraction(rng.choice((1, -1)) * 3, 4)] + _rationals(rng, n - 1, 5))
        f = TruncSeries([0, Fraction(2, 9)] + _rationals(rng, n - 2, 3))
        root = TruncSeries(_truncated_product(unit.coeffs, unit.coeffs, n)).sqrt()
        results = [a + b, a - b, b - b, -a, a * b, a * 6, a / unit, f / TruncSeries.z(n),
                   root, a.compose(f), f.reverse(), a.alternate(), a.derivative(),
                   a.truncate(1), unit ** 3, *compose_many([a, b, f], f)]
        for s in results:
            _assert_canonical(s)
        assert root in (unit, -unit)


def test_equal_values_built_by_different_routes_are_equal():
    def same(x, y):
        assert x == y and hash(x) == hash(y)
        assert (x.nums, x.den) == (y.nums, y.den)

    same(TruncSeries([Fraction(2, 4)]), TruncSeries([Fraction(1, 2)]))
    same(TruncSeries([Fraction(2, 4), 0]), TruncSeries.polynomial(["1/2"], 2))
    same(TruncSeries([6, Fraction(-9, 3)]), TruncSeries([6, -3]))
    same(named_series("fib", 24) * named_series("fib", 24), named_series("cfib2", 24))
    g = poly([1, Fraction(1, 2), Fraction(-1, 3)], 24) / poly([1, Fraction(2, 5)], 24)
    same(1 / (1 / g), g)
    same((g * 3) / 3, g)
    same(g - g, TruncSeries.zero(24))
    assert len({TruncSeries([Fraction(1, 2)]), TruncSeries([Fraction(3, 6)])}) == 1
    # order is part of the value
    assert TruncSeries([1]) != TruncSeries([1, 0])
