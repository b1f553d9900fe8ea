"""Production matrices and A/Z sequences, cross-checked both ways."""

import random
from fractions import Fraction

import pytest

from riordan import (
    DegenerateZError,
    OrderError,
    ProprietyError,
    RiordanPair,
    TruncSeries,
    a_sequence,
    az_from_production,
    az_from_series,
    extract_az,
    named_series,
    power_pseudo,
    production_matrix,
    pseudo_from_g,
    recurrence_check,
    series,
    stochastic_from_g,
    subgroup_element,
)

from conftest import random_fraction, random_proper_pair, tri_product

N = 32


def pascal(order=N):
    one = TruncSeries.one(order)
    z = TruncSeries.z(order)
    return RiordanPair(1 / (one - z), z / (one - z))


def stochastic_lucas_matrix(order=N):
    g = TruncSeries.polynomial([1, 2], order) / TruncSeries.polynomial([1, -1, -1], order)
    return stochastic_from_g(g)


def fracs(texts):
    return tuple(Fraction(t) for t in texts)


def rational_pair(seed, order=8):
    """Rational coefficients with g_0 and f_1 not 0 or +-1, so the diagonal
    g_0*f_1^n of the expansion divides and its columns have different
    denominators."""
    rng = random.Random(seed)

    def lead():
        while True:
            x = random_fraction(rng, 4, 3)
            if x not in (0, 1, -1):
                return x

    g = [lead()] + [random_fraction(rng, 3, 4) for _ in range(order - 1)]
    f = [0, lead()] + [random_fraction(rng, 3, 4) for _ in range(order - 2)]
    return RiordanPair(TruncSeries(g), TruncSeries(f))


# ---- production matrix ----

def test_pascal_production_columns():
    P = production_matrix(pascal(), 6)
    assert [P[j][0] for j in range(6)] == [1, 0, 0, 0, 0, 0]
    assert [P[j][1] for j in range(6)] == [1, 1, 0, 0, 0, 0]


@pytest.mark.parametrize("seed", ["pascal", 1, 2, 3, 4, 5, 6])
def test_pascal_production_oracle(seed):
    # definition replayed with the plain-loop product: L^-1 times shifted L
    pair = pascal() if seed == "pascal" else rational_pair(seed)
    rows = 6
    inv_rows = [list(r) for r in pair.inverse().expand(rows).rows]
    shifted = [list(r) for r in pair.expand(rows + 1).rows[1:]]
    # pad to rectangular before multiplying
    inv_rect = [r + [Fraction(0)] * (rows - len(r)) for r in inv_rows]
    shf_rect = [r + [Fraction(0)] * (rows - len(r)) for r in shifted]
    oracle = [
        [sum(inv_rect[n][j] * shf_rect[j][k] for j in range(rows)) for k in range(rows)]
        for n in range(rows)
    ]
    assert [list(r) for r in production_matrix(pair, rows)] == oracle


def test_production_matrix_does_not_invert_the_pair(monkeypatch):
    # the matrix route checks reversion and composition with other code
    pair = pseudo_from_g(named_series("lucas", N))
    by_series = az_from_series(pair, 8)

    def refuse(*args):
        raise AssertionError("the production-matrix route inverted the pair")

    monkeypatch.setattr(RiordanPair, "inverse", refuse)
    monkeypatch.setattr(TruncSeries, "reverse", refuse)
    monkeypatch.setattr(TruncSeries, "compose", refuse)
    monkeypatch.setattr(series, "_compose_many", refuse)
    monkeypatch.setattr(series, "_div", refuse)
    assert az_from_production(pair, 8) == by_series


@pytest.mark.parametrize("rows", [0, -1])
def test_production_rejects_nonpositive_rows(rows):
    with pytest.raises(OrderError, match=f"rows must be positive, got {rows}"):
        production_matrix(pascal(), rows)


def test_identity_production_is_shift():
    P = production_matrix(RiordanPair.identity(8), 5)
    for n in range(5):
        for k in range(5):
            assert P[n][k] == (1 if k == n + 1 else 0)


def test_lucas_pi_production_column0():
    pair = pseudo_from_g(named_series("lucas", N))
    P = production_matrix(pair, 4)
    assert [P[j][0] for j in range(4)] == [1, 2, -11, 58]


def test_production_defining_property():
    # row n+1 of the expansion equals row n times P
    for pair in (pascal(), pseudo_from_g(named_series("lucas", N))):
        rows = 8
        L = pair.expand(rows).rows
        P = production_matrix(pair, rows)
        for n in range(rows - 1):
            padded = list(L[n]) + [Fraction(0)] * (rows - n - 1)
            nxt = [sum(padded[j] * P[j][k] for j in range(rows)) for k in range(rows)]
            assert nxt[:n + 2] == list(L[n + 1])
            assert all(c == 0 for c in nxt[n + 2:])


def test_production_rejects_stretched():
    with pytest.raises(ProprietyError):
        production_matrix(stochastic_from_g(named_series("lucas", N)), 5)


# ---- extraction ----

def test_extract_stochastic_lucas_matrix():
    report = extract_az(stochastic_lucas_matrix(), 8)
    assert report.z_seq == fracs(["3", "5/2", "25/8", "25/8", "375/128",
                                  "375/128", "3125/1024", "3125/1024"])
    assert report.a_seq == fracs(["-2", "1/2", "-5/8", "0", "25/128", "0",
                                  "-125/1024", "0"])


def test_extract_lucas_pi():
    report = extract_az(pseudo_from_g(named_series("lucas", N)), 8)
    assert report.a_seq == fracs(["1", "5", "0", "45", "-225", "1980",
                                  "-16200", "142920"])
    assert report.z_seq == fracs(["1", "2", "-11", "58", "-384", "2872",
                                  "-23416", "201608"])


def test_extract_convolved_fibonacci_pi():
    pair = power_pseudo(pseudo_from_g(named_series("fib", N)), 2)
    report = extract_az(pair, 8)
    assert report.z_seq == fracs(["2", "1", "-5", "20", "-77", "308",
                                  "-1303", "5805"])
    assert report.a_seq == fracs(["1", "3", "0", "5", "-15", "70",
                                  "-310", "1455"])


def test_extract_one_term_at_order_two():
    # one row of the production matrix still reaches column 1, where a_0 is
    pair = pascal(2)
    assert production_matrix(pair, 1, 2) == ((1, 1),)
    assert az_from_production(pair, 1) == az_from_series(pair, 1)
    report = extract_az(pair, 1)
    assert (report.a_seq, report.z_seq, report.terms) == ((1,), (1,), 1)
    lucas_pi = pseudo_from_g(named_series("lucas", N))
    assert extract_az(lucas_pi, 1).a_seq == extract_az(lucas_pi, 8).a_seq[:1]


def test_production_columns_argument_keeps_the_leading_columns():
    pair = pseudo_from_g(named_series("lucas", N))
    square = production_matrix(pair, 6)
    assert production_matrix(pair, 6, 2) == tuple(row[:2] for row in square)
    wide = production_matrix(pair, 6, 7)
    assert tuple(row[:6] for row in wide) == square
    # the entry past the diagonal of the last row is a_0
    assert wide[5][6] == square[0][1]


def test_extract_identity_degenerate():
    with pytest.raises(DegenerateZError):
        extract_az(RiordanPair.identity(N), 6)


@pytest.mark.parametrize("extract", [az_from_series, az_from_production,
                                     a_sequence, extract_az])
@pytest.mark.parametrize("terms", [0, -1])
def test_extraction_rejects_nonpositive_terms(extract, terms):
    pair = RiordanPair(TruncSeries.one(N), TruncSeries.z(N))
    with pytest.raises(OrderError, match=f"terms must be at least 1, got {terms}"):
        extract(pair, terms)


def test_extract_rejects_stretched():
    with pytest.raises(ProprietyError):
        extract_az(stochastic_from_g(named_series("lucas", N)), 6)


def test_both_routes_agree_on_random_pairs():
    rng = random.Random(23)
    for _ in range(100):
        pair = random_proper_pair(rng, 16, g1_nonzero=True)
        s = az_from_series(pair, 8)
        p = az_from_production(pair, 8)
        assert s.a_seq == p.a_seq
        assert s.z_seq == p.z_seq


def test_a_sequence_handles_degenerate_z():
    f = pseudo_from_g(named_series("fib", N)).f
    assoc = subgroup_element("associated", f)
    with pytest.raises(DegenerateZError):
        extract_az(assoc, 8)
    bell = subgroup_element("bell", f)
    assert a_sequence(assoc, 8) == a_sequence(bell, 8)


def test_a_depends_only_on_f():
    cfib2 = power_pseudo(pseudo_from_g(named_series("fib", N)), 2)
    shared = extract_az(cfib2, 8).a_seq
    f = pseudo_from_g(named_series("fib", N)).f
    for kind in ("associated", "bell", "derivative", "hitting_time"):
        assert a_sequence(subgroup_element(kind, f), 8) == shared


# ---- recurrence replay ----

def test_pascal_recurrence():
    pair = pascal()
    report = extract_az(pair, 8)
    assert recurrence_check(pair, report, 10)


def test_lucas_pi_recurrence():
    pair = pseudo_from_g(named_series("lucas", N))
    report = extract_az(pair, 8)
    assert recurrence_check(pair, report, 6)


def test_random_pairs_recurrence():
    rng = random.Random(29)
    for _ in range(25):
        pair = random_proper_pair(rng, 16, g1_nonzero=True)
        report = extract_az(pair, 8)
        assert recurrence_check(pair, report, 8)


def test_recurrence_detects_wrong_sequences():
    pair = pascal()
    report = extract_az(pair, 8)
    bad = type(report)(a_seq=(Fraction(2),) + report.a_seq[1:],
                       z_seq=report.z_seq, terms=report.terms)
    assert not recurrence_check(pair, bad, 10)
