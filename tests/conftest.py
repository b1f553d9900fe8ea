"""Shared independent oracles and random generators.

Oracles here use plain loops over Fraction lists on purpose: they must not
share code paths with the library they check.
"""

from __future__ import annotations

import random
from fractions import Fraction

from riordan import RiordanPair, TruncSeries, pseudo_from_g


def longdiv(num, den, n: int) -> list[Fraction]:
    """Expand num(z)/den(z) to n coefficients by synthetic long division."""
    rem = [Fraction(c) for c in num] + [Fraction(0)] * n
    den = [Fraction(c) for c in den]
    assert den[0] != 0
    out = []
    for k in range(n):
        c = rem[k] / den[0]
        out.append(c)
        for i, d in enumerate(den):
            rem[k + i] -= c * d
    return out


def convolve(a, b) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += Fraction(ai) * Fraction(bj)
    return out


def mul_below(a, b, n: int) -> list[Fraction]:
    """The n coefficients of a*b mod z^n, by a plain loop over the index
    pairs i + j < n."""
    b = [Fraction(x) for x in b[:n]]
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            x = Fraction(x)
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def compose_naive(outer, inner, n: int) -> list[Fraction]:
    """sum_i outer[i] * inner^i mod z^n, one plain product per power.

    Every outer coefficient is used, however long the outer is.
    """
    out = [Fraction(0)] * n
    power = [Fraction(1)]
    for c in outer:
        for t, p in enumerate(power):
            out[t] += Fraction(c) * p
        power = mul_below(power, inner, n)
    return out


def expand_naive(g, f, rows: int) -> list[list[Fraction]]:
    """Leading rows of the Riordan array (g, f): column k is g*f^k, each
    power by a plain product."""
    cols = [[Fraction(c) for c in g[:rows]]]
    for _ in range(rows - 1):
        cols.append(mul_below(cols[-1], f, rows))
    return [[cols[k][n] for k in range(n + 1)] for n in range(rows)]


def tri_product(a_rows, b_rows) -> list[list[Fraction]]:
    """Row-by-column product of lower-triangular row lists."""
    n = min(len(a_rows), len(b_rows))
    return [
        [sum((a_rows[i][j] * b_rows[j][k] for j in range(k, i + 1)), Fraction(0))
         for k in range(i + 1)]
        for i in range(n)
    ]


def mat_vec(rows, vec) -> list[Fraction]:
    return [
        sum((rows[n][k] * vec[k] for k in range(n + 1)), Fraction(0))
        for n in range(len(rows))
    ]


# ---- random generators (seeded random.Random, not hypothesis, so large
# ---- batch sizes stay cheap) ----

def random_fraction(rng: random.Random, span: int = 3, max_den: int = 2) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_series(rng: random.Random, order: int, *, ints: bool = True) -> TruncSeries:
    if ints:
        return TruncSeries(rng.randint(-3, 3) for _ in range(order))
    return TruncSeries(random_fraction(rng) for _ in range(order))


def random_admissible_f(rng: random.Random, order: int) -> TruncSeries:
    coeffs = [0, rng.choice([1, -1])] + [rng.randint(-3, 3) for _ in range(order - 2)]
    return TruncSeries(coeffs)


def random_proper_pair(rng: random.Random, order: int, *,
                       g1_nonzero: bool = False) -> RiordanPair:
    g = [rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(order - 1)]
    if g1_nonzero and g[1] == 0:
        g[1] = rng.choice([1, -1, 2])
    return RiordanPair(TruncSeries(g), random_admissible_f(rng, order))


def random_pseudo_involution(rng: random.Random, order: int) -> RiordanPair:
    g = [1, rng.choice([1, -1, 2])] + [rng.randint(-2, 2) for _ in range(order - 2)]
    return pseudo_from_g(TruncSeries(g))
