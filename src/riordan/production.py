"""Production matrices and A/Z sequence extraction.

The two sequences are computed along two independent routes and
cross-checked: a series route (A(z) = z/fbar(z), and Z from g compose fbar)
and the production-matrix route (inverse times the row-shifted expansion,
whose column 0 is Z and column 1 is A).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .arrays import RiordanPair
from .errors import DegenerateZError, OrderError, ProprietyError
from .series import TruncSeries, _push

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SeqReport:
    """Extracted A and Z sequence prefixes."""

    a_seq: tuple[Fraction, ...]
    z_seq: tuple[Fraction, ...]
    terms: int


def _require_terms(terms: int) -> None:
    if terms < 1:
        raise OrderError(f"terms must be at least 1, got {terms}")


def production_matrix(pair: RiordanPair, rows: int, cols: int | None = None) -> Matrix:
    """rows x cols block (cols defaults to rows) of the production matrix P,
    the solution of L P = (L with its first row removed).

    The product is not triangular: nonzero entries reach one column past
    the diagonal, so row n has entries up to column n + 1.

    Each column of P is solved by forward substitution on one expansion L
    of rows + 1 rows, never inverting the pair: L is lower triangular with
    diagonal g_0*f_1^n, so
    P[n][k] = (L[n+1][k] - sum_(j<n) L[n][j]*P[j][k]) / L[n][n].  The
    columns of L are scaled to one denominator, which cancels, and each
    column of P is kept as numerators over their least common denominator,
    as ``_div`` keeps its quotient: one dot product and one gcd per entry.
    """
    if rows < 1:
        raise OrderError(f"rows must be positive, got {rows}")
    if not pair.proper:
        raise ProprietyError("production matrix requires a proper pair")
    if rows + 1 > pair.available_order:
        raise OrderError(
            f"production matrix with {rows} rows needs order {rows + 1}, "
            f"have {pair.available_order}"
        )
    cols = rows if cols is None else cols
    columns = pair.expand(rows + 1).columns
    D = lcm(*[col.den for col in columns])
    # the rows of L over D, padded with the columns past rows + 1, which
    # vanish in every row of the block
    L = list(zip(*[[x * (D // col.den) for x in col.nums] for col in columns],
                 *[[0] * (rows + 1)] * (cols - rows - 1)))
    P = []
    for k in range(cols):
        Q: list[int] = []
        d = 1
        for n in range(rows):
            num = L[n + 1][k] * d - sum(map(mul, L[n], Q))
            d = _push(Q, d, num, d * L[n][n])
        P.append((Q, d))
    return tuple(tuple(Fraction(Q[n], d) for Q, d in P) for n in range(rows))


def az_from_production(pair: RiordanPair, terms: int) -> SeqReport:
    """Z as column 0 and A as column 1 of the production matrix."""
    _require_terms(terms)
    z_seq, a_seq = zip(*production_matrix(pair, terms, 2))
    return SeqReport(a_seq=a_seq, z_seq=z_seq, terms=terms)


def az_from_series(pair: RiordanPair, terms: int) -> SeqReport:
    """A(z) = z/fbar(z) and Z(z) = (1 - g(0)/g(fbar(z)))/fbar(z)."""
    _require_terms(terms)
    if not pair.proper:
        raise ProprietyError("A/Z extraction requires a proper pair")
    if terms + 1 > pair.available_order:
        raise OrderError(
            f"{terms} sequence terms need order {terms + 1}, "
            f"have {pair.available_order}"
        )
    pair = pair.truncate(terms + 1)
    fbar = pair.f.reverse()
    a = TruncSeries.z(fbar.order) / fbar
    z = (1 - pair.g[0] / pair.g.compose(fbar)) / fbar
    return SeqReport(
        a_seq=a.coeffs[:terms],
        z_seq=z.coeffs[:terms],
        terms=terms,
    )


def _both_routes(pair: RiordanPair, terms: int) -> SeqReport:
    """Both routes, cross-checked termwise; the series result is returned."""
    by_series = az_from_series(pair, terms)
    by_matrix = az_from_production(pair, terms)
    if by_series != by_matrix:
        raise ArithmeticError(
            "series and production-matrix extractions disagree: "
            f"{by_series} vs {by_matrix}"
        )
    return by_series


def a_sequence(pair: RiordanPair, terms: int = 8) -> tuple[Fraction, ...]:
    """The A sequence alone, usable when Z is degenerate (z_0 = 0).

    Still computed both ways and cross-checked.
    """
    return _both_routes(pair, terms).a_seq


def extract_az(pair: RiordanPair, terms: int = 8) -> SeqReport:
    """A and Z, computed both ways and cross-checked.

    Raises DegenerateZError when the Z sequence starts with zero (the
    identity pair, for instance), where the recurrences are not defined.
    """
    report = _both_routes(pair, terms)
    if report.z_seq[0] == 0:
        raise DegenerateZError("Z sequence starts with zero; its recurrence is undefined")
    return report


def recurrence_check(pair: RiordanPair, report: SeqReport, rows: int) -> bool:
    """Replay the row recurrences against the expansion, exactly.

    Interior entries must satisfy l[n+1][k+1] = sum_j a_j*l[n][k+j] and
    column 0 must satisfy l[n+1][0] = sum_j z_j*l[n][j].  Entries whose sum
    would need sequence terms beyond the report's truncation are skipped
    (the sequences are genuinely infinite for most pairs here).
    """
    L = pair.expand(rows).rows
    a_seq, z_seq = report.a_seq, report.z_seq
    for n in range(rows - 1):
        # column 0 needs z_0..z_n
        if n + 1 <= len(z_seq) and sum(map(mul, z_seq, L[n])) != L[n + 1][0]:
            return False
        # entry (n+1, k+1) needs a_0..a_{n-k}
        for k in range(max(n + 1 - len(a_seq), 0), n + 1):
            if sum(map(mul, a_seq, L[n][k:])) != L[n + 1][k + 1]:
                return False
    return True
