"""Bundled reference arrays and sequences, each verifiable from its recipe.

The expected values are frozen reference tables; `verify` recomputes each
fixture from scratch and compares exactly, so a single wrong coefficient
anywhere in the pipeline surfaces with its coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterator

from .arrays import RiordanPair, subgroup_element
from .constructions import named_series, power_pseudo, pseudo_from_g, stochastic_from_g
from .production import a_sequence, extract_az
from .series import TruncSeries, rational_str

PairBuilder = Callable[[int], RiordanPair]
SeriesBuilder = Callable[[int], TruncSeries]
Comparison = Iterator[tuple[str, Any, Any]]

# every check builds at this order or more: the largest check reads 32
# coefficients, and a pair built lower would fail it for want of terms
MIN_BUILD_ORDER = 32


# ---- comparisons: each yields (where, expected, computed) in check order ----

def matrix(pair: PairBuilder, rows: tuple[tuple[int, ...], ...], order: int) -> Comparison:
    """Leading rows of the expansion against the transcribed table."""
    got = pair(order).expand(len(rows)).rows
    for n, expected_row in enumerate(rows):
        for k, expected in enumerate(expected_row):
            yield f"entry ({n},{k})", expected, got[n][k]


def _terms(name: str, expected: tuple[str, ...], got) -> Comparison:
    for j, text in enumerate(expected):
        yield f"{name}[{j}]", Fraction(text), got[j]


def a_and_z(pair: PairBuilder, seqs: tuple[tuple[str, ...], tuple[str, ...]],
            order: int) -> Comparison:
    """A and Z prefixes from the cross-checked extraction."""
    a_seq, z_seq = seqs
    report = extract_az(pair(order), max(len(a_seq), len(z_seq)))
    yield from _terms("A", a_seq, report.a_seq)
    yield from _terms("Z", z_seq, report.z_seq)


def a_only(pair: PairBuilder, a_seq: tuple[str, ...], order: int) -> Comparison:
    """A prefix alone, for pairs whose Z sequence is degenerate."""
    yield from _terms("A", a_seq, a_sequence(pair(order), len(a_seq)))


def pseudo(pair: PairBuilder, check_order: int, order: int) -> Comparison:
    """The pseudo-involution conditions, to ``check_order`` coefficients."""
    failure = pair(order).pseudo_involution_failure(check_order)
    yield (f"pseudo-involution to order {check_order}", "holds",
           "holds" if failure is None else f"fails at coefficient {failure}")


def row_sums(pair: PairBuilder, n_rows: int, order: int) -> Comparison:
    """Every one of the leading ``n_rows`` rows sums to 1."""
    sums = pair(order).expand(n_rows).row_sums()
    for n, s in enumerate(sums):
        yield f"row {n} sum", 1, s


def series_match(actual: SeriesBuilder, reference: tuple[SeriesBuilder, int],
                 order: int) -> Comparison:
    """Leading coefficients of two independently built series."""
    expected, terms = reference
    got, want = actual(order), expected(order)
    for i in range(terms):
        yield f"coefficient {i}", want.coeffs[i], got.coeffs[i]


def _text(x) -> str:
    return x if isinstance(x, str) else rational_str(x)


@dataclass(frozen=True)
class Check:
    """``compare(build, reference, order)`` must yield no unequal triple."""
    label: str
    compare: Callable[[Any, Any, int], Comparison]
    build: Callable[[int], Any]
    reference: Any

    def run(self, order: int) -> str | None:
        """The first mismatch, None when every compared value is equal."""
        order = max(order, MIN_BUILD_ORDER)
        for where, expected, got in self.compare(self.build, self.reference, order):
            if got != expected:
                tag = f"[{self.label}] " if self.label else ""
                return f"{tag}{where}: expected {_text(expected)}, computed {_text(got)}"
        return None


@dataclass(frozen=True)
class Fixture:
    id: str
    source: str
    checks: tuple[Check, ...]

    def run(self, order: int) -> list[str]:
        """All failure messages (empty list means the fixture passes)."""
        failures = []
        for check in self.checks:
            message = check.run(order)
            if message is not None:
                failures.append(message)
        return failures


# ---- pair recipes ----

@lru_cache(maxsize=None)
def _pascal(order: int) -> RiordanPair:
    one = TruncSeries.one(order)
    z = TruncSeries.z(order)
    return RiordanPair(1 / (one - z), z / (one - z))


@lru_cache(maxsize=None)
def _pascal_inverse(order: int) -> RiordanPair:
    return _pascal(order).inverse()


@lru_cache(maxsize=None)
def _pascal_pi(order: int) -> RiordanPair:
    return pseudo_from_g(_pascal(order).g)


@lru_cache(maxsize=None)
def _appell_k3(order: int) -> RiordanPair:
    g = TruncSeries.polynomial([1, 3], order) / TruncSeries.polynomial([1, -3], order)
    return subgroup_element("appell", g)


@lru_cache(maxsize=None)
def _stochastic_lucas_array(order: int) -> RiordanPair:
    return stochastic_from_g(named_series("lucas", order))


@lru_cache(maxsize=None)
def _stochastic_lucas_matrix(order: int) -> RiordanPair:
    # the modified Lucas g with its leading 1 removed: (lucas - 1)/z
    g = TruncSeries.polynomial([1, 2], order) / TruncSeries.polynomial([1, -1, -1], order)
    return stochastic_from_g(g)


@lru_cache(maxsize=None)
def _lucas_pi(order: int) -> RiordanPair:
    return pseudo_from_g(named_series("lucas", order))


@lru_cache(maxsize=None)
def _fib_pi(order: int) -> RiordanPair:
    return pseudo_from_g(named_series("fib", order))


@lru_cache(maxsize=None)
def _cfib2_pi(order: int) -> RiordanPair:
    return power_pseudo(_fib_pi(order), 2)


def _family_member(kind: str) -> PairBuilder:
    @lru_cache(maxsize=None)
    def build(order: int) -> RiordanPair:
        return subgroup_element(kind, _fib_pi(order).f)
    return build


_fib_f_associated = _family_member("associated")
_fib_f_bell = _family_member("bell")
_fib_f_derivative = _family_member("derivative")
_fib_f_hitting = _family_member("hitting_time")


def _lucas_pi_closed_f(order: int) -> TruncSeries:
    num = (TruncSeries.polynomial([1, -1, -1], order)
           - TruncSeries.polynomial([1, -10, -13, 10, 1], order).sqrt())
    return num / TruncSeries.polynomial([4, -2], order)


def _fib_pi_closed_f(order: int) -> TruncSeries:
    num = (TruncSeries.polynomial([1, -1, -1], order)
           - TruncSeries.polynomial([1, -6, -1, 10, 5], order).sqrt())
    return num / TruncSeries.polynomial([2, -2, -2], order)


# ---- transcribed tables ----

_PASCAL_ROWS = (
    (1,),
    (1, 1),
    (1, 2, 1),
    (1, 3, 3, 1),
    (1, 4, 6, 4, 1),
    (1, 5, 10, 10, 5, 1),
    (1, 6, 15, 20, 15, 6, 1),
)

_PASCAL_INVERSE_ROWS = (
    (1,),
    (-1, 1),
    (1, -2, 1),
    (-1, 3, -3, 1),
    (1, -4, 6, -4, 1),
    (-1, 5, -10, 10, -5, 1),
    (1, -6, 15, -20, 15, -6, 1),
)

_STOCHASTIC_LUCAS_ARRAY_ROWS = (
    (1,),
    (1, 0),
    (3, -2, 0),
    (4, -3, 0, 0),
    (7, -10, 4, 0, 0),
    (11, -18, 8, 0, 0, 0),
    (18, -38, 29, -8, 0, 0, 0),
    (29, -71, 63, -20, 0, 0, 0, 0),
    (47, -134, 150, -78, 16, 0, 0, 0, 0),
    (76, -245, 317, -195, 48, 0, 0, 0, 0, 0),
)

_STOCHASTIC_LUCAS_MATRIX_ROWS = (
    (1,),
    (3, -2),
    (4, -7, 4),
    (7, -14, 16, -8),
    (11, -31, 41, -36, 16),
    (18, -60, 105, -110, 80, -32),
    (29, -116, 235, -315, 280, -176, 64),
    (47, -216, 512, -790, 880, -688, 384, -128),
    (76, -397, 1063, -1894, 2425, -2344, 1648, -832, 256),
    (123, -718, 2153, -4298, 6303, -7002, 6032, -3872, 1792, -512),
)

_LUCAS_PI_ROWS = (
    (1,),
    (1, 1),
    (3, 6, 1),
    (4, 33, 11, 1),
    (7, 214, 88, 16, 1),
    (11, 1572, 699, 168, 21, 1),
    (18, 12686, 5787, 1584, 273, 26, 1),
    (29, 108583, 50036, 14652, 2994, 403, 31, 1),
    (47, 967294, 447998, 136436, 30792, 5054, 558, 36, 1),
)

_CFIB2_PI_ROWS = (
    (1,),
    (2, 1),
    (5, 5, 1),
    (10, 20, 8, 1),
    (20, 75, 44, 11, 1),
    (38, 285, 212, 77, 14, 1),
    (71, 1138, 976, 448, 119, 17, 1),
    (130, 4820, 4476, 2390, 810, 170, 20, 1),
    (235, 21545, 20838, 12266, 4905, 1325, 230, 23, 1),
)

_FIB_F_ASSOCIATED_ROWS = (
    (1,),
    (0, 1),
    (0, 3, 1),
    (0, 9, 6, 1),
    (0, 32, 27, 9, 1),
    (0, 126, 118, 54, 12, 1),
    (0, 538, 525, 285, 90, 15, 1),
    (0, 2429, 2408, 1440, 560, 135, 18, 1),
    (0, 11412, 11378, 7203, 3195, 970, 189, 21, 1),
    (0, 55201, 55146, 36162, 17488, 6195, 1542, 252, 24, 1),
)

_FIB_F_BELL_ROWS = (
    (1,),
    (3, 1),
    (9, 6, 1),
    (32, 27, 9, 1),
    (126, 118, 54, 12, 1),
    (538, 525, 285, 90, 15, 1),
    (2429, 2408, 1440, 560, 135, 18, 1),
    (11412, 11378, 7203, 3195, 970, 189, 21, 1),
    (55201, 55146, 36162, 17488, 6195, 1542, 252, 24, 1),
    (272993, 272904, 183132, 93926, 37043, 10926, 2303, 324, 27, 1),
)

_FIB_F_DERIVATIVE_ROWS = (
    (1,),
    (6, 1),
    (27, 9, 1),
    (128, 54, 12, 1),
    (630, 295, 90, 15, 1),
    (3228, 1575, 570, 135, 18, 1),
    (17003, 8428, 3360, 980, 189, 21, 1),
    (91296, 45512, 19208, 6390, 1552, 252, 24, 1),
    (496809, 248157, 108486, 39348, 11151, 2313, 324, 27, 1),
    (2729930, 1364520, 610440, 234815, 74086, 18210, 3290, 405, 30, 1),
)

_FIB_F_HITTING_ROWS = (
    (1,),
    (3, 1),
    (9, 6, 1),
    (42, 27, 9, 1),
    (201, 128, 54, 12, 1),
    (1043, 630, 295, 90, 15, 1),
    (5544, 3228, 1575, 570, 135, 18, 1),
    (30012, 17003, 8428, 3360, 980, 189, 21, 1),
    (164281, 91296, 45512, 19208, 6390, 1552, 252, 24, 1),
    (906693, 496809, 248157, 108486, 39348, 11151, 2313, 324, 27, 1),
)

_LUCAS_PI_Z = ("1", "2", "-11", "58", "-384", "2872", "-23416", "201608")
_LUCAS_PI_A = ("1", "5", "0", "45", "-225", "1980", "-16200", "142920")

_CFIB2_PI_Z = ("2", "1", "-5", "20", "-77", "308", "-1303", "5805")
_CFIB2_PI_A = ("1", "3", "0", "5", "-15", "70", "-310", "1455")

_STOCHASTIC_LUCAS_MATRIX_Z = ("3", "5/2", "25/8", "25/8", "375/128", "375/128",
                              "3125/1024", "3125/1024")
_STOCHASTIC_LUCAS_MATRIX_A = ("-2", "1/2", "-5/8", "0", "25/128", "0",
                              "-125/1024", "0")

# the A sequence depends on f alone, so every array sharing the Fibonacci f
# shares this prefix
_FIB_F_SHARED_A = _CFIB2_PI_A


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        id="pascal",
        source="Pascal triangle pair (1/(1-z), z/(1-z))",
        checks=(
            Check("", matrix, _pascal, _PASCAL_ROWS),
            Check("", pseudo, _pascal, 16),
        ),
    ),
    Fixture(
        id="pascal-inverse",
        source="inverse of the Pascal pair, alternating binomials",
        checks=(Check("", matrix, _pascal_inverse, _PASCAL_INVERSE_ROWS),),
    ),
    Fixture(
        id="pascal-from-g",
        source="pseudo-involution partner of 1/(1-z) recovers z/(1-z)",
        checks=(
            Check("f", series_match, lambda order: _pascal_pi(order).f,
                  (lambda order: _pascal(order).f, 32)),
            Check("", pseudo, _pascal_pi, 16),
        ),
    ),
    Fixture(
        id="appell-k3",
        source="Appell pair ((1+3z)/(1-3z), z)",
        checks=(Check("", pseudo, _appell_k3, 16),),
    ),
    Fixture(
        id="stochastic-lucas-array",
        source="stochastic array built from the modified Lucas numbers",
        checks=(
            Check("", matrix, _stochastic_lucas_array, _STOCHASTIC_LUCAS_ARRAY_ROWS),
            Check("", row_sums, _stochastic_lucas_array, 32),
        ),
    ),
    Fixture(
        id="stochastic-lucas-matrix",
        source="stochastic matrix from (1+2z)/(1-z-z^2), with its A/Z sequences",
        checks=(
            Check("", matrix, _stochastic_lucas_matrix, _STOCHASTIC_LUCAS_MATRIX_ROWS),
            Check("", a_and_z, _stochastic_lucas_matrix,
                  (_STOCHASTIC_LUCAS_MATRIX_A, _STOCHASTIC_LUCAS_MATRIX_Z)),
            Check("", row_sums, _stochastic_lucas_matrix, 32),
        ),
    ),
    Fixture(
        id="fib-pi",
        source="Fibonacci pseudo-involution and its closed-form f",
        checks=(
            Check("", pseudo, _fib_pi, 16),
            Check("closed form f", series_match, lambda order: _fib_pi(order).f,
                  (_fib_pi_closed_f, 32)),
        ),
    ),
    Fixture(
        id="lucas-pi",
        source="modified Lucas pseudo-involution, matrix and A/Z sequences",
        checks=(
            Check("", matrix, _lucas_pi, _LUCAS_PI_ROWS),
            Check("", a_and_z, _lucas_pi, (_LUCAS_PI_A, _LUCAS_PI_Z)),
            Check("", pseudo, _lucas_pi, 16),
            Check("closed form f", series_match, lambda order: _lucas_pi(order).f,
                  (_lucas_pi_closed_f, 32)),
        ),
    ),
    Fixture(
        id="cfib2-pi",
        source="convolved Fibonacci pseudo-involution (square of the g)",
        checks=(
            Check("", matrix, _cfib2_pi, _CFIB2_PI_ROWS),
            Check("", a_and_z, _cfib2_pi, (_CFIB2_PI_A, _CFIB2_PI_Z)),
            Check("", pseudo, _cfib2_pi, 16),
        ),
    ),
    Fixture(
        id="fib-f-family",
        source="the four canonical pseudo-involutions sharing the Fibonacci f",
        checks=(
            Check("associated", matrix, _fib_f_associated, _FIB_F_ASSOCIATED_ROWS),
            Check("bell", matrix, _fib_f_bell, _FIB_F_BELL_ROWS),
            Check("derivative", matrix, _fib_f_derivative, _FIB_F_DERIVATIVE_ROWS),
            Check("hitting_time", matrix, _fib_f_hitting, _FIB_F_HITTING_ROWS),
            Check("associated", pseudo, _fib_f_associated, 16),
            Check("bell", pseudo, _fib_f_bell, 16),
            Check("derivative", pseudo, _fib_f_derivative, 16),
            Check("hitting_time", pseudo, _fib_f_hitting, 16),
            Check("associated", a_only, _fib_f_associated, _FIB_F_SHARED_A),
            Check("bell", a_only, _fib_f_bell, _FIB_F_SHARED_A),
            Check("derivative", a_only, _fib_f_derivative, _FIB_F_SHARED_A),
            Check("hitting_time", a_only, _fib_f_hitting, _FIB_F_SHARED_A),
        ),
    ),
)


def all_fixtures() -> tuple[Fixture, ...]:
    return FIXTURES


def fixture_by_id(fixture_id: str) -> Fixture:
    for fixture in FIXTURES:
        if fixture.id == fixture_id:
            return fixture
    known = ", ".join(f.id for f in FIXTURES)
    raise KeyError(f"no fixture {fixture_id!r} (known: {known})")
