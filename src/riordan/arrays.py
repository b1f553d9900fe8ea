"""Riordan pairs as group elements, and their triangle expansions.

A pair (g, f) with g(0) != 0 and f(0) = 0 describes the lower-triangular
array whose column k has generating function g*f^k.  Pairs with a nonzero
linear term in f are proper (group elements); stretched pairs (f with
valuation >= 2, including f identically zero) can still be expanded and
applied but are excluded from the group operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import OrderError, PairInvariantError, ProprietyError
from .series import Scalar, TruncSeries, _columns, _make, compose_many

# the subgroup kinds seeded by f, in the order family_from_f returns them;
# the fifth kind, appell, is seeded by g
FAMILY_KINDS = ("associated", "bell", "derivative", "hitting_time")

T = TypeVar("T")


@dataclass(frozen=True, init=False)
class TriMatrix:
    """Leading rows of a lower-triangular array; row n holds n+1 entries.

    Held by columns: ``columns[k]`` is a TruncSeries of order ``n_rows``
    whose coefficient n is entry (n, k), so every column is integer
    numerators over one denominator.  Entries above the diagonal read as
    zero.  ``rows`` builds the Fraction rows on first use.
    """

    columns: tuple[TruncSeries, ...]
    _rows: tuple | None = field(default=None, compare=False, repr=False)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rows = tuple(tuple(row) for row in rows)
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
        object.__setattr__(self, "columns", tuple(
            TruncSeries([0] * k + [row[k] for row in rows[k:]]) for k in range(len(rows))))

    @classmethod
    def from_columns(cls, columns: Iterable[TruncSeries]) -> TriMatrix:
        """The matrix whose column k is ``columns[k]``; each column has order
        len(columns) and vanishes above row k."""
        tri = object.__new__(cls)
        object.__setattr__(tri, "columns", tuple(columns))
        return tri

    def map_rows(self, cells: Callable[[TruncSeries, int], Sequence[T]]) -> list[tuple[T, ...]]:
        """The rows of ``cells(columns[k], k)``, which lists entries k, k+1, ...
        of column k: row n holds the entries (n, 0), ..., (n, n)."""
        cols = [[None] * k + list(cells(col, k)) for k, col in enumerate(self.columns)]
        return [row[:n + 1] for n, row in enumerate(zip(*cols))]

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            object.__setattr__(self, "_rows",
                               tuple(self.map_rows(lambda col, k: col.coeffs[k:])))
        return self._rows

    @property
    def n_rows(self) -> int:
        return len(self.columns)

    def entry(self, n: int, k: int) -> Fraction:
        if not 0 <= n < self.n_rows or k < 0:
            raise IndexError(f"no row {n} (have {self.n_rows})")
        return self.columns[k].coeffs[n] if k <= n else Fraction(0)

    def column(self, k: int) -> tuple[Fraction, ...]:
        return tuple(self.entry(n, k) for n in range(self.n_rows))

    def row_sums(self) -> tuple[Fraction, ...]:
        """Each row summed as integers over the lcm of the column denominators."""
        L = lcm(*[col.den for col in self.columns])
        sums = [0] * self.n_rows
        for k, col in enumerate(self.columns):
            f = L // col.den
            sums[k:] = map(add, sums[k:], map(f.__mul__, col.nums[k:]))
        return tuple(Fraction(s, L) for s in sums)


class RiordanPair:
    """The pair (g, f); immutable."""

    __slots__ = ("g", "f")

    g: TruncSeries
    f: TruncSeries

    def __init__(self, g: TruncSeries, f: TruncSeries):
        if not g.nums[0]:
            raise PairInvariantError("g needs a nonzero constant term")
        if f.nums[0]:
            raise PairInvariantError("f needs a zero constant term")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)

    def __setattr__(self, name, value):
        raise AttributeError("RiordanPair is immutable")

    @classmethod
    def identity(cls, order: int) -> RiordanPair:
        return cls(TruncSeries.one(order), TruncSeries.z(order))

    @property
    def proper(self) -> bool:
        return self.f.order > 1 and self.f.nums[1] != 0

    @property
    def available_order(self) -> int:
        return min(self.g.order, self.f.order)

    def truncate(self, order: int) -> RiordanPair:
        return RiordanPair(self.g.truncate(order), self.f.truncate(order))

    def _require_proper(self, what: str) -> None:
        if not self.proper:
            raise ProprietyError(f"{what} requires a proper pair (f'(0) != 0)")

    # ---- expansion and the fundamental action ----

    def expand(self, rows: int) -> TriMatrix:
        """Leading ``rows`` rows; entry(n, k) = [z^n] g*f^k.

        Works for proper and stretched pairs alike.
        """
        if rows < 1:
            raise OrderError(f"rows must be positive, got {rows}")
        if rows > self.available_order:
            raise OrderError(
                f"{rows} rows requested but only {self.available_order} "
                f"coefficients are available"
            )
        cols = _columns(self.g.nums, self.g.den, self.f.nums, self.f.den, rows, rows)
        return TriMatrix.from_columns([_make(nums, d) for nums, d in cols])

    def apply(self, h: TruncSeries) -> TruncSeries:
        """Action on a column vector by generating function: g * h(f)."""
        return self.g * h.compose(self.f)

    # ---- group structure ----

    def __mul__(self, other) -> RiordanPair:
        if not isinstance(other, RiordanPair):
            return NotImplemented
        self._require_proper("group multiplication")
        other._require_proper("group multiplication")
        g, f = compose_many([other.g, other.f], self.f)
        return RiordanPair(self.g * g, f)

    def inverse(self) -> RiordanPair:
        self._require_proper("inversion")
        fbar = self.f.reverse()
        return RiordanPair(1 / self.g.compose(fbar), fbar)

    def mam_conjugate(self) -> RiordanPair:
        """Conjugation by (1, -z): the sign-checkerboarded pair (g(-z), -f(-z)).

        Equals the inverse exactly when the pair is a pseudo-involution.
        """
        return RiordanPair(self.g.alternate(), -self.f.alternate())

    # ---- involution predicates ----

    def _check_order(self, order: int | None) -> int:
        avail = self.available_order
        if order is None:
            return avail
        if order > avail:
            raise OrderError(f"check at order {order} but only {avail} available")
        return order

    def involution_failure(self, order: int | None = None) -> int | None:
        """First coefficient index violating (g, f)^2 = (1, z), None if none."""
        self._require_proper("involution check")
        n = self._check_order(order)
        return self._square_failure(self.f, n)

    def pseudo_involution_failure(self, order: int | None = None) -> int | None:
        """First index violating the pseudo-involution conditions
        g(z)g(-f(z)) = 1 and -f(-f(z)) = z, None if they hold mod z^order."""
        self._require_proper("pseudo-involution check")
        n = self._check_order(order)
        return self._square_failure(-self.f, n)

    def _square_failure(self, F: TruncSeries, n: int) -> int | None:
        g = self.g.truncate(n)
        F = F.truncate(n)
        gF, FF = compose_many([g, F], F)
        gg = g * gF
        # g*g(F) = 1 and F(F) = z, read off the numerators
        for i in range(n):
            if gg.nums[i] != (gg.den if i == 0 else 0) or FF.nums[i] != (FF.den if i == 1 else 0):
                return i
        return None

    def is_involution(self, order: int | None = None) -> bool:
        return self.involution_failure(order) is None

    def is_pseudo_involution(self, order: int | None = None) -> bool:
        return self.pseudo_involution_failure(order) is None

    # ---- dunder plumbing ----

    def __eq__(self, other) -> bool:
        if not isinstance(other, RiordanPair):
            return NotImplemented
        return self.g == other.g and self.f == other.f

    def __hash__(self) -> int:
        return hash((self.g, self.f))

    def __repr__(self) -> str:
        return f"RiordanPair(g={self.g!r}, f={self.f!r})"


def subgroup_element(kind: str, seed: TruncSeries) -> RiordanPair:
    """Canonical element of one of the five classical subgroups.

    appell takes the seed as g and pairs it with z; the other kinds take the
    seed as f and build (f/z, f), (1, f), (f', f) or (z*f'/f, f).
    """
    if kind == "appell":
        if not seed.nums[0]:
            raise ProprietyError("appell seed g needs a nonzero constant term")
        return RiordanPair(seed, TruncSeries.z(seed.order))
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown subgroup kind {kind!r}")
    f = seed
    if f.nums[0] or f.order < 2 or not f.nums[1]:
        raise ProprietyError(f"{kind} seed f needs f(0) = 0 and f'(0) != 0")
    if kind == "bell":
        return RiordanPair(f / TruncSeries.z(f.order), f)
    if kind == "associated":
        return RiordanPair(TruncSeries.one(f.order), f)
    if kind == "derivative":
        return RiordanPair(f.derivative(), f)
    # hitting_time: z*f'/f has constant term 1, unlike the bare quotient f'/f
    df = f.derivative()
    return RiordanPair(TruncSeries.z(df.order) * df / f, f)
