"""Riordan pairs as group elements, and their triangle expansions.

A pair (g, f) with g(0) != 0 and f(0) = 0 describes the lower-triangular
array whose column k has generating function g*f^k.  Pairs with a nonzero
linear term in f are proper (group elements); stretched pairs (f with
valuation >= 2, including f identically zero) can still be expanded and
applied but are excluded from the group operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import OrderError, PairInvariantError, ProprietyError
from .series import TruncSeries, _mul, compose_many

# the subgroup kinds seeded by f, in the order family_from_f returns them;
# the fifth kind, appell, is seeded by g
FAMILY_KINDS = ("associated", "bell", "derivative", "hitting_time")


@dataclass(frozen=True)
class TriMatrix:
    """Leading rows of a lower-triangular array; row n holds n+1 entries.

    Entries above the diagonal are not stored and read as zero.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def entry(self, n: int, k: int) -> Fraction:
        if not 0 <= n < self.n_rows or k < 0:
            raise IndexError(f"no row {n} (have {self.n_rows})")
        return self.rows[n][k] if k <= n else Fraction(0)

    def column(self, k: int) -> tuple[Fraction, ...]:
        return tuple(self.entry(n, k) for n in range(self.n_rows))

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.rows)


class RiordanPair:
    """The pair (g, f); immutable."""

    __slots__ = ("g", "f")

    g: TruncSeries
    f: TruncSeries

    def __init__(self, g: TruncSeries, f: TruncSeries):
        if g.coeffs[0] == 0:
            raise PairInvariantError("g needs a nonzero constant term")
        if f.coeffs[0] != 0:
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
        return self.f.order > 1 and self.f.coeffs[1] != 0

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
        f = list(self.f.coeffs[:rows])
        cols = []
        col = list(self.g.coeffs[:rows])
        for _ in range(rows):
            cols.append(col)
            col = _mul(col, f, rows)
        return TriMatrix(tuple(
            tuple(cols[k][n] for k in range(n + 1)) for n in range(rows)
        ))

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
        n = self._check_order(order)
        return self._square_failure(self.f, n)

    def pseudo_involution_failure(self, order: int | None = None) -> int | None:
        """First index violating the pseudo-involution conditions
        g(z)g(-f(z)) = 1 and -f(-f(z)) = z, None if they hold mod z^order."""
        n = self._check_order(order)
        return self._square_failure(-self.f, n)

    def _square_failure(self, F: TruncSeries, n: int) -> int | None:
        g = self.g.truncate(n)
        F = F.truncate(n)
        gF, FF = compose_many([g, F], F)
        gg = g * gF
        one = TruncSeries.one(n)
        zz = TruncSeries.z(n)
        for i in range(n):
            if gg.coeffs[i] != one.coeffs[i] or FF.coeffs[i] != zz.coeffs[i]:
                return i
        return None

    def is_involution(self, order: int | None = None) -> bool:
        self._require_proper("involution check")
        return self.involution_failure(order) is None

    def is_pseudo_involution(self, order: int | None = None) -> bool:
        self._require_proper("pseudo-involution check")
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
        if seed.coeffs[0] == 0:
            raise ProprietyError("appell seed g needs a nonzero constant term")
        return RiordanPair(seed, TruncSeries.z(seed.order))
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown subgroup kind {kind!r}")
    f = seed
    if f.coeffs[0] != 0 or f.order < 2 or f.coeffs[1] == 0:
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
