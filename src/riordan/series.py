"""Exact truncated formal power series over the rationals.

A TruncSeries stores the first ``order`` coefficients of a power series in
z, as ``fractions.Fraction`` values; nothing is ever rounded.  Binary
operations on mismatched orders truncate to the shorter operand (explicit
truncation, never silent padding).  All values are immutable, so they can
be shared freely.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt
from typing import Iterable, Union

from .errors import (
    CompositionError,
    DivisionByZeroSeries,
    InexactScalarError,
    OrderError,
    ReversionError,
    SeriesError,
    SqrtError,
    ValuationError,
)

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational_str(x: Fraction) -> str:
    """Render exactly, "p/q" or plain "p" for integers."""
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise SeriesError(
            f"coefficient has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for printing an integer"
        ) from None


def _exact(c) -> Fraction:
    if isinstance(c, float):
        raise InexactScalarError(
            f"float {c!r} is not exact; pass an int, a Fraction or a 'p/q' string"
        )
    return c if type(c) is Fraction else Fraction(c)


def _sqrt_fraction(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    p, q = c.numerator, c.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


# Kernels below work on plain lists of Fractions so algorithms that need
# explicit precision control (Newton reversion) can manage truncation
# themselves instead of going through the min-order rules.

def _mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    out = [_ZERO] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _div(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    # requires b[0] != 0
    b0 = b[0]
    out: list[Fraction] = []
    for k in range(n):
        acc = a[k] if k < len(a) else _ZERO
        for i in range(1, min(k, len(b) - 1) + 1):
            if b[i]:
                acc -= b[i] * out[k - i]
        out.append(acc / b0)
    return out


def _compose_many(outers: list[list[Fraction]], inner: list[Fraction],
                  n: int) -> list[list[Fraction]]:
    """Each outer(inner) mod z^n, all sharing one table of powers of inner.

    Baby-step/giant-step (Brent & Kung 1978, section 2.1): with k about the
    square root of the outer length, outer = sum_j B_j(inner) * inner^(jk),
    where block B_j holds coefficients jk..jk+k-1.  The baby powers
    inner^0..inner^(k-1) and the giant step inner^k are built once; each
    block is a linear combination of baby powers and the blocks are joined
    by Horner's rule in the giant step, so an outer costs about 2*sqrt(n)
    series products instead of n.  Requires inner[0] == 0.
    """
    inner = inner[:n]
    v = next((i for i, c in enumerate(inner) if c), None)
    if v is None:
        return [[o[0]] + [_ZERO] * (n - 1) for o in outers]
    # outer[i] multiplies a power of valuation i*v, which vanishes once i*v >= n
    m = min(-(-n // v), max(len(o) for o in outers))
    outers = [o[:m] for o in outers]
    k = isqrt(m - 1) + 1
    powers = [[_ONE] + [_ZERO] * (n - 1)]
    for _ in range(1, k):
        powers.append(_mul(powers[-1], inner, n))
    giant = _mul(powers[-1], inner, n) if m > k else None
    results = []
    for outer in outers:
        acc: list[Fraction] = []
        for start in reversed(range(0, len(outer), k)):
            # this partial sum is multiplied by inner^start, of valuation
            # start*v, so it is only needed mod z^(n - start*v)
            prec = n - start * v
            block = _mul(acc, giant, prec) if start + k < len(outer) else [_ZERO] * prec
            for i, c in enumerate(outer[start:start + k]):
                if c:
                    power = powers[i]
                    for t in range(i * v, prec):
                        if power[t]:
                            block[t] += c * power[t]
            acc = block
        results.append(acc + [_ZERO] * (n - len(acc)))
    return results


def compose_many(outers: list[TruncSeries], inner: TruncSeries) -> list[TruncSeries]:
    """[outer.compose(inner) for outer in outers], sharing one power table.

    Each result keeps the min-order rule of ``compose``: it is known to
    min(outer.order, inner.order) coefficients.
    """
    if inner.coeffs[0] != 0:
        raise CompositionError("inner series must have zero constant term")
    orders = [min(o.order, inner.order) for o in outers]
    n = max(orders)
    outs = _compose_many([list(o.coeffs[:n]) for o in outers], list(inner.coeffs[:n]), n)
    return [TruncSeries(out[:m]) for out, m in zip(outs, orders)]


class TruncSeries:
    """A power series known modulo z**order (order = number of coefficients)."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(_exact(c) for c in coeffs)
        if not cs:
            raise OrderError("a series needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # ---- constructors ----

    @classmethod
    def constant(cls, c: Scalar, order: int) -> TruncSeries:
        return cls.polynomial([c], order)

    @classmethod
    def zero(cls, order: int) -> TruncSeries:
        return cls.polynomial([], order)

    @classmethod
    def one(cls, order: int) -> TruncSeries:
        return cls.polynomial([1], order)

    @classmethod
    def z(cls, order: int) -> TruncSeries:
        return cls.polynomial([0, 1], order)

    @classmethod
    def polynomial(cls, coeffs: Iterable[Scalar], order: int) -> TruncSeries:
        """The exact polynomial with the given coefficients, held at ``order``.

        Padding with zeros is legitimate here (a polynomial is known to all
        orders); coefficients past ``order`` are cut off.
        """
        if order < 1:
            raise OrderError(f"order must be positive, got {order}")
        cs = [_exact(c) for c in coeffs][:order]
        cs += [_ZERO] * (order - len(cs))
        return cls(cs)

    # ---- basic queries ----

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i < self.order:
            raise OrderError(f"coefficient {i} not known at order {self.order}")
        return self.coeffs[i]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if zero to order."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    @property
    def is_zero(self) -> bool:
        return self.valuation() is None

    def truncate(self, order: int) -> TruncSeries:
        if not 1 <= order <= self.order:
            raise OrderError(f"cannot truncate order {self.order} to {order}")
        return TruncSeries(self.coeffs[:order])

    def matches(self, other: TruncSeries) -> bool:
        """Coefficientwise equality to the common order."""
        n = min(self.order, other.order)
        return self.coeffs[:n] == other.coeffs[:n]

    # ---- ring operations ----

    def _coerce(self, other) -> TruncSeries | None:
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction, float)):
            return TruncSeries.constant(other, self.order)
        return None

    def __add__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return TruncSeries(a + b for a, b in zip(self.coeffs[:n], o.coeffs[:n]))

    __radd__ = __add__

    def __sub__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return TruncSeries(a - b for a, b in zip(self.coeffs[:n], o.coeffs[:n]))

    def __rsub__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> TruncSeries:
        return TruncSeries(-c for c in self.coeffs)

    def __mul__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return TruncSeries(_mul(list(self.coeffs), list(o.coeffs), n))

    __rmul__ = __mul__

    def __truediv__(self, other) -> TruncSeries:
        """Exact quotient.

        A common valuation v in the denominator is cancelled first (so f/z
        works); the result order drops by v.  The denominator may not vanish
        to higher order than the numerator.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        bv = o.valuation()
        if bv is None:
            raise DivisionByZeroSeries("denominator is zero to its order")
        if bv > 0:
            av = self.valuation()
            if av is not None and av < bv:
                raise ValuationError(
                    f"denominator valuation {bv} exceeds numerator valuation {av}"
                )
            if n - bv < 1:
                raise OrderError("valuation cancellation consumes the whole order")
        m = n - bv
        return TruncSeries(_div(list(self.coeffs[bv:]), list(o.coeffs[bv:]), m))

    def __rtruediv__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> TruncSeries:
        """Square-and-multiply, so the cost grows with log(n), not n."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers take a nonnegative integer exponent")
        v = self.valuation()
        if n and (v is None or v * n >= self.order):
            return TruncSeries.zero(self.order)
        out = TruncSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # ---- structural operations ----

    def compose(self, inner: TruncSeries) -> TruncSeries:
        """self(inner(z)), requiring inner(0) = 0."""
        return compose_many([self], inner)[0]

    def reverse(self) -> TruncSeries:
        """Compositional inverse: the series r with self(r(z)) = z.

        Needs a zero constant term and a nonzero linear term.  Computed by
        Newton iteration with successive order doubling; each step solves
        r <- r - (self(r) - z)/self'(r) at twice the proven precision.
        """
        n = self.order
        if n < 2:
            raise ReversionError("reversion needs at least two coefficients")
        a = list(self.coeffs)
        if a[0] != 0:
            raise ReversionError("constant term must be zero")
        if a[1] == 0:
            raise ReversionError("linear coefficient must be nonzero")
        da = [(i + 1) * a[i + 1] for i in range(n - 1)]
        g = [_ZERO, 1 / a[1]]
        prec = 2
        while prec < n:
            prec = min(2 * prec, n)
            g = g + [_ZERO] * (prec - len(g))
            fg, dfg = _compose_many([a[:prec], da[:prec]], g, prec)
            fg[1] -= 1
            corr = _div(fg, dfg, prec)
            g = [gi - ci for gi, ci in zip(g, corr)]
        return TruncSeries(g[:n])

    def sqrt(self) -> TruncSeries:
        """Square root branch with positive constant term.

        The constant term must be the square of a nonzero rational (1 in
        every closed form this package evaluates); callers wanting the other
        branch negate the result.
        """
        c0 = self.coeffs[0]
        if c0 == 0:
            raise SqrtError("constant term must be nonzero")
        r0 = _sqrt_fraction(c0)
        if r0 is None:
            raise SqrtError(f"{rational_str(c0)} is not a perfect rational square")
        out = [r0]
        for k in range(1, self.order):
            acc = self.coeffs[k]
            for i in range(1, k):
                acc -= out[i] * out[k - i]
            out.append(acc / (2 * r0))
        return TruncSeries(out)

    def derivative(self) -> TruncSeries:
        """Termwise derivative; the order drops by one.

        An order-1 input (bare constant) maps to the zero series at order 1
        rather than an empty series.
        """
        if self.order == 1:
            return TruncSeries([_ZERO])
        return TruncSeries(i * self.coeffs[i] for i in range(1, self.order))

    def alternate(self) -> TruncSeries:
        """Coefficients of self(-z)."""
        return TruncSeries(-c if i % 2 else c for i, c in enumerate(self.coeffs))

    # ---- dunder plumbing ----

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncSeries([{', '.join(rational_str(c) for c in self.coeffs)}])"

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = rational_str(abs(c))
            if i == 0:
                term = mag
            else:
                zpow = "z" if i == 1 else f"z^{i}"
                term = zpow if abs(c) == 1 else f"{mag}*{zpow}"
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            body = "0"
        else:
            body = parts[0].lstrip("+ ") if parts[0].startswith("+") else "-" + parts[0][2:]
            body += " " + " ".join(parts[1:]) if len(parts) > 1 else ""
        return f"{body.strip()} + O(z^{self.order})"
