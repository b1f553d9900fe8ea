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
from math import gcd, isqrt, lcm
from operator import add, mul
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


# Kernels below take and return plain lists of Fractions, so algorithms that
# need explicit precision control (Newton reversion) can manage truncation
# themselves instead of going through the min-order rules.  Inside, each
# works on integer numerators over one common denominator and builds
# Fractions only for its result.

def _scaled(a: list[Fraction]) -> tuple[list[int], int]:
    """(nums, d) with a[i] = nums[i]/d, d the least common denominator."""
    d = lcm(*[c.denominator for c in a])
    if d == 1:
        return [c.numerator for c in a], 1
    return [c.numerator * (d // c.denominator) for c in a], d


def _fractions(nums: list[int], d: int) -> list[Fraction]:
    # zeros share one object, as they did when sums started from _ZERO
    if d == 1:
        return [Fraction(c) if c else _ZERO for c in nums]
    return [Fraction(c, d) if c else _ZERO for c in nums]


def _pack(xs: list[int], width: int) -> int:
    """sum xs[i] * 2^(8*width*i), from the bytes of each entry.

    Read as one unsigned integer, the concatenated two's-complement slots
    exceed that sum by 2^(8*width*(i+1)) for each negative xs[i]; the
    excess is taken back.
    """
    u = int.from_bytes(b"".join([x.to_bytes(width, "little", signed=True) for x in xs]),
                       "little")
    if min(xs) < 0:
        zero, one = bytes(width), b"\x01" + bytes(width - 1)
        u -= int.from_bytes(b"".join([one if x < 0 else zero for x in xs]),
                            "little") << (8 * width)
    return u


def _int_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two integer series mod z^n, by Kronecker substitution.

    Each operand becomes one integer holding a coefficient per slot of
    ``width`` bytes, so CPython's big-integer product does the whole
    convolution.  A product coefficient is a sum of at most min(len) terms,
    so its magnitude stays below half a slot, 2^(8*width - 1); adding half
    a slot to every slot makes all slots nonnegative, and the signed
    coefficients are read back from the bytes of that sum.
    """
    va = next((i for i, x in enumerate(a) if x), None)
    vb = next((i for i, x in enumerate(b) if x), None)
    if va is None or vb is None or va + vb >= n:
        return [0] * n
    shift = va + vb
    a = a[va:n - vb]
    b = b[vb:n - va]
    while not a[-1]:
        a.pop()
    while not b[-1]:
        b.pop()
    m = min(n - shift, len(a) + len(b) - 1)
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * m, "little")
    low = (_pack(a, width) * _pack(b, width) + bias) & ((1 << (8 * width * m)) - 1)
    raw = low.to_bytes(width * m, "little")
    from_bytes = int.from_bytes
    out = [0] * shift
    out += [from_bytes(raw[i:i + width], "little") - half for i in range(0, width * m, width)]
    return out + [0] * (n - len(out))


def _mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    A, da = _scaled(a[:n])
    B, db = _scaled(b[:n])
    return _fractions(_int_mul(A, B, n), da * db)


def _reduced(nums: list[int], d: int) -> tuple[list[int], int]:
    """(nums, d) divided by their common factor: d becomes the least common
    denominator of the values nums[i]/d."""
    g = gcd(d, *nums)
    return ([x // g for x in nums], d // g) if g > 1 else (nums, d)


def _push(nums: list[int], d: int, q: Fraction) -> int:
    """Append q to the numerators ``nums`` over the common denominator d and
    return the new common denominator, rescaling ``nums`` if it grew."""
    f = q.denominator // gcd(d, q.denominator)
    if f > 1:
        d *= f
        nums[:] = [x * f for x in nums]
    nums.append(q.numerator * (d // q.denominator))
    return d


def _div(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    """a/b mod z^n; requires b[0] != 0.

    Long division over the integers.  With a = A/da and b = B/db, the
    quotient's coefficients so far are kept as numerators Q over their
    least common denominator L, so the next one,
    q_k = (A_k L db - da sum_{i>=1} B_i Q_(k-i)) / (da L B_0),
    takes one integer dot product and one gcd.
    """
    A, da = _scaled(a[:n])
    B, db = _scaled(b[:n])
    A += [0] * (n - len(A))
    while not B[-1]:
        B.pop()
    b0, tail = B[0], B[1:]
    out: list[Fraction] = []
    Q: list[int] = []
    L = 1
    for k in range(n):
        q = Fraction(A[k] * L * db - da * sum(map(mul, tail, reversed(Q))), da * L * b0)
        out.append(q)
        L = _push(Q, L, q)
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

    Powers and partial sums are integer numerators over their least common
    denominator; Fractions are built only for the results.
    """
    inner = inner[:n]
    v = next((i for i, c in enumerate(inner) if c), None)
    if v is None:
        return [[o[0]] + [_ZERO] * (n - 1) for o in outers]
    # outer[i] multiplies a power of valuation i*v, which vanishes once i*v >= n
    m = min(-(-n // v), max(len(o) for o in outers))
    k = isqrt(m - 1) + 1
    I, di = _scaled(inner)
    powers = [([1] + [0] * (n - 1), 1)]
    for _ in range(k):
        P, dp = powers[-1]
        powers.append(_reduced(_int_mul(P, I, n), dp * di))
    giant, dg = powers.pop()
    results = []
    for outer in outers:
        outer = outer[:m]
        acc, da = [], 1
        for start in reversed(range(0, len(outer), k)):
            # this partial sum is multiplied by inner^start, of valuation
            # start*v, so it is only needed mod z^(n - start*v)
            prec = n - start * v
            terms = [(i, c) for i, c in enumerate(outer[start:start + k]) if c]
            d = lcm(*[c.denominator * powers[i][1] for i, c in terms])
            if start + k < len(outer):
                block = _int_mul(acc, giant, prec)
                d = lcm(d, da * dg)
                f = d // (da * dg)
                if f > 1:
                    block = [x * f for x in block]
            else:
                block = [0] * prec
            for i, c in terms:
                P, dp = powers[i]
                f = c.numerator * (d // (c.denominator * dp))
                lo = i * v
                block[lo:prec] = map(add, block[lo:prec], map(f.__mul__, P[lo:prec]))
            acc, da = _reduced(block, d)
        results.append(_fractions(acc + [0] * (n - len(acc)), da))
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
        # as in _div: with self = C/dc and r_1..r_(k-1) kept as numerators R
        # over their least common denominator L,
        # r_k = (c_k - sum_{i=1..k-1} r_i r_(k-i)) / (2 r_0)
        #     = (C_k L^2 - dc sum R_i R_(k-i)) / (2 r_0 dc L^2)
        C, dc = _scaled(list(self.coeffs))
        p, q = r0.numerator, r0.denominator
        out = [r0]
        R: list[int] = []
        L = 1
        for k in range(1, self.order):
            r = Fraction((C[k] * L * L - dc * sum(map(mul, R, reversed(R)))) * q,
                         2 * p * dc * L * L)
            out.append(r)
            L = _push(R, L, r)
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
