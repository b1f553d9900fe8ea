"""Exact truncated formal power series over the rationals.

A TruncSeries stores the first ``order`` coefficients of a power series in
z as integer numerators ``nums`` over one denominator ``den``, in lowest
terms (den > 0 and gcd(den, *nums) = 1), so equal series have equal
integers; ``coeffs`` gives the same coefficients as ``fractions.Fraction``
values, built on first use.  Nothing is ever rounded.  Binary operations on
mismatched orders truncate to the shorter operand (explicit truncation,
never silent padding).  All values are immutable, so they can be shared
freely.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

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

_set = object.__setattr__


def ratio_strs(nums: Iterable[int], den: int) -> list[str]:
    """Each nums[i]/den rendered exactly: "p/q" in lowest terms, or plain "p"
    for integers.  den must be positive."""
    try:
        if den == 1:
            return list(map(str, nums))
        out = []
        for x in nums:
            g = gcd(x, den)
            q = den // g
            out.append(str(x // g) if q == 1 else f"{x // g}/{q}")
        return out
    except ValueError:
        raise SeriesError(
            f"coefficient has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for printing an integer"
        ) from None


def rational_str(x: Fraction) -> str:
    """Render exactly, "p/q" or plain "p" for integers."""
    return ratio_strs((x.numerator,), x.denominator)[0]


def _exact(c) -> int | Fraction:
    if type(c) is int or type(c) is Fraction:
        return c
    if isinstance(c, float):
        raise InexactScalarError(
            f"float {c!r} is not exact; pass an int, a Fraction or a 'p/q' string"
        )
    return Fraction(c)


# Kernels below work on the integer form, numerators over one positive
# denominator, so algorithms that need explicit precision control (Newton
# reversion) can manage truncation themselves instead of going through the
# min-order rules.  They accept any positive denominator and return their
# results in lowest terms.

def _reduced(nums: Sequence[int], d: int) -> tuple[Sequence[int], int]:
    """(nums, d) divided by their common factor: d becomes the least common
    denominator of the values nums[i]/d."""
    g = gcd(d, *nums)
    return ([x // g for x in nums], d // g) if g > 1 else (nums, d)


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


def _unpack(low: int, width: int, m: int, bias: int) -> list[int]:
    """The m signed coefficients held in ``low``, whose slot i holds the
    i-th of them plus half a slot; ``bias`` has half a slot in each slot.

    A slot holding x plus half a slot is x's two's complement with its top
    bit flipped, so one xor with the bias turns every slot into that.
    """
    raw = (low ^ bias).to_bytes(width * m, "little")
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, width * m, width)]


def _int_mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Product of two integer series mod z^n: column 1 of the array (a, b),
    over denominator 1, so nothing is reduced."""
    return _columns(a, 1, b, 1, n, 2)[1][0]


def _columns(G: Sequence[int], dg: int, F: Sequence[int], df: int, n: int,
             count: int) -> list[tuple[list[int], int]]:
    """The columns g*f^k mod z^n, k < count, of the array (g, f), each as
    (nums, den) with n numerators in lowest terms, for g = G/dg and
    f = F/df; G and F may be shorter or longer than n.  Every series
    product goes through here: a*b is column 1 of (a, b), and the powers
    of f are the columns of (1, f).

    With g = z^u * C_0 and f = z^v * h, column k is z^(u+kv) * C_k, where
    C_k = C_(k-1) * h mod z^m and m = n - u - kv.  Each step is a Kronecker
    product: C and h each become one integer holding a coefficient per
    slot of w bytes, so CPython's big-integer product does the whole
    convolution.  Only the m slots below z^m are kept: the slots above only
    add multiples of 2^(8*w*m), whatever their size.  A kept coefficient
    sums at most t = min(len(C), len(h)) terms C_i*h_j with i + j < m, so
    its absolute value is below 2^b, b the largest bitlen(C_i) +
    bitlen(max_(j < m-i) |h_j|), plus bitlen(t).  Half a slot, 2^(8w - 1),
    is at least that bound (and exceeds every operand entry), so adding
    half a slot to every slot, the bias, makes all slots nonnegative, and
    the signed coefficients are read back from the bytes of that sum.

    The biased product is unpacked once, for the column's integers, and
    otherwise stays packed: its low slots at the next m (never larger),
    minus their bias and divided exactly by the gcd that reduced the
    column, are the next left operand.  The column is packed again from
    its integers only when the slot width changes, and h once per width.
    """
    u = next((i for i, x in enumerate(G) if x), n)
    C, d = _reduced(G[u:n], dg)
    col = [0] * n
    col[u:u + len(C)] = C
    cols = [(col, d)]
    v = next((i for i, x in enumerate(F) if x), n)
    if count > 1 and u + v < n:
        H = F[v:n]
        h_end = len(H)
        while not H[h_end - 1]:
            h_end -= 1
        # bit length of the prefix maximum of |h|, for every m the chain uses
        h_bits = list(accumulate(map(int.bit_length, H), max))
        h_bits += [h_bits[-1]] * (n - u - v - len(H))
        packed_h = {}
        width = low = reduced_by = 0
        for k in range(1, count):
            shift = u + k * v
            m = n - shift
            if m < 1:
                break
            c_end = min(len(C), m)
            while not C[c_end - 1]:
                c_end -= 1
            bits = max(map(add, map(int.bit_length, C[:c_end]), reversed(h_bits[:m])))
            w = (bits + min(c_end, h_end).bit_length()) // 8 + 1
            mask = (1 << (8 * w * m)) - 1
            bias = int.from_bytes((bytes(w - 1) + b"\x80") * m, "little")
            if w == width:
                a = (low & mask) - bias
                if reduced_by > 1:
                    a //= reduced_by
            else:
                width = w
                a = _pack(C[:c_end], w)
                if w not in packed_h:
                    # m only shrinks, so later products read a prefix of these slots
                    packed_h[w] = _pack(H[:min(m, h_end)], w) + bias
            low = (a * ((packed_h[w] & mask) - bias) + bias) & mask
            C = _unpack(low, w, m, bias)
            d *= df
            reduced_by = gcd(d, *C)
            if reduced_by > 1:
                C = [x // reduced_by for x in C]
                d //= reduced_by
            cols.append(([0] * shift + C, d))
    while len(cols) < count:
        cols.append(([0] * n, 1))
    return cols


def _push(nums: list[int], d: int, p: int, q: int) -> int:
    """Append p/q (q != 0) to the numerators ``nums`` over the common
    denominator d and return the new common denominator, rescaling ``nums``
    if it grew.  p/q is reduced first, with one gcd, so a least common
    denominator stays one."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    p, q = p // g, q // g
    f = q // gcd(d, q)
    if f > 1:
        d *= f
        nums[:] = [x * f for x in nums]
    nums.append(p * (d // q))
    return d


def _div(A: Sequence[int], da: int, B: Sequence[int], db: int,
         n: int) -> tuple[list[int], int]:
    """a/b mod z^n for a = A/da and b = B/db; requires B[0] != 0.

    Long division over the integers.  The quotient's coefficients so far
    are kept as numerators Q over their least common denominator L, so the
    next one, q_k = (A_k L db - da sum_{i>=1} B_i Q_(k-i)) / (da L B_0),
    takes one integer dot product and one gcd.  Q over L is the result, in
    lowest terms because L is the least common denominator.
    """
    A = list(A[:n])
    A += [0] * (n - len(A))
    end = min(len(B), n)
    while not B[end - 1]:
        end -= 1
    b0, tail = B[0], B[1:end]
    Q: list[int] = []
    L = 1
    for k in range(n):
        num = A[k] * L * db - da * sum(map(mul, tail, reversed(Q)))
        L = _push(Q, L, num, da * L * b0)
    return Q, L


def _compose_many(outers: list[tuple[Sequence[int], int]], inner: tuple[Sequence[int], int],
                  n: int) -> list[tuple[list[int], int]]:
    """Each outer(inner) mod z^n, all sharing one table of powers of inner.

    Baby-step/giant-step (Brent & Kung 1978, section 2.1): with k about the
    square root of the outer length, outer = sum_j B_j(inner) * inner^(jk),
    where block B_j holds coefficients jk..jk+k-1.  The baby powers
    inner^0..inner^(k-1) and the giant step inner^k are built once, as the
    columns of the array (1, inner); each block is a linear combination of
    baby powers and the blocks are joined by Horner's rule in the giant
    step, so an outer costs about 2*sqrt(n) series products instead of n.
    Requires inner[0] == 0.

    Powers and partial sums are integer numerators over their least common
    denominator; an outer O/do is composed as the integer series O, and its
    result divided by do.
    """
    I, di = inner
    I = I[:n]
    v = next((i for i, c in enumerate(I) if c), None)
    if v is None:
        return [_reduced([O[0]] + [0] * (n - 1), do) for O, do in outers]
    # outer[i] multiplies a power of valuation i*v, which vanishes once i*v >= n
    m = min(-(-n // v), max(len(O) for O, _ in outers))
    k = isqrt(m - 1) + 1
    powers = _columns([1], 1, I, di, n, k + 1)
    giant, dg = powers.pop()
    results = []
    for O, do in outers:
        O = O[:m]
        acc, da = [], 1
        for start in reversed(range(0, len(O), k)):
            # this partial sum is multiplied by inner^start, of valuation
            # start*v, so it is only needed mod z^(n - start*v)
            prec = n - start * v
            terms = [(i, c) for i, c in enumerate(O[start:start + k]) if c]
            d = lcm(*[powers[i][1] for i, _ in terms])
            if start + k < len(O):
                block = _int_mul(acc, giant, prec)
                d = lcm(d, da * dg)
                f = d // (da * dg)
                if f > 1:
                    block = [x * f for x in block]
            else:
                block = [0] * prec
            for i, c in terms:
                P, dp = powers[i]
                f = c * (d // dp)
                lo = i * v
                block[lo:prec] = map(add, block[lo:prec], map(f.__mul__, P[lo:prec]))
            acc, da = _reduced(block, d)
        results.append(_reduced(acc + [0] * (n - len(acc)), da * do))
    return results


def compose_many(outers: list[TruncSeries], inner: TruncSeries) -> list[TruncSeries]:
    """[outer.compose(inner) for outer in outers], sharing one power table.

    Each result keeps the min-order rule of ``compose``: it is known to
    min(outer.order, inner.order) coefficients.
    """
    if inner.nums[0]:
        raise CompositionError("inner series must have zero constant term")
    orders = [min(o.order, inner.order) for o in outers]
    n = max(orders)
    outs = _compose_many([(o.nums, o.den) for o in outers], (inner.nums, inner.den), n)
    return [_series(nums[:m], d) for (nums, d), m in zip(outs, orders)]


def _make(nums: Iterable[int], den: int) -> TruncSeries:
    """The series nums/den; den > 0 and gcd(den, *nums) = 1 already hold."""
    s = object.__new__(TruncSeries)
    _set(s, "nums", tuple(nums))
    _set(s, "den", den)
    _set(s, "_coeffs", None)
    return s


def _series(nums: Sequence[int], den: int) -> TruncSeries:
    """The series nums/den, for any positive den."""
    return _make(*_reduced(nums, den))


class TruncSeries:
    """A power series known modulo z**order (order = number of coefficients)."""

    __slots__ = ("nums", "den", "_coeffs")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [_exact(c) for c in coeffs]
        if not cs:
            raise OrderError("a series needs at least one coefficient")
        # the least common denominator of values in lowest terms leaves the
        # numerators with no factor in common with it
        d = lcm(*[c.denominator for c in cs])
        _set(self, "nums", tuple([c.numerator * (d // c.denominator) for c in cs]))
        _set(self, "den", d)
        _set(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def __reduce__(self):
        return _make, (self.nums, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on first use."""
        cs = self._coeffs
        if cs is None:
            d = self.den
            cs = tuple(map(Fraction, self.nums)) if d == 1 else \
                tuple([Fraction(x, d) for x in self.nums])
            _set(self, "_coeffs", cs)
        return cs

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
        return cls(cs + [0] * (order - len(cs)))

    # ---- basic queries ----

    @property
    def order(self) -> int:
        return len(self.nums)

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i < self.order:
            raise OrderError(f"coefficient {i} not known at order {self.order}")
        return Fraction(self.nums[i], self.den)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if zero to order."""
        return next((i for i, x in enumerate(self.nums) if x), None)

    @property
    def is_zero(self) -> bool:
        return self.valuation() is None

    def truncate(self, order: int) -> TruncSeries:
        if not 1 <= order <= self.order:
            raise OrderError(f"cannot truncate order {self.order} to {order}")
        return _series(self.nums[:order], self.den)

    def matches(self, other: TruncSeries) -> bool:
        """Coefficientwise equality to the common order."""
        n = min(self.order, other.order)
        return self.truncate(n) == other.truncate(n)

    # ---- ring operations ----

    def _coerce(self, other) -> TruncSeries | None:
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction, float)):
            return TruncSeries.constant(other, self.order)
        return None

    def _plus(self, o: TruncSeries, sign: int) -> TruncSeries:
        """self + sign*o over the lcm of the two denominators."""
        d = lcm(self.den, o.den)
        fa, fb = d // self.den, sign * (d // o.den)
        return _series([x * fa + y * fb for x, y in zip(self.nums, o.nums)], d)

    def __add__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> TruncSeries:
        return _make([-x for x in self.nums], self.den)

    def __mul__(self, other) -> TruncSeries:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return _make(*_columns(self.nums, self.den, o.nums, o.den, n, 2)[1])

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
        return _make(*_div(self.nums[bv:n], self.den, o.nums[bv:n], o.den, n - bv))

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
        A, d = self.nums, self.den
        if A[0]:
            raise ReversionError("constant term must be zero")
        if not A[1]:
            raise ReversionError("linear coefficient must be nonzero")
        dA = list(map(mul, range(1, n), A[1:]))
        # r starts as z/a_1 = z*d/A_1
        G, dg = _reduced([0, d if A[1] > 0 else -d], abs(A[1]))
        prec = 2
        while prec < n:
            prec = min(2 * prec, n)
            G = G + [0] * (prec - len(G))
            (F, df), (DF, ddf) = _compose_many([(A[:prec], d), (dA[:prec], d)], (G, dg), prec)
            F[1] -= df
            C, dc = _div(F, df, DF, ddf, prec)
            L = lcm(dg, dc)
            fg, fc = L // dg, L // dc
            G, dg = _reduced([x * fg - y * fc for x, y in zip(G, C)], L)
        return _make(G[:n], dg)

    def sqrt(self) -> TruncSeries:
        """Square root branch with positive constant term.

        The constant term must be the square of a nonzero rational (1 in
        every closed form this package evaluates); callers wanting the other
        branch negate the result.
        """
        C, dc = self.nums, self.den
        if C[0] == 0:
            raise SqrtError("constant term must be nonzero")
        g = gcd(C[0], dc)
        c0, d0 = C[0] // g, dc // g
        p, q = isqrt(max(c0, 0)), isqrt(d0)
        if c0 < 0 or p * p != c0 or q * q != d0:
            raise SqrtError(f"{ratio_strs((c0,), d0)[0]} is not a perfect rational square")
        # as in _div: with r_0..r_(k-1) kept as numerators R over their
        # least common denominator L,
        # r_k = (c_k - sum_{i=1..k-1} r_i r_(k-i)) / (2 r_0)
        #     = (C_k L^2 - dc sum R_i R_(k-i)) / (2 R_0 dc L)
        R, L = [p], q
        for k in range(1, self.order):
            num = C[k] * L * L - dc * sum(map(mul, islice(R, 1, None), reversed(R)))
            L = _push(R, L, num, 2 * R[0] * dc * L)
        return _make(R, L)

    def derivative(self) -> TruncSeries:
        """Termwise derivative; the order drops by one.

        An order-1 input (bare constant) maps to the zero series at order 1
        rather than an empty series.
        """
        if self.order == 1:
            return _make((0,), 1)
        return _series(list(map(mul, range(1, self.order), self.nums[1:])), self.den)

    def alternate(self) -> TruncSeries:
        """Coefficients of self(-z)."""
        nums = list(self.nums)
        nums[1::2] = [-x for x in nums[1::2]]
        return _make(nums, self.den)

    # ---- dunder plumbing ----

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __repr__(self) -> str:
        return f"TruncSeries([{', '.join(ratio_strs(self.nums, self.den))}])"

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
