"""Construction procedures for stochastic arrays and pseudo-involutions,
plus the registry of named generating functions.

Three builders: a stochastic pair from any g via f = -g + z*g + 1; the
unique pseudo-involution partner f for a g with g(0) = 1 and g'(0) != 0,
via f = -Gbar(-G/g) with G = g - 1; and the four canonical pseudo-
involutions sharing an f whose negative has compositional order two.
"""

from __future__ import annotations

from typing import Callable

from .arrays import FAMILY_KINDS, RiordanPair, subgroup_element
from .errors import OrderError, OrderTwoError, PairInvariantError, PreconditionError
from .series import TruncSeries, ratio_strs


# ---- named generating functions ----

def _fib(order: int) -> TruncSeries:
    return 1 / TruncSeries.polynomial([1, -1, -1], order)


def _lucas(order: int) -> TruncSeries:
    return TruncSeries.polynomial([1, 0, 1], order) / TruncSeries.polynomial([1, -1, -1], order)


def _cfib(n: int):
    def build(order: int) -> TruncSeries:
        return _fib(order) ** n
    return build


def _fib_f(order: int) -> TruncSeries:
    return pseudo_from_g(_fib(order)).f


def _lucas_f(order: int) -> TruncSeries:
    return pseudo_from_g(_lucas(order)).f


_REGISTRY: dict[str, Callable[[int], TruncSeries]] = {
    "fib": _fib,          # Fibonacci numbers, 1/(1-z-z^2)
    "lucas": _lucas,      # modified Lucas numbers, (1+z^2)/(1-z-z^2)
    "cfib2": _cfib(2),    # convolved Fibonacci numbers, (1/(1-z-z^2))^2
    "cfib3": _cfib(3),    # convolved Fibonacci numbers, (1/(1-z-z^2))^3
    "fib_f": _fib_f,      # the f pairing with fib in its pseudo-involution
    "lucas_f": _lucas_f,  # the f pairing with lucas in its pseudo-involution
}


def gf_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def named_series(name: str, order: int) -> TruncSeries:
    return _REGISTRY[name](order)


# ---- stochastic arrays ----

def stochastic_from_g(g: TruncSeries) -> RiordanPair:
    """Pair (g, -g + z*g + 1), whose expansion has every row sum equal to 1.

    Needs g(0) = 1, the one constant term that gives f a zero constant
    term.  The result is usually stretched, and f collapses to zero
    entirely for g = 1/(1-z).
    """
    if g.nums[0] != g.den:
        g0 = ratio_strs(g.nums[:1], g.den)[0]
        raise PairInvariantError(f"stochastic construction needs g(0) = 1, got g(0) = {g0}")
    f = TruncSeries.z(g.order) * g - g + 1
    return RiordanPair(g, f)


# ---- pseudo-involutions from g ----

def pseudo_from_g(g: TruncSeries) -> RiordanPair:
    """The unique f making (g, f) a pseudo-involution, for g(0) = 1, g'(0) != 0.

    Computes G = g - 1 and f = -Gbar(-G/g); a deterministic, exact
    replacement for solving the same construction with a symbolic toolbox.
    """
    if g.nums[0] != g.den:
        raise PreconditionError("pseudo-involution construction needs g(0) = 1")
    if g.order < 2:
        raise OrderError(
            f"pseudo-involution construction reads g'(0), so it needs order at "
            f"least 2, got {g.order}"
        )
    if not g.nums[1]:
        raise PreconditionError("pseudo-involution construction needs g'(0) != 0")
    G = g - 1
    f = -(G.reverse().compose(-G / g))
    return RiordanPair(g, f)


def power_pseudo(pair: RiordanPair, n: int) -> RiordanPair:
    """(g^n, f), which inherits the pseudo-involution property."""
    if n < 1:
        raise PreconditionError(f"power must be a positive integer, got {n}")
    if not pair.is_pseudo_involution():
        raise PreconditionError("power construction needs a pseudo-involution")
    return RiordanPair(pair.g ** n, pair.f)


# ---- pseudo-involution families from f ----

def has_comp_order_two(F: TruncSeries) -> bool:
    """F(F(z)) = z to the available order."""
    if F.nums[0] or F.order < 2 or not F.nums[1]:
        return False
    return RiordanPair(TruncSeries.one(F.order), F).involution_failure() is None


def family_from_f(f: TruncSeries) -> list[RiordanPair]:
    """The four canonical pseudo-involutions sharing f:
    (1, f), (f/z, f), (f', f) and (z*f'/f, f).

    Requires -f to have compositional order two at the available order.
    """
    if not has_comp_order_two(-f):
        raise OrderTwoError("-f must satisfy -f(-f(z)) = z to the available order")
    return [subgroup_element(kind, f) for kind in FAMILY_KINDS]


def g_subgroup_mul(g1: TruncSeries, g2: TruncSeries, f: TruncSeries) -> RiordanPair:
    """(g1*g2, f), staying inside {g : (g, f) is a pseudo-involution}."""
    _require_members(f, g1, g2)
    return RiordanPair(g1 * g2, f)


def g_subgroup_inv(g: TruncSeries, f: TruncSeries) -> RiordanPair:
    """(1/g, f), staying inside {g : (g, f) is a pseudo-involution}."""
    _require_members(f, g)
    return RiordanPair(1 / g, f)


def _require_members(f: TruncSeries, *gs: TruncSeries) -> None:
    for g in gs:
        if not RiordanPair(g, f).is_pseudo_involution():
            raise PreconditionError(
                "operand g does not form a pseudo-involution with this f"
            )
