"""Exception hierarchy shared by the whole toolkit.

Every error raised by this package derives from RiordanError so callers
(notably the CLI) can map failures to exit codes in one place.
"""


class RiordanError(Exception):
    pass


# ---- truncated-series arithmetic ----

class SeriesError(RiordanError):
    pass


class DivisionByZeroSeries(SeriesError):
    """Denominator is identically zero to its truncation order."""


class ValuationError(SeriesError):
    """Denominator vanishes to higher order than the numerator."""


class CompositionError(SeriesError):
    """Inner series of a composition has a nonzero constant term."""


class ReversionError(SeriesError):
    """Series is not reversible (needs zero constant, nonzero linear term)."""


class SqrtError(SeriesError):
    """Constant term is not the square of a nonzero rational."""


class InexactScalarError(SeriesError):
    """A float was given where an exact coefficient is required."""


class OrderError(SeriesError):
    """More coefficients or rows requested than the truncation order holds."""


# ---- Riordan pairs ----

class PairInvariantError(RiordanError):
    """Pair violates g(0) != 0 or f(0) = 0."""


class ProprietyError(RiordanError):
    """Operation requires a proper pair (nonzero linear term in f)."""


class DegenerateZError(RiordanError):
    """Column-0 sequence starts with zero; extraction is undefined."""


# ---- constructions ----

class PreconditionError(RiordanError):
    """Input fails a construction's stated precondition."""


class OrderTwoError(PreconditionError):
    """Negated f does not square to z under composition."""


# ---- expression parsing ----

class ExprError(RiordanError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownNameError(ExprError):
    pass
