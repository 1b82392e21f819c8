"""Exception taxonomy shared across the package.

Analysis results that are merely negative (an assumption fails, a rank is
deficient, a condition does not hold) are reported through result objects,
not exceptions.  Exceptions are reserved for inputs outside an operation's
domain, resource caps, and protocol violations.
"""


class NpdShareError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NpdShareError, ValueError):
    """Input outside the documented domain of an operation."""


class CapacityError(NpdShareError):
    """Request exceeds a documented size cap (e.g. hull enumeration)."""


class ConditionInapplicableError(NpdShareError):
    """A condition is undefined for the given game size.

    The pairwise identifiability conditions for private monitoring require
    at least one firm outside the pair under test, hence N > 2.
    """


class ProtocolError(NpdShareError):
    """Simulation protocol violated (e.g. message emitted in public mode)."""


class DiscountTooSmallError(NpdShareError):
    """Promise update left the admissible payoff region.

    Carries diagnostics: the violating period and the smallest discount
    factor that would have kept every observed update inside the region
    (a replay diagnostic, not a certified threshold).
    """

    def __init__(self, period: int, delta: float, delta_suggested: float | None):
        self.period = period
        self.delta = delta
        self.delta_suggested = delta_suggested
        hint = (
            f"; replaying the same signals stays inside for delta >= {delta_suggested:.6f}"
            if delta_suggested is not None
            else ""
        )
        super().__init__(
            f"discount too small: promise update at period {period} leaves the "
            f"admissible region at delta={delta}{hint}"
        )
